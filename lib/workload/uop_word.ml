let words = 3
let max_dep = 1 lsl 31
let max_static_id = 1 lsl 57

(* Errors name the stream: it is what callers pack micro-ops into. *)
let check_dep field d =
  if d < 0 || d >= max_dep then
    invalid_arg
      (Printf.sprintf "Uop_stream: %s distance %d does not fit in 31 bits" field d)

let write buf w ~cls ~begins ~taken ~static_id ~dep1 ~dep2 ~addr =
  check_dep "dep1" dep1;
  check_dep "dep2" dep2;
  if static_id < 0 || static_id >= max_static_id then
    invalid_arg
      (Printf.sprintf "Uop_stream: static_id %d does not fit in 57 bits" static_id);
  buf.(w) <-
    (static_id lsl 6) lor (Bool.to_int begins lsl 5) lor (Bool.to_int taken lsl 4)
    lor cls;
  buf.(w + 1) <- (dep1 lsl 31) lor dep2;
  buf.(w + 2) <- addr

let pack buf w (u : Isa.uop) =
  write buf w ~cls:(Isa.class_index u.cls) ~begins:u.begins_instruction
    ~taken:u.taken ~static_id:u.static_id ~dep1:u.dep1 ~dep2:u.dep2 ~addr:u.addr

let class_index w0 = w0 land 15
let taken w0 = w0 land 16 <> 0
let begins_instruction w0 = w0 land 32 <> 0
let static_id w0 = w0 lsr 6
let dep1 w1 = w1 lsr 31
let dep2 w1 = w1 land (max_dep - 1)

let classes = Array.of_list Isa.all_classes

let decode w0 w1 w2 : Isa.uop =
  {
    cls = classes.(class_index w0);
    dep1 = dep1 w1;
    dep2 = dep2 w1;
    addr = w2;
    taken = taken w0;
    static_id = static_id w0;
    begins_instruction = begins_instruction w0;
  }
