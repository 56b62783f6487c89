let chunk_uops = 4096
let words = 3
let chunk_words = chunk_uops * words
let max_dep = 1 lsl 31
let max_static_id = 1 lsl 57

type t = { name : string; chunks : int array array }

(* ---- Packing ---- *)

let check_dep field d =
  if d < 0 || d >= max_dep then
    invalid_arg
      (Printf.sprintf "Uop_stream: %s distance %d does not fit in 31 bits" field d)

let pack chunk i (u : Isa.uop) =
  check_dep "dep1" u.dep1;
  check_dep "dep2" u.dep2;
  if u.static_id < 0 || u.static_id >= max_static_id then
    invalid_arg
      (Printf.sprintf "Uop_stream: static_id %d does not fit in 57 bits" u.static_id);
  let w = i * words in
  chunk.(w) <-
    (u.static_id lsl 6)
    lor (Bool.to_int u.begins_instruction lsl 5)
    lor (Bool.to_int u.taken lsl 4)
    lor Isa.class_index u.cls;
  chunk.(w + 1) <- (u.dep1 lsl 31) lor u.dep2;
  chunk.(w + 2) <- u.addr

(* The producing side of a stream: instructions still to take from
   [next_instruction], and micro-ops taken but not yet packed (the rest of
   an instruction that straddled the previous chunk's end). *)
type source = {
  next_instruction : unit -> Isa.uop list;
  mutable left : int;
  mutable carry : Isa.uop list;
}

let source spec ~seed ~n_instructions =
  let gen = Workload_gen.create spec ~seed in
  {
    next_instruction = (fun () -> Workload_gen.next_instruction gen);
    left = n_instructions;
    carry = [];
  }

(* Packs micro-ops into [chunk] from its start; returns how many, fewer
   than [chunk_uops] only once the stream is exhausted. *)
let fill src chunk =
  let n = ref 0 in
  let rec put = function
    | [] -> ()
    | u :: rest as uops ->
      if !n = chunk_uops then src.carry <- uops
      else begin
        pack chunk !n u;
        incr n;
        put rest
      end
  in
  let carry = src.carry in
  src.carry <- [];
  put carry;
  while !n < chunk_uops && src.left > 0 do
    src.left <- src.left - 1;
    put (src.next_instruction ())
  done;
  !n

(* Full chunks as they are; the last trimmed to its exact size. *)
let collect ~name next =
  let rec go acc =
    let chunk = Array.make chunk_words 0 in
    let n = next chunk in
    if n = chunk_uops then go (chunk :: acc)
    else
      let acc = if n = 0 then acc else Array.sub chunk 0 (n * words) :: acc in
      { name; chunks = Array.of_list (List.rev acc) }
  in
  go []

let record spec ~seed ~n_instructions =
  let src = source spec ~seed ~n_instructions in
  collect ~name:spec.Workload_spec.wname (fill src)

let of_list uops =
  collect ~name:"" (fill { next_instruction = (fun () -> []); left = 0; carry = uops })

let name t = t.name

(* ---- Decoding ---- *)

let class_index w0 = w0 land 15
let taken w0 = w0 land 16 <> 0
let begins_instruction w0 = w0 land 32 <> 0
let static_id w0 = w0 lsr 6
let dep1 w1 = w1 lsr 31
let dep2 w1 = w1 land (max_dep - 1)

(* ---- Cursors ---- *)

type cursor = {
  mutable chunk : int array;
  mutable pos : int;  (* word offset of the current micro-op *)
  mutable limit : int;  (* word offset past the chunk's last micro-op *)
  mutable next_chunk : int;  (* recorded: index of the chunk after [chunk] *)
  recorded : int array array;
  window : source option;  (* refills [chunk] in place when present *)
}

let cursor t =
  { chunk = [||]; pos = 0; limit = 0; next_chunk = 0; recorded = t.chunks; window = None }

let window spec ~seed ~n_instructions =
  {
    chunk = Array.make chunk_words 0;
    pos = 0;
    limit = 0;
    next_chunk = 0;
    recorded = [||];
    window = Some (source spec ~seed ~n_instructions);
  }

let refill c =
  c.pos <- 0;
  match c.window with
  | Some src -> c.limit <- fill src c.chunk * words
  | None ->
    if c.next_chunk < Array.length c.recorded then begin
      c.chunk <- c.recorded.(c.next_chunk);
      c.next_chunk <- c.next_chunk + 1;
      c.limit <- Array.length c.chunk
    end
    else c.limit <- 0

let at_end c =
  if c.pos < c.limit then false
  else begin
    refill c;
    c.limit = 0
  end

let advance c = c.pos <- c.pos + words
let word0 c = c.chunk.(c.pos)
let word1 c = c.chunk.(c.pos + 1)
let word2 c = c.chunk.(c.pos + 2)
