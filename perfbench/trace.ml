(* In-memory span recorder for the traced benchmark run.

   A span is one call the benchmark makes into a layer's public
   function: its name is "<layer>.<call>", it has a monotonic start and
   end, the id of the span that caused it (0 for none) and the run id of
   the process.  Spans are kept in memory and written out once, when the
   run ends, so recording costs one clock read and one list cons per
   call.  Recording is off unless [enable] was called: the untraced run
   pays a single boolean test per call. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let run_id = ref ""
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []

let enable ~run = enabled := true; run_id := run

let record s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

(* [span ~parent name f] runs [f id] inside a span named [name]; [id] is
   the new span's id, for the spans [f] causes.  With recording off it
   is [f 0]. *)
let span ?(parent = 0) name f =
  if not !enabled then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = now () in
    let finish () = record { id; parent; name; t0; t1 = now () } in
    match f id with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let spans () = Mutex.protect lock (fun () -> List.rev !recorded)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Durations, in seconds, of the recorded spans named [name]. *)
let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    (spans ())

(* Self time per layer over the spans whose root ancestor satisfies
   [within]: each span's duration minus the time its direct children
   cover.  Children of one span run one after another on the caller's
   thread, so their durations do not overlap. *)
let self_by_layer ~within =
  let all = spans () in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> root p
    | None -> s
  in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if within (root s) then begin
        let self =
          s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
        in
        let layer = layer_of s.name in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc layer) in
        Hashtbl.replace acc layer (prev +. self)
      end)
    all;
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt acc layer)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Write every span as one JSON array; times are seconds from the first
   span's start. *)
let write path =
  let all = spans () in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"run\": %s, \"id\": %d, \"parent\": %d, \"name\": %s, \
             \"start_s\": %.9f, \"end_s\": %.9f}\n"
            (if i = 0 then " " else ",")
            (json_string !run_id) s.id s.parent (json_string s.name)
            (s.t0 -. base) (s.t1 -. base))
        all;
      output_string oc "]\n")
