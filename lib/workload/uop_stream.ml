let chunk_uops = 4096
let words = Uop_word.words
let chunk_words = chunk_uops * words

type t = { name : string; chunks : int array array }

(* ---- Filling ---- *)

(* The producing side of a stream: [emit] packs the next instruction at a
   word offset and returns its micro-op count, and [left] instructions
   remain.  Chunks are filled in a buffer with room for one more
   instruction past [chunk_words]: an instruction that begins on the
   chunk's last slot spills its other micro-ops there, and the next fill
   moves them to the front. *)
type source = {
  emit : int array -> int -> int;
  mutable left : int;
  mutable spilled : int;  (* micro-ops waiting past [chunk_words] *)
}

let buffer_words = (chunk_uops + Workload_gen.max_uops_per_instruction) * words

let source ?(start = 0) spec ~seed ~n_instructions =
  let gen = Workload_gen.create spec ~seed in
  Workload_gen.fast_forward gen ~to_instruction:start;
  { emit = Workload_gen.emit gen; left = n_instructions; spilled = 0 }

(* Packs micro-ops into [buf] from its start; returns how many, fewer
   than [chunk_uops] only once the stream is exhausted. *)
let fill src buf =
  let n = ref src.spilled in
  Array.blit buf chunk_words buf 0 (!n * words);
  while !n < chunk_uops && src.left > 0 do
    src.left <- src.left - 1;
    n := !n + src.emit buf (!n * words)
  done;
  src.spilled <- max 0 (!n - chunk_uops);
  min !n chunk_uops

(* Every chunk copied out at its exact size, so all are full but the
   last. *)
let collect ~name src =
  let buf = Array.make buffer_words 0 in
  let rec go acc =
    let n = fill src buf in
    let acc = if n = 0 then acc else Array.sub buf 0 (n * words) :: acc in
    if n = chunk_uops then go acc
    else { name; chunks = Array.of_list (List.rev acc) }
  in
  go []

let record spec ~seed ~n_instructions =
  collect ~name:spec.Workload_spec.wname (source spec ~seed ~n_instructions)

let of_list uops =
  let rest = ref uops in
  let emit buf w =
    match !rest with
    | [] -> 0
    | u :: tl ->
      rest := tl;
      Uop_word.pack buf w u;
      1
  in
  collect ~name:"" { emit; left = List.length uops; spilled = 0 }

let name t = t.name

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

let window ?start spec ~seed ~n_instructions =
  {
    chunk = Array.make buffer_words 0;
    pos = 0;
    limit = 0;
    next_chunk = 0;
    recorded = [||];
    window = Some (source ?start spec ~seed ~n_instructions);
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
