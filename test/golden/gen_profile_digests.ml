(* Byte-identity snapshot of the generator and the profiler.

   One row per benchmark and size: the MD5 of the binary encoding of
   [Profiler.profile ~jobs:1], at a size that is a multiple of the 10k
   sampling window and one that is not.  One row profiles in three
   shards with an unbounded warm-up, which must encode exactly as the
   sequential profile does.  The stream rows digest each benchmark's
   recorded packed micro-op stream word by word, which pins the
   generator on its own, at the profiling seed and two more; the last
   rows cross a phase change.  A faster
   generator or profiler must reproduce this file byte for byte. *)

let seed = 1
let sizes = [ 30_000; 45_500 ]
let stream_instructions = 45_500
let phase_instructions = 410_000

let profile_digest ?(jobs = 1) ?warmup spec ~n_instructions =
  Profiler.profile ~jobs ?warmup spec ~seed ~n_instructions
  |> Profile_io.to_binary_string |> Digest.string |> Digest.to_hex

let stream_digest ~seed ~n_instructions spec =
  let stream = Uop_stream.record spec ~seed ~n_instructions in
  let c = Uop_stream.cursor stream in
  let buf = Buffer.create (1 lsl 20) in
  let n = ref 0 in
  while not (Uop_stream.at_end c) do
    Buffer.add_int64_le buf (Int64.of_int (Uop_stream.word0 c));
    Buffer.add_int64_le buf (Int64.of_int (Uop_stream.word1 c));
    Buffer.add_int64_le buf (Int64.of_int (Uop_stream.word2 c));
    incr n;
    Uop_stream.advance c
  done;
  (!n, Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  List.iter
    (fun n_instructions ->
      List.iter
        (fun (name, spec) ->
          Printf.printf "profile %-10s n=%d jobs=1 %s\n" name n_instructions
            (profile_digest spec ~n_instructions))
        Benchmarks.all)
    sizes;
  Printf.printf "profile %-10s n=%d jobs=3 warmup=max %s\n" "gcc" 45_500
    (profile_digest ~jobs:3 ~warmup:max_int (Benchmarks.find "gcc")
       ~n_instructions:45_500);
  List.iter
    (fun (seed, n_instructions) ->
      List.iter
        (fun (name, spec) ->
          let uops, digest = stream_digest ~seed ~n_instructions spec in
          Printf.printf "stream  %-10s seed=%d n=%d uops=%d %s\n" name seed
            n_instructions uops digest)
        Benchmarks.all)
    [ (seed, stream_instructions); (2, 6_000); (977, 6_000) ];
  (* Across a phase change: every multi-phase benchmark's stream, and two
     profiles, past the first phase (300k instructions, 400k for gcc). *)
  List.iter
    (fun name ->
      let uops, digest =
        stream_digest ~seed ~n_instructions:phase_instructions
          (Benchmarks.find name)
      in
      Printf.printf "stream  %-10s seed=%d n=%d uops=%d %s\n" name seed
        phase_instructions uops digest)
    Benchmarks.phased;
  List.iter
    (fun jobs ->
      Printf.printf "profile %-10s n=%d jobs=%d warmup=max %s\n" "astar"
        phase_instructions jobs
        (profile_digest ~jobs ~warmup:max_int (Benchmarks.find "astar")
           ~n_instructions:phase_instructions))
    [ 1; 3 ]
