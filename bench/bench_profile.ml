(* Sharded profiling pipeline: throughput, bit-identity gates and
   shard-boundary error (BENCH_profile.json). *)

let profile_shards () =
  Table.section "Sharded profiling pipeline — warm-up windows";
  let bench = "gcc" in
  let spec = Benchmarks.find bench in
  let n = 400_000 in
  let seed = Harness.seed in
  (* --- profiling throughput, sequential and sharded.  Each timed run
     keeps only scalars and the serialized string alive, and the heap is
     compacted in between: the live major heap left by a previous
     profile would otherwise be charged (as GC marking work) to whichever
     variant runs later. *)
  let profile_stats f =
    Gc.compact ();
    let p, s = Harness.time f in
    (Profile_io.to_binary_string p, Profile.cold_miss_rate p, s)
  in
  let s_seq1, seq1_cold, seq1_s =
    profile_stats (fun () -> Profiler.profile spec ~jobs:1 ~seed ~n_instructions:n)
  in
  let jobs_requested = 4 in
  let jobs = Harness.effective_jobs jobs_requested in
  let _, _, sharded_s =
    profile_stats (fun () -> Profiler.profile spec ~jobs ~seed ~n_instructions:n)
  in
  (* Boundary error and the exactness check use a fixed 4-way split so
     they exercise real shard boundaries even when the machine's core
     count clamps the timed run above to fewer shards. *)
  let s_exact, _, _ =
    profile_stats (fun () ->
        Profiler.profile spec ~jobs:4 ~warmup:max_int ~seed ~n_instructions:n)
  in
  let _, warm_cold, _ =
    profile_stats (fun () ->
        Profiler.profile spec ~jobs:4 ~seed ~n_instructions:n)
  in
  let s_recorded, _, _ =
    profile_stats (fun () ->
        Profiler.profile_stream (Uop_stream.record spec ~seed ~n_instructions:n))
  in
  let jobs1_identical = s_seq1 = s_recorded in
  let exact_identical = s_exact = s_seq1 in
  (* Hard acceptance gates: at jobs:1 the generated stream profiles
     exactly as the recorded one, and unbounded warm-up removes all
     boundary error. *)
  if not jobs1_identical then
    failwith
      "profile_shards: jobs:1 output differs from the recorded stream's profile";
  if not exact_identical then
    failwith
      "profile_shards: unbounded-warm-up sharded output differs from jobs:1";
  let boundary_cold_error =
    if seq1_cold = 0.0 then 0.0
    else Float.abs (warm_cold -. seq1_cold) /. seq1_cold
  in
  let ips s = float_of_int n /. s in
  (* The jobs:1 run over the jobs:N run is the parallel speedup; with one
     effective job there is none to report. *)
  let parallel_speedup =
    if jobs = 1 then None else Some (seq1_s /. sharded_s)
  in
  Table.print ~header:[ "variant"; "seconds"; "instr/sec"; "speedup" ]
    ~rows:
      [
        [ "sharded, jobs=1"; Table.fmt_f ~decimals:3 seq1_s;
          Table.fmt_f ~decimals:0 (ips seq1_s); "1.00" ];
        [ Printf.sprintf "sharded, jobs=%d (warmup %d)" jobs
            Profiler.default_warmup;
          Table.fmt_f ~decimals:3 sharded_s;
          Table.fmt_f ~decimals:0 (ips sharded_s);
          Table.fmt_f ~decimals:2 (seq1_s /. sharded_s) ];
      ];
  Printf.printf
    "jobs:1 bit-identical to the recorded stream's profile: %b; \
     unbounded-warm-up shards bit-identical: %b\n\
     cold-rate error across 4 shard boundaries (warmup %d): %.4f\n"
    jobs1_identical exact_identical Profiler.default_warmup
    boundary_cold_error;
  Harness.write_report "BENCH_profile.json"
    Minijson.
      [
        ("benchmark", Str bench);
        ("n_instructions", int n);
        ("jobs_requested", int jobs_requested);
        ("jobs_effective", int jobs);
        ("warmup_instructions", int Profiler.default_warmup);
        ("sharded_jobs1_seconds", Num seq1_s);
        ("sharded_seconds", Num sharded_s);
        ("instr_per_sec_seq", Num (ips seq1_s));
        ("instr_per_sec_sharded", Num (ips sharded_s));
        ("parallel_speedup", Harness.num_opt parallel_speedup);
        ("cold_rate_seq", Num seq1_cold);
        ("cold_rate_sharded", Num warm_cold);
        ("boundary_cold_error", Num boundary_cold_error);
        ("bit_identical", Bool (jobs1_identical && exact_identical));
      ]
