(* Sharded profiling pipeline: throughput against the legacy profiler,
   bit-identity gates and shard-boundary error (BENCH_profile.json). *)

let profile_shards () =
  Table.section "Sharded profiling pipeline — warm-up windows";
  let bench = "gcc" in
  let spec = Benchmarks.find bench in
  let n = 400_000 in
  let seed = Harness.seed in
  (* --- profiling throughput: legacy monolith vs sharded pipeline.
     Each timed run keeps only scalars and the serialized string alive,
     and the heap is compacted in between: on this allocation-heavy path
     the live major heap left by a previous profile would otherwise be
     charged (as GC marking work) to whichever variant runs later. *)
  let profile_stats f =
    Gc.compact ();
    let p, s = Harness.time f in
    (Profile_io.to_binary_string p, Profile.cold_miss_rate p, s)
  in
  let s_legacy, legacy_cold, legacy_s =
    profile_stats (fun () -> Profiler.profile_legacy spec ~seed ~n_instructions:n)
  in
  let s_seq1, _, seq1_s =
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
  let jobs1_identical = s_seq1 = s_legacy in
  let exact_identical = s_exact = s_legacy in
  (* Hard acceptance gates: the sharded pipeline at jobs:1 IS the legacy
     profiler, and unbounded warm-up removes all boundary error. *)
  if not jobs1_identical then
    failwith "profile_shards: jobs:1 output differs from the legacy profiler";
  if not exact_identical then
    failwith
      "profile_shards: unbounded-warm-up sharded output differs from the \
       legacy profiler";
  let boundary_cold_error =
    if legacy_cold = 0.0 then 0.0
    else Float.abs (warm_cold -. legacy_cold) /. legacy_cold
  in
  let ips s = float_of_int n /. s in
  (* legacy/sharded is an algorithmic ratio; only the sharded pipeline's
     own jobs:1 run over its jobs:N run is a parallel speedup, and with
     one effective job there is none to report. *)
  let parallel_speedup =
    if jobs = 1 then None else Some (seq1_s /. sharded_s)
  in
  Table.print ~header:[ "variant"; "seconds"; "instr/sec"; "speedup" ]
    ~rows:
      [
        [ "legacy sequential"; Table.fmt_f ~decimals:3 legacy_s;
          Table.fmt_f ~decimals:0 (ips legacy_s); "1.00" ];
        [ "sharded, jobs=1"; Table.fmt_f ~decimals:3 seq1_s;
          Table.fmt_f ~decimals:0 (ips seq1_s);
          Table.fmt_f ~decimals:2 (legacy_s /. seq1_s) ];
        [ Printf.sprintf "sharded, jobs=%d (warmup %d)" jobs
            Profiler.default_warmup;
          Table.fmt_f ~decimals:3 sharded_s;
          Table.fmt_f ~decimals:0 (ips sharded_s);
          Table.fmt_f ~decimals:2 (legacy_s /. sharded_s) ];
      ];
  Printf.printf
    "jobs:1 bit-identical to legacy: %b; unbounded-warm-up shards \
     bit-identical: %b\n\
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
        ("legacy_seconds", Num legacy_s);
        ("sharded_jobs1_seconds", Num seq1_s);
        ("sharded_seconds", Num sharded_s);
        ("instr_per_sec_seq", Num (ips seq1_s));
        ("instr_per_sec_sharded", Num (ips sharded_s));
        ("sharded_vs_legacy_speedup", Num (legacy_s /. sharded_s));
        ("parallel_speedup", Harness.num_opt parallel_speedup);
        ("cold_rate_seq", Num legacy_cold);
        ("cold_rate_sharded", Num warm_cold);
        ("boundary_cold_error", Num boundary_cold_error);
        ("bit_identical", Bool (jobs1_identical && exact_identical));
      ]
