(* The two sweep reports, over one gcc profile at the design-space run
   length: the streaming engine at scale ([dse_sweep], BENCH_sweep.json)
   and fault-isolated, checkpointed sweeps ([sweep_faults],
   BENCH_faults.json).  The 243-point sweep's own speed and its StatStack
   reuse are perfbench's `profile-suite` figures ([dse.sweep_s],
   [statstack.constructions]), not this report's. *)

let bench = "gcc"

(* The model options and the profile both targets sweep, built once and
   before any timer starts (the options train the entropy model). *)
let inputs =
  lazy
    ( Harness.model_options (),
      Profiler.profile (Benchmarks.find bench) ~seed:Harness.seed
        ~n_instructions:Harness.n_space )

(* The first [length] points of the large space, streamed. *)
let stream (options, profile) ~jobs ~length ?checkpoint () =
  match
    Sweep.model_sweep_stream ~options ~jobs ?checkpoint ~length ~profile
      Config_space.large
  with
  | Ok s -> s
  | Error ft -> failwith ("sweep: " ^ Fault.to_string ft)

(* [f path] on a fresh, empty checkpoint file, removed afterwards. *)
let with_checkpoint f =
  let path = Filename.temp_file "mipp_bench" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* What a kill mid-append leaves: the log's header and first [records]
   records, then a torn partial line. *)
let cut_log path ~records =
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun i l -> if i <= records then output_string oc (l ^ "\n"))
        lines;
      output_string oc "0bad0bad ok 100 0x1.2p3")

(* ---- dse_sweep: the streaming engine at scale ---- *)

let dse_sweep () =
  Table.section "DSE sweep engine — streaming sweep at scale, kill-and-resume";
  let jobs_requested = 4 in
  let jobs = Harness.effective_jobs jobs_requested in
  let space = Config_space.large in
  let stream_points = 100_000 in
  let ((options, profile) as inputs) = Lazy.force inputs in
  let run ?checkpoint () =
    stream inputs ~jobs ~length:stream_points ?checkpoint ()
  in
  (* The rate is the warm engine's, as in the committed baseline: the
     first sweep of a fresh profile also builds its derived model state,
     so one untimed sweep of the 243-point space goes first. *)
  ignore (Sweep.model_sweep ~options ~jobs:1 ~profile Uarch.design_space);
  let s_cold, stream_s = Harness.time (fun () -> run ()) in
  let stream_pps = float_of_int stream_points /. stream_s in
  (* Kill-and-resume bit-identity on the same range: checkpoint, cut the
     log back to 60% of its blocks, resume, compare summaries. *)
  let resume_identical =
    with_checkpoint (fun ckpt ->
        let s1 = run ~checkpoint:ckpt () in
        cut_log ckpt ~records:(s1.Sweep.ss_n_blocks * 3 / 5);
        let s2 = run ~checkpoint:ckpt () in
        let strip (s : Sweep.stream_summary) =
          { s with ss_resumed_blocks = 0; ss_evaluated_blocks = 0 }
        in
        s2.Sweep.ss_resumed_blocks > 0
        && s2.ss_evaluated_blocks > 0
        && strip s1 = strip s2
        && strip s_cold = strip s1)
  in
  let peak_rss_mb = Harness.peak_rss_mb () in
  Table.print ~header:[ "streaming sweep"; "value" ]
    ~rows:
      [
        [ "space"; Printf.sprintf "%s (%d points total)" (Config_space.name space)
            (Config_space.size space) ];
        [ "points evaluated"; string_of_int stream_points ];
        [ "seconds"; Table.fmt_f ~decimals:2 stream_s ];
        [ "points/sec"; Table.fmt_f ~decimals:0 stream_pps ];
        [ "Pareto front"; string_of_int (List.length s_cold.Sweep.ss_front) ];
        [ "kill-and-resume bit-identical"; string_of_bool resume_identical ];
        [ "peak RSS (MB)";
          Option.fold ~none:"-" ~some:(Table.fmt_f ~decimals:1) peak_rss_mb ];
      ];
  Harness.write_report "BENCH_sweep.json"
    Minijson.
      [
        ("benchmark", Str bench);
        ("jobs_requested", int jobs_requested);
        ("jobs_effective", int jobs);
        ("stream_space", Str (Config_space.name space));
        ("stream_points", int stream_points);
        ("stream_block_size", int Sweep.default_block_size);
        ("stream_seconds", Num stream_s);
        ("stream_points_per_sec", Num stream_pps);
        ("stream_front_points", int (List.length s_cold.Sweep.ss_front));
        ("stream_resume_identical", Bool resume_identical);
        ("peak_rss_mb", Harness.num_opt peak_rss_mb);
      ]

(* ---- sweep_faults: checkpoint overhead, kill-and-resume, isolation ---- *)

(* Checkpoint-overhead gates, checked and reported by [sweep_faults]:
   absolute cost per point on the small sweep, and the checkpointed /
   plain time ratio minus one at streaming scale. *)
let per_point_gate_us = 25.0
let stream_overhead_gate = 0.10

let sweep_faults () =
  Table.section
    "Fault-isolated sweeps — checkpoint overhead, kill-and-resume, isolation";
  let configs = Uarch.design_space in
  let n_configs = List.length configs in
  let ((options, profile) as inputs) = Lazy.force inputs in
  let evals_of (outcome : Sweep.outcome) =
    List.map
      (function
        | Ok e -> e
        | Error ft ->
          failwith ("sweep_faults: unexpected fault: " ^ Fault.to_string ft))
      outcome.Sweep.o_results
  in
  let run ?checkpoint () =
    match
      Sweep.model_sweep_result ~options ~jobs:1 ?checkpoint ~profile configs
    with
    | Ok o -> o
    | Error ft -> failwith ("sweep_faults: sweep failed: " ^ Fault.to_string ft)
  in
  with_checkpoint (fun ckpt_path ->
      (* --- checkpoint overhead on the full design-space sweep.  Warm
         the StatStack memo first, so the comparison measures fsync'd
         appends, not construction. *)
      let baseline = run () in
      (* A single 243-point sweep takes a handful of milliseconds, right
         at the scheduler's jitter scale, so measure paired: each round
         times 10 back-to-back plain sweeps then 10 checkpointed ones
         (adjacent in time, so drift hits both), and the reported
         overhead is the median of the per-round ratios — one noisy
         round cannot move it. *)
      let rounds = 7 and inner = 10 in
      let window ?(setup = fun () -> ()) ?(inner = inner) f =
        let acc = ref 0.0 in
        for _ = 1 to inner do
          setup ();
          acc := !acc +. snd (Harness.time f)
        done;
        !acc /. float_of_int inner
      in
      (* Reset by truncating, not unlinking: inode create/unlink churn
         hits the filesystem journal and would be charged — noisily — to
         the checkpointed variant. *)
      let remove_ckpt () =
        let fd =
          Unix.openfile ckpt_path
            [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ]
            0o644
        in
        Unix.close fd
      in
      Gc.compact ();
      let pairs =
        List.init rounds (fun _ ->
            let p = window (fun () -> ignore (run ())) in
            let c =
              window ~setup:remove_ckpt (fun () ->
                  ignore (run ~checkpoint:ckpt_path ()))
            in
            (p, c))
      in
      let plain_s = Stats.median (List.map fst pairs) in
      let ckpt_s = Stats.median (List.map snd pairs) in
      (* Per-round overhead ratios of millisecond sweeps: their spread is
         timing noise, so report it beside the median rather than read
         the median as a cost.  The per-point gate below is the cost. *)
      let ratios = List.map (fun (p, c) -> (c -. p) /. p) pairs in
      let overhead = Stats.median ratios in
      let overhead_p10 = Stats.percentile ratios 10.0 in
      let overhead_p90 = Stats.percentile ratios 90.0 in
      let blocks =
        (n_configs + Sweep.default_point_block_size - 1)
        / Sweep.default_point_block_size
      in
      (* --- kill-and-resume recovery: a full checkpoint cut back to its
         first 100 records plus a torn tail; re-running on it must
         reproduce the uninterrupted sweep bit for bit. *)
      let prefix = 100 in
      remove_ckpt ();
      let base_evals = evals_of baseline in
      ignore (run ~checkpoint:ckpt_path ());
      cut_log ckpt_path ~records:prefix;
      let resumed = run ~checkpoint:ckpt_path () in
      let recovery_ok =
        resumed.Sweep.o_resumed = prefix
        && compare base_evals (evals_of resumed) = 0
      in
      (* --- fault isolation: one poisoned config (rob = 0 crashes the
         chain model) must fail alone, every other point still Ok. *)
      let poisoned_space = configs @ [ Uarch.with_rob Uarch.reference 0 ] in
      let isolation_ok =
        match
          Sweep.model_sweep_result ~options ~jobs:1 ~profile poisoned_space
        with
        | Error _ -> false
        | Ok o ->
          o.Sweep.o_ok = n_configs
          && o.Sweep.o_failed = 1
          && Result.is_error (List.nth o.Sweep.o_results n_configs)
      in
      (* The streaming hot-path work cut the whole 243-point sweep to a
         couple of milliseconds, so the checkpoint's fixed I/O is now a
         large *fraction* of a tiny denominator even though its absolute
         cost per point is unchanged.  Gate the small sweep on absolute
         per-point overhead (stable as evaluations keep getting faster),
         and apply the 10% ratio gate at streaming scale, where
         group-commit amortization is the actual design claim. *)
      let per_point_us =
        (ckpt_s -. plain_s) /. float_of_int n_configs *. 1e6
      in
      let stream_points = 20_000 in
      let stream_run ?checkpoint () =
        ignore (stream inputs ~jobs:1 ~length:stream_points ?checkpoint ())
      in
      let stream_pairs =
        List.init 3 (fun _ ->
            let p = window ~inner:1 (fun () -> stream_run ()) in
            let c =
              window ~inner:1 ~setup:remove_ckpt (fun () ->
                  stream_run ~checkpoint:ckpt_path ())
            in
            (p, c))
      in
      let stream_plain_s = Stats.median (List.map fst stream_pairs) in
      let stream_ckpt_s = Stats.median (List.map snd stream_pairs) in
      let stream_overhead =
        Stats.median (List.map (fun (p, c) -> (c -. p) /. p) stream_pairs)
      in
      Table.print
        ~header:[ "variant"; "seconds"; "points/sec"; "overhead" ]
        ~rows:
          [
            [ "no checkpoint"; Table.fmt_f ~decimals:4 plain_s;
              Table.fmt_f ~decimals:0 (float_of_int n_configs /. plain_s);
              "--" ];
            [ Printf.sprintf "checkpointed, %d-point blocks (%d appends)"
                Sweep.default_point_block_size blocks;
              Table.fmt_f ~decimals:4 ckpt_s;
              Table.fmt_f ~decimals:0 (float_of_int n_configs /. ckpt_s);
              Printf.sprintf
                "%.1f us/point (rounds p10/median/p90 %.0f/%.0f/%.0f%%)"
                per_point_us (100.0 *. overhead_p10) (100.0 *. overhead)
                (100.0 *. overhead_p90) ];
            [ Printf.sprintf "streaming %dk, no checkpoint"
                (stream_points / 1000);
              Table.fmt_f ~decimals:4 stream_plain_s;
              Table.fmt_f ~decimals:0
                (float_of_int stream_points /. stream_plain_s);
              "--" ];
            [ Printf.sprintf "streaming %dk, checkpointed blocks"
                (stream_points / 1000);
              Table.fmt_f ~decimals:4 stream_ckpt_s;
              Table.fmt_f ~decimals:0
                (float_of_int stream_points /. stream_ckpt_s);
              Printf.sprintf "%.1f%%" (100.0 *. stream_overhead) ];
          ];
      Printf.printf
        "kill-and-resume: %d of %d points restored from the log (plus a torn \
         tail), resumed results bit-identical: %b\n\
         poisoned config isolated (1 fault, %d points still evaluated): %b\n"
        prefix n_configs recovery_ok n_configs isolation_ok;
      (* Hard acceptance gates: checkpointing must cost bounded absolute
         time per point on small sweeps, stay within the overhead gate at
         streaming scale, and recovery and isolation must actually work. *)
      if per_point_us > per_point_gate_us then
        failwith
          (Printf.sprintf
             "sweep_faults: checkpoint overhead %.1f us/point exceeds the \
              %.0f us gate"
             per_point_us per_point_gate_us);
      if stream_overhead > stream_overhead_gate then
        failwith
          (Printf.sprintf
             "sweep_faults: streaming checkpoint overhead %.1f%% exceeds the \
              %.0f%% gate"
             (100.0 *. stream_overhead)
             (100.0 *. stream_overhead_gate));
      if not recovery_ok then
        failwith "sweep_faults: kill-and-resume results differ from \
                  an uninterrupted sweep";
      if not isolation_ok then
        failwith "sweep_faults: poisoned config was not isolated";
      Harness.write_report "BENCH_faults.json"
        Minijson.
          [
            ("benchmark", Str bench);
            ("configs", int n_configs);
            ("block_size", int Sweep.default_point_block_size);
            ("appends_per_sweep", int blocks);
            ("rounds", int rounds);
            ("plain_seconds", Num plain_s);
            ("checkpointed_seconds", Num ckpt_s);
            ("round_overhead_p10", Num overhead_p10);
            ("round_overhead_median", Num overhead);
            ("round_overhead_p90", Num overhead_p90);
            ("checkpoint_us_per_point", Num per_point_us);
            ("per_point_gate_us", Num per_point_gate_us);
            ("stream_points", int stream_points);
            ("stream_plain_seconds", Num stream_plain_s);
            ("stream_checkpointed_seconds", Num stream_ckpt_s);
            ("stream_checkpoint_overhead", Num stream_overhead);
            ("stream_overhead_gate", Num stream_overhead_gate);
            ("resumed_points", int prefix);
            ("recovery_bit_identical", Bool recovery_ok);
            ("poisoned_config_isolated", Bool isolation_ok);
          ])
