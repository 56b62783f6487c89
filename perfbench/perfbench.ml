(* The benchmark of record.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --mipp PATH [--work-dir DIR] [--commit ID]
                   [--source-digest HEX] [--nproc N]

   Runs one workload from this process, checks its outputs, and prints
   as the last line of standard output one JSON object
   {"correct", "attempted", "failed", "metrics"}; earlier lines give the
   machine, a digest of the outputs and the workload's own headline
   figures ("metric NAME VALUE UNIT").

   With --trace 0 the metrics are the end-to-end ones, measured with span
   recording off.  Every workload reports the same three, so that runs of
   different workloads compare metric by metric: setup_s (CPU seconds of
   one set-up), peak_rss_mb and throughput_per_cpu_s, the workload's
   headline rate per CPU second.  CPU time is that of the processes
   doing the work: this one, and in serve-mix the daemon.  Times are
   taken in CPU time, not wall time, because the benchmark runs on a few
   virtual CPUs of a shared host: time the host takes the CPUs away
   (steal) is not CPU time of the benchmark, yet it stretched wall time
   up to threefold from one run to the next.  Contention that
   slows the CPUs themselves, and the spinning of a domain whose peer
   was taken away, still show in CPU time.  The wall-clock figures
   (setup_wall_s, throughput_per_s, latency_ms.p50/.p90 of one
   operation, the workload's own headline names) and the host's steal
   share are printed beside them on "metric" lines.  With --trace 1 the run measures a half-length
   window untraced, then the full window traced, and the metrics are the per-layer ones
   (see [layer_metrics]); the spans are written to
   DIR/trace-WORKLOAD-SEED.json.

   Workloads (inputs are generated from --seed):
   - explore: profile mcf once in set-up, then stream a fixed 16384-point
     sub-range of Config_space.large through Sweep.model_sweep_stream at
     jobs = nproc with a fresh checkpoint log.  Operation = one sweep;
     throughput = design points per second (per CPU second: the median
     over sweeps).
   - profile-suite: for eight benchmarks, profile (jobs 1), save and
     reload through binary Profile_io, prepare, sweep the 243-point
     default space with Sweep.model_sweep_result, take the front.
     Operation = one benchmark; throughput = instructions profiled per
     second of a full pass (per CPU second: over the CPU time of a pass).
   - serve-mix: two closed-loop Client connections drive a `mipp serve`
     daemon with predicts over the default space and a few 243-point
     sweeps, over twelve profiles, more than the daemon's 8-entry
     profile cache.  Operation = one client request (a predict that
     finds its profile evicted re-loads it and retries, inside the same
     operation); throughput = requests per second of the window (per CPU
     second: over the CPU time of the clients and the daemon), latency
     percentiles over all its requests.
   - validate: Validate.run_workload over the `sim` matrix for the
     workloads/*.workload files.  Operation = one workload file;
     throughput = matrix points per second of a full pass (per CPU
     second: over the CPU time of a pass). *)

let now = Trace.now
let span = Trace.span
let setup_reps = 5

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mipp : string;
  work_dir : string;
  commit : string;
  source_digest : string;
  nproc : int;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload explore|profile-suite|serve-mix|validate \
     --seed N --seconds S --trace 0|1 --mipp PATH [--work-dir DIR] \
     [--commit ID] [--source-digest HEX] [--nproc N]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let opt k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
    mipp = get "mipp";
    work_dir = opt "work-dir" ".perfbench";
    commit = opt "commit" "unknown";
    source_digest = opt "source-digest" "unknown";
    nproc = (if Hashtbl.mem tbl "nproc" then max 1 (int "nproc") else Domain.recommended_domain_count ());
  }

let args = parse_args ()

(* The machine's CPU count.  The caller passes it when it pins this
   process to fewer CPUs (serve-mix runs on one), so that the counts of
   domains, clients and workers below follow the machine, not the
   pinning. *)
let nproc = args.nproc

(* The untraced window: the whole run, or in a traced run the first
   half-length window, the reference for the tracing overhead. *)
let untraced_seconds a = if a.trace then a.seconds /. 2.0 else a.seconds

(* ------------------------------------------------------------------ *)
(* Results: operation counts, correctness checks, metrics, digest *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let count ?(failures = 0) n =
  ignore (Atomic.fetch_and_add attempted n);
  ignore (Atomic.fetch_and_add failed failures)

(* One correctness check: an attempted operation that fails when [ok]
   is false. *)
let check what ok =
  count ~failures:(if ok then 0 else 1) 1;
  if not ok then Printf.eprintf "perfbench: check failed: %s\n%!" what

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

(* Human-readable metrics printed before the result line: the headline
   figures under workload-specific names (explore_points_per_s, ...). *)
let notes : (string * float * string) list ref = ref []
let note name unit value =
  notes := (name, value, unit) :: List.filter (fun (n, _, _) -> n <> name) !notes

let digest_buf = Buffer.create 4096
let digest_add s = Buffer.add_string digest_buf s; Buffer.add_char digest_buf '\n'
let hex f = Printf.sprintf "%h" f
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ok_or_die what = function
  | Ok v -> v
  | Error f -> failwith (Printf.sprintf "%s: %s" what (Fault.to_string f))

(* ------------------------------------------------------------------ *)
(* Measurement helpers *)

let median xs = if xs = [] then 0.0 else Stats.median xs
let pct xs p = if xs = [] then 0.0 else Stats.percentile xs p
let sum = List.fold_left ( +. ) 0.0

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* CPU seconds (user and system) of this process, all domains and
   threads included. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()], its wall time and its CPU time. *)
let timed_cpu f =
  let c0 = cpu_self () in
  let v, dt = timed f in
  (v, dt, cpu_self () -. c0)

(* CPU seconds of another process, from /proc/PID/stat (utime and stime,
   in the kernel's fixed 100 ticks per second). *)
let cpu_of_pid pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (* Fields after the parenthesised command name, which may hold spaces. *)
    let start = String.rindex line ')' + 2 in
    let f = Array.of_list (String.split_on_char ' ' (String.sub line start (String.length line - start))) in
    (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* The value of field [key] in /proc/PID/status, if present. *)
let proc_status pid key =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let prefix = key ^ ":" in
        let n = String.length prefix in
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> None
          | line when String.length line > n && String.sub line 0 n = prefix ->
            Some (String.trim (String.sub line n (String.length line - n)))
          | _ -> loop ()
        in
        loop ())

(* The host's steal and total CPU time so far, in ticks, from the
   first line of /proc/stat. *)
let host_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let f = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
    ((match List.nth_opt f 7 with Some v -> v | None -> 0), List.fold_left ( + ) 0 f)

(* The share of the host's CPU time it took away (steal) since [mark]. *)
let steal_since (s0, t0) =
  let s1, t1 = host_ticks () in
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  match proc_status pid "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> 0.0

(* The peak resident set the end-to-end metrics report, taken after a
   fixed amount of work (see [measured_setup] and [repeat_for]): the
   process grows with every repeated set-up and sweep (Gc.compact frees
   no memory to the system in OCaml 5.1), so a peak over the whole
   window would rise with speed. *)
let rss_mark = ref 0.0

(* Run [setup] [setup_reps] times, tearing down all but the last, and
   record the median set-up time in CPU seconds: this process's, plus
   [cpu_of] the set-up's result (the CPU time of a process the set-up
   started), for the reason the throughput is per CPU second.  The
   median wall time is printed beside it.  With [rss_first] the peak
   resident set is taken after the first set-up, the only one a fresh
   process makes. *)
let measured_setup ?(cpu_of = fun _ -> 0.0) ?(rss_first = false) ~setup ~teardown () =
  let rec go i cpus walls =
    let st, dt, cpu = timed_cpu setup in
    if rss_first && i = 1 then rss_mark := peak_rss_mb "self";
    let cpus = (cpu +. cpu_of st) :: cpus and walls = dt :: walls in
    if i = setup_reps then begin
      metric "setup_s" "s" (median cpus);
      note "setup_wall_s" "s" (median walls);
      st
    end
    else begin
      teardown st;
      Gc.compact ();
      go (i + 1) cpus walls
    end
  in
  go 1 [] []

(* Repeat [op] until [seconds] have elapsed (at least once); the result
   is the list of [op]'s return values, in order.  The peak resident set
   is taken after the first [rss_after] calls (or the whole window, if
   shorter); 0 takes none. *)
let repeat_for ?(rss_after = 1) ~seconds op =
  let t_end = now () +. seconds in
  let rec go n acc =
    if now () >= t_end && acc <> [] then begin
      if n <= rss_after then rss_mark := peak_rss_mb "self";
      List.rev acc
    end
    else begin
      let v = op () in
      if n = rss_after then rss_mark := peak_rss_mb "self";
      go (n + 1) (v :: acc)
    end
  in
  go 1 []

(* The end-to-end metrics common to every workload: set-up time (by
   [measured_setup]), peak resident set and the headline rate per CPU
   second.  Beside them, on "metric" lines, the wall-clock rate and
   latency percentiles over every operation of the window, the CPU
   seconds per wall second and the host's steal share over the window.
   The wall-clock rate is also printed under the workload's own name, in
   the unit that name has: [headline] is (name, unit, scale from 1/s). *)
let report_end_to_end ~headline:(name, unit, scale) ~throughput ~cpu_throughput ~latencies_s
    ~rss ~steal =
  metric "peak_rss_mb" "MB" rss;
  metric "throughput_per_cpu_s" "1/s" cpu_throughput;
  note name unit (throughput *. scale);
  note "throughput_per_s" "1/s" throughput;
  note "latency_ms.p50" "ms" (1000.0 *. pct latencies_s 50.0);
  note "latency_ms.p90" "ms" (1000.0 *. pct latencies_s 90.0);
  note "latency.samples" "count" (float_of_int (List.length latencies_s));
  note "cpu_per_wall" "frac" (throughput /. cpu_throughput);
  note "host.steal_frac" "frac" steal

(* A robust pass time: the sum over the pass's items of each item's
   median time across passes, so a stall during one operation does not
   move the figure.  Used for wall and CPU times alike. *)
let robust_pass_time passes =
  match passes with
  | [] -> 0.0
  | first :: _ ->
    sum (List.mapi (fun i _ -> median (List.map (fun ts -> List.nth ts i) passes)) first)

(* Per-layer self seconds per operation of the traced window, given the
   window's operation spans: span self times (duration minus direct
   children) by layer, then [moves] shift time measured inside one
   layer's call to the layer it calls (from separately timed probes),
   since the library calls are opaque to the benchmark's spans. *)
let layers = [ "workload"; "profiler"; "core"; "power"; "dse"; "sim"; "validate"; "serve" ]

let report_self_times ~clients ~n_ops ~window_s ~moves =
  let self = Trace.self_by_layer ~within:(fun root -> root.Trace.name = "bench.op") in
  let tbl = Hashtbl.create 8 in
  List.iter (fun l -> Hashtbl.replace tbl l (self l)) layers;
  Hashtbl.replace tbl "profiler" (self "profiler" +. self "profile_io");
  List.iter
    (fun (from, to_, s) ->
      Hashtbl.replace tbl from (Hashtbl.find tbl from -. s);
      Hashtbl.replace tbl to_ (Hashtbl.find tbl to_ +. s))
    moves;
  let n = float_of_int (max 1 n_ops) in
  let total = ref 0.0 in
  List.iter
    (fun l ->
      let s = Hashtbl.find tbl l in
      total := !total +. s;
      metric (l ^ ".self_s") "s" (s /. n))
    layers;
  (* With several clients, operation spans overlap in wall time. *)
  let wall = window_s *. float_of_int clients in
  metric "trace.layers_share" "frac" (if wall > 0.0 then !total /. wall else 0.0)

(* ------------------------------------------------------------------ *)
(* Shared model helpers *)

let jobs = nproc
let default_configs = Array.to_list (Config_space.materialize Config_space.default)

let eval_equal (a : Sweep.eval) (b : Sweep.eval) =
  a.sw_index = b.sw_index
  && a.sw_config.Uarch.name = b.sw_config.Uarch.name
  && same_float a.sw_cpi b.sw_cpi
  && same_float a.sw_cycles b.sw_cycles
  && same_float a.sw_watts b.sw_watts
  && same_float a.sw_seconds b.sw_seconds
  && same_float a.sw_energy_j b.sw_energy_j
  && same_float a.sw_ed2p b.sw_ed2p

let eval_line (e : Sweep.eval) =
  Printf.sprintf "%d %s %s %s %s %s %s" e.sw_index (hex e.sw_cpi) (hex e.sw_cycles)
    (hex e.sw_watts) (hex e.sw_seconds) (hex e.sw_energy_j) (hex e.sw_ed2p)

(* Time [Interval_model.predict] and [Power.estimate] separately on
   sampled (config, profile) pairs; returns (predict_s list, estimate_s
   list). *)
let probe_predict ~parent pairs =
  List.fold_left
    (fun (ps, es) (u, p) ->
      let pred, dp =
        timed (fun () -> span ~parent "core.predict" (fun _ -> Interval_model.predict u p))
      in
      let _, de =
        timed (fun () ->
            span ~parent "power.estimate" (fun _ ->
                Power.estimate u pred.Interval_model.pr_activity))
      in
      (dp :: ps, de :: es))
    ([], []) pairs

(* The core (and, when timed, power) metrics from sampled call times. *)
let report_predict ?estimate_s predict_s =
  let us = List.map (fun s -> 1e6 *. s) predict_s in
  metric "core.predict_us.p50" "us" (pct us 50.0);
  metric "core.predict_us.p99" "us" (pct us 99.0);
  metric "core.predicts" "count" (float_of_int (List.length us));
  Option.iter (fun es -> metric "power.estimate_us" "us" (1e6 *. median es)) estimate_s

(* Workload generation alone: create + skip over the same streams the
   profiler walks. *)
let probe_gen ~parent specs ~seed ~n =
  let t =
    sum
      (List.map
         (fun spec ->
           snd
             (timed (fun () ->
                  span ~parent "workload.gen" (fun _ ->
                      let g = Workload_gen.create spec ~seed in
                      Workload_gen.skip g ~n_instructions:n))))
         specs)
  in
  metric "workload.gen_minstr_per_s" "Minstr/s"
    (float_of_int (n * List.length specs) /. t /. 1e6);
  t

(* Profiler metrics over the recorded profiler spans; [instructions]
   per profile. *)
let report_profiler ~instructions ~microtraces =
  let ps = Trace.durations "profiler.profile" in
  metric "profiler.profile_s" "s" (median ps);
  metric "profiler.minstr_per_s" "Minstr/s"
    (if ps = [] then 0.0
     else float_of_int (instructions * List.length ps) /. sum ps /. 1e6);
  metric "profiler.microtraces" "count" (float_of_int microtraces);
  metric "profiler.prepare_s" "s" (median (Trace.durations "profiler.prepare"))

let report_profile_io ~bytes =
  metric "profile_io.encode_s" "s" (median (Trace.durations "profile_io.encode"));
  metric "profile_io.decode_s" "s" (median (Trace.durations "profile_io.decode"));
  metric "profile_io.bytes" "B" (float_of_int bytes)

(* The user's profile-once path: profile, save and reload through binary
   Profile_io, prepare.  Returns the profile, its bytes and the StatStack
   constructions [prepare] made. *)
let profile_roundtrip ?(parent = 0) spec ~seed ~n =
  let p = span ~parent "profiler.profile" (fun _ -> Profiler.profile spec ~seed ~n_instructions:n) in
  let bytes = span ~parent "profile_io.encode" (fun _ -> Profile_io.to_binary_string p) in
  let p = ok_or_die "decode" (span ~parent "profile_io.decode" (fun _ -> Profile_io.of_string bytes)) in
  let c0 = Statstack.construction_count () in
  span ~parent "profiler.prepare" (fun _ -> Profile.prepare p);
  (p, bytes, Statstack.construction_count () - c0)

(* Every per-layer metric a workload does not measure reads 0: the layer
   is not called on that workload. *)
let layer_metrics =
  [
    ("workload.gen_minstr_per_s", "Minstr/s");
    ("profiler.profile_s", "s"); ("profiler.minstr_per_s", "Minstr/s");
    ("profiler.microtraces", "count"); ("profiler.prepare_s", "s");
    ("statstack.constructions", "count");
    ("profile_io.encode_s", "s"); ("profile_io.decode_s", "s"); ("profile_io.bytes", "B");
    ("core.predict_us.p50", "us"); ("core.predict_us.p99", "us"); ("core.predicts", "count");
    ("power.estimate_us", "us");
    ("dse.sweep_s", "s"); ("dse.points", "count"); ("dse.blocks", "count");
    ("dse.failed_points", "count"); ("dse.pareto_s", "s"); ("dse.front_points", "count");
    ("dse.checkpoint_bytes", "B"); ("dse.checkpoint_s", "s");
    ("sim.run_s", "s"); ("sim.minstr_per_s", "Minstr/s"); ("sim.runs", "count");
    ("validate.cpi_mape_pct", "%");
    ("serve.predict_rtt_us.p50", "us"); ("serve.predict_rtt_us.p99", "us");
    ("serve.sweep_rtt_us.p50", "us"); ("serve.sweep_rtt_us.p99", "us");
    ("serve.load_rtt_us.p50", "us"); ("serve.overhead_us", "us");
    ("serve.cache_hits", "count"); ("serve.cache_misses", "count");
    ("serve.cache_evictions", "count"); ("serve.cache_hit_ratio", "frac");
    ("serve.shed", "count"); ("serve.completed", "count"); ("serve.queue_depth", "count");
  ]
  @ List.map (fun l -> (l ^ ".self_s", "s")) layers
  @ [ ("trace.layers_share", "frac"); ("trace.overhead_frac", "frac"); ("trace.spans", "count") ]

(* The traced run measures the window untraced, then traced: the
   overhead is the relative change in the median operation time. *)
let report_overhead ~untraced ~traced =
  let u = median untraced and t = median traced in
  metric "trace.overhead_frac" "frac" (if u > 0.0 then (t -. u) /. u else 0.0)

(* ------------------------------------------------------------------ *)
(* explore *)

let explore_bench = "mcf"
let explore_instructions = 200_000
let explore_space = Config_space.large

(* width = 4 (axis 0, fourth value): every core, cache, DRAM, bus and
   DVFS axis varies inside the range. *)
let explore_offset = 3 * (Config_space.size Config_space.large / 6)
(* Four blocks: two per worker domain at jobs = 2.  Short enough for
   about sixty sweeps in a 20 s window, so that the median sweep rate and
   the p90 sweep time do not rest on a few sweeps. *)
let explore_length = 16_384

let explore a =
  let ckpt_path = Filename.concat a.work_dir (Printf.sprintf "explore-%d.ckpt" (Unix.getpid ())) in
  let sweep ?(parent = 0) ?(checkpoint = true) ?on_point p =
    if Sys.file_exists ckpt_path then Sys.remove ckpt_path;
    let checkpoint = if checkpoint then Some ckpt_path else None in
    let r, dt =
      timed (fun () ->
          span ~parent "dse.model_sweep_stream" (fun _ ->
              Sweep.model_sweep_stream ~jobs ?checkpoint ?on_point ~offset:explore_offset
                ~length:explore_length ~profile:p explore_space))
    in
    let bytes = if Sys.file_exists ckpt_path then (Unix.stat ckpt_path).st_size else 0 in
    if Sys.file_exists ckpt_path then Sys.remove ckpt_path;
    (ok_or_die "explore sweep" r, dt, bytes)
  in
  let setup () =
    Profile.clear_stack_memo ();
    let p, _, _ =
      profile_roundtrip (Benchmarks.find explore_bench) ~seed:a.seed ~n:explore_instructions
    in
    (* Warm-up: the first streaming sweep after prepare runs slower. *)
    ignore (sweep p);
    p
  in
  (* Peak resident set: profile once and one sweep, in a fresh process.
     Repeated set-ups and sweeps each add to the heap by steps that vary
     with collection timing (a peak after five set-ups and eight sweeps
     spread 0.11-0.17 IQR/median over ten runs, after one set-up 0.02). *)
  let p =
    measured_setup ~rss_first:true ~setup ~teardown:(fun _ -> Profile.clear_stack_memo ()) ()
  in
  let first = ref true in
  let check_sweep (ss : Sweep.stream_summary) =
    count ~failures:ss.ss_failed ss.ss_length;
    check "explore: ok + failed = length" (ss.ss_ok + ss.ss_failed = ss.ss_length);
    check "explore: every front point re-derived"
      (List.length ss.ss_front_evals = List.length ss.ss_front);
    List.iter
      (fun (e : Sweep.eval) ->
        let u = Config_space.config_of_index explore_space e.sw_index in
        let direct = Sweep.of_prediction u ~index:e.sw_index (Interval_model.predict u p) in
        check "explore: front point bit-equal to a direct predict" (eval_equal e direct))
      ss.ss_front_evals;
    if !first then begin
      first := false;
      digest_add
        (String.concat " "
           (List.map hex
              [ ss.ss_sum_cpi; ss.ss_sum_cycles; ss.ss_sum_watts; ss.ss_sum_energy_j;
                ss.ss_sum_ed2p ]));
      List.iter (fun e -> digest_add (eval_line e)) ss.ss_front_evals
    end
  in
  (* The window's operations: each sweep's summary, wall time,
     checkpoint bytes and CPU time. *)
  let window ?(after = ignore) ~seconds () =
    repeat_for ~rss_after:0 ~seconds (fun () ->
        let (ss, dt, bytes), _, cpu =
          timed_cpu (fun () -> span "bench.op" (fun op -> sweep ~parent:op p))
        in
        check_sweep ss;
        after ();
        (ss, dt, bytes, cpu))
  in
  let mark = host_ticks () in
  let untraced = window ~seconds:(untraced_seconds a) () in
  let times = List.map (fun (_, dt, _, _) -> dt) untraced in
  let pts = float_of_int explore_length in
  if not a.trace then begin
    let rates = List.map (fun dt -> pts /. dt) times in
    let cpu_rates = List.map (fun (_, _, _, c) -> pts /. c) untraced in
    report_end_to_end ~headline:("explore_points_per_s", "1/s", 1.0) ~throughput:(median rates)
      ~cpu_throughput:(median cpu_rates) ~latencies_s:times ~rss:!rss_mark
      ~steal:(steal_since mark)
  end
  else begin
    Trace.enable ~run:(Printf.sprintf "explore-%d-%d" a.seed (Unix.getpid ()));
    (* Each checkpointed sweep is paired with an unchecked one, for the
       checkpoint cost; the unchecked sweeps are probes, outside the
       operations. *)
    let unchecked = ref [] in
    let t0 = now () in
    let traced =
      window ~after:(fun () ->
          let (_, dt, _), dp =
            timed (fun () -> span "bench.probe" (fun parent -> sweep ~parent ~checkpoint:false p))
          in
          unchecked := (dt, dp) :: !unchecked)
        ~seconds:a.seconds ()
    in
    let window_s = now () -. t0 -. sum (List.map snd !unchecked) in
    let unchecked = List.rev_map fst !unchecked in
    let ttimes = List.map (fun (_, dt, _, _) -> dt) traced in
    report_overhead ~untraced:times ~traced:ttimes;
    (* One sweep observing every point, for the whole-range Pareto
       time. *)
    let delay = Array.make explore_length nan and power = Array.make explore_length nan in
    let on_point i = function
      | Ok (e : Sweep.eval) ->
        delay.(i - explore_offset) <- e.sw_seconds;
        power.(i - explore_offset) <- e.sw_watts
      | Error _ -> ()
    in
    let ss, _, _ = span "bench.probe" (fun parent -> sweep ~parent ~checkpoint:false ~on_point p) in
    let points =
      List.init explore_length (fun i ->
          { Pareto.pt_id = explore_offset + i; pt_delay = delay.(i); pt_power = power.(i) })
    in
    let front = span "bench.probe" (fun parent -> span ~parent "dse.pareto" (fun _ -> Pareto.frontier points)) in
    check "explore: streamed front equals the whole-range front"
      (List.map (fun q -> q.Pareto.pt_id) front = List.map (fun q -> q.Pareto.pt_id) ss.ss_front);
    (* Sampled model and power calls on configs of the swept range. *)
    let pairs =
      List.init 2048 (fun k ->
          (Config_space.config_of_index explore_space (explore_offset + (k * 16)), p))
    in
    let ps, es = span "bench.probe" (fun parent -> probe_predict ~parent pairs) in
    report_predict ~estimate_s:es ps;
    let sweep_s = median ttimes in
    let ss0, _, ckpt_bytes, _ = List.hd traced in
    metric "dse.sweep_s" "s" sweep_s;
    metric "dse.points" "count" (float_of_int ss0.ss_length);
    metric "dse.blocks" "count" (float_of_int ss0.ss_n_blocks);
    metric "dse.failed_points" "count" (float_of_int ss0.ss_failed);
    metric "dse.pareto_s" "s" (median (Trace.durations "dse.pareto"));
    metric "dse.front_points" "count" (float_of_int (List.length ss0.ss_front));
    metric "dse.checkpoint_bytes" "B" (float_of_int ckpt_bytes);
    metric "dse.checkpoint_s" "s" (median (List.map2 ( -. ) ttimes unchecked));
    (* The set-up's profile-once path, again as a probe. *)
    let p', bytes, constructions =
      span "bench.probe" (fun parent ->
          profile_roundtrip ~parent (Benchmarks.find explore_bench) ~seed:a.seed
            ~n:explore_instructions)
    in
    metric "statstack.constructions" "count" (float_of_int constructions);
    report_profiler ~instructions:explore_instructions
      ~microtraces:(Array.length p'.Profile.p_microtraces);
    report_profile_io ~bytes:(String.length bytes);
    ignore (probe_gen ~parent:0 [ Benchmarks.find explore_bench ] ~seed:a.seed ~n:explore_instructions);
    (* Inside each sweep, jobs domains evaluate points in parallel. *)
    let n_ops = List.length traced in
    let in_sweep s = float_of_int n_ops *. pts *. s /. float_of_int jobs in
    report_self_times ~clients:1 ~n_ops ~window_s
      ~moves:
        [ ("dse", "core", in_sweep (sum ps /. float_of_int (List.length ps)));
          ("dse", "power", in_sweep (sum es /. float_of_int (List.length es))) ]
  end

(* ------------------------------------------------------------------ *)
(* profile-suite *)

(* Memory-bound (mcf, milc, lbm), branchy (gobmk), phased (astar, bzip2,
   wrf) and compute-bound (povray). *)
let suite = [ "mcf"; "milc"; "lbm"; "gobmk"; "astar"; "bzip2"; "wrf"; "povray" ]
let suite_instructions = 200_000

let profile_suite a =
  let specs = List.map (fun b -> (b, Benchmarks.find b)) suite in
  let setup () =
    (* Warm the allocator and code paths on a profile and sweep. *)
    let p = Profiler.profile (Benchmarks.find "gcc") ~seed:a.seed ~n_instructions:suite_instructions in
    let p = ok_or_die "decode" (Profile_io.of_string (Profile_io.to_binary_string p)) in
    ignore (ok_or_die "warm sweep" (Sweep.model_sweep_result ~jobs ~profile:p default_configs));
    Profile.clear_stack_memo ()
  in
  measured_setup ~setup ~teardown:(fun () -> ()) ();
  let digest_done = ref false in
  (* Per operation of the current window: statstack constructions, front
     size and faulted points. *)
  let constructions = ref [] and fronts = ref [] and faulted = ref 0 in
  (* One benchmark: profile -> binary save/load -> prepare -> sweep ->
     front.  Returns the operation's wall and CPU time. *)
  let op (name, spec) =
    let (p, bytes, outcome, front), dt, cpu =
      timed_cpu (fun () ->
          span "bench.op" (fun op ->
              let p, bytes, made =
                profile_roundtrip ~parent:op spec ~seed:a.seed ~n:suite_instructions
              in
              constructions := made :: !constructions;
              let outcome =
                ok_or_die "sweep"
                  (span ~parent:op "dse.model_sweep_result" (fun _ ->
                       Sweep.model_sweep_result ~jobs ~profile:p default_configs))
              in
              let evals = List.filter_map Result.to_option outcome.Sweep.o_results in
              let front =
                span ~parent:op "dse.pareto" (fun _ -> Pareto.frontier (Sweep.pareto_points evals))
              in
              (* The memo is keyed by histogram: drop this profile's
                 entries, as long-lived processes must. *)
              Profile.clear_stack_memo ();
              (p, bytes, outcome, front)))
    in
    count ~failures:outcome.o_failed (1 + List.length default_configs);
    faulted := !faulted + outcome.o_failed;
    fronts := float_of_int (List.length front) :: !fronts;
    check (name ^ ": reloaded profile re-encodes byte-identically")
      (Profile_io.to_binary_string p = bytes);
    check (name ^ ": reloaded profile validates") (Result.is_ok (Profile.validate p));
    if not !digest_done then begin
      digest_add (name ^ " " ^ Digest.to_hex (Digest.string bytes));
      List.iter
        (fun (q : Pareto.point) ->
          digest_add (Printf.sprintf "%d %s %s" q.pt_id (hex q.pt_delay) (hex q.pt_power)))
        front
    end;
    (dt, cpu)
  in
  let pass () =
    let ts = List.map op specs in
    digest_done := true;
    ts
  in
  let instr = float_of_int (suite_instructions * List.length suite) in
  let mark = host_ticks () in
  let untraced = repeat_for ~seconds:(untraced_seconds a) pass in
  let walls = List.map (List.map fst) untraced and cpus = List.map (List.map snd) untraced in
  if not a.trace then begin
    report_end_to_end ~headline:("suite_minstr_per_s", "Minstr/s", 1e-6)
      ~throughput:(instr /. robust_pass_time walls)
      ~cpu_throughput:(instr /. robust_pass_time cpus) ~latencies_s:(List.concat walls)
      ~rss:!rss_mark ~steal:(steal_since mark)
  end
  else begin
    Trace.enable ~run:(Printf.sprintf "profile-suite-%d-%d" a.seed (Unix.getpid ()));
    constructions := [];
    fronts := [];
    faulted := 0;
    let t0 = now () in
    let traced = List.map (List.map fst) (repeat_for ~seconds:a.seconds pass) in
    let window_s = now () -. t0 in
    report_overhead ~untraced:(List.map sum walls) ~traced:(List.map sum traced);
    let n_ops = List.length (List.concat traced) in
    metric "dse.sweep_s" "s" (median (Trace.durations "dse.model_sweep_result"));
    metric "dse.points" "count" (float_of_int (List.length default_configs));
    metric "dse.failed_points" "count" (float_of_int !faulted);
    metric "dse.pareto_s" "s" (median (Trace.durations "dse.pareto"));
    metric "dse.front_points" "count" (median !fronts);
    metric "statstack.constructions" "count" (median (List.map float_of_int !constructions));
    (* After the window: each benchmark's 243 predicts and power
       estimates, and its stream generated alone. *)
    let microtraces = ref 0 and bytes = ref 0 in
    let probe =
      span "bench.probe" (fun parent ->
          List.fold_left
            (fun (ps, es) (_, spec) ->
              let p, b, _ = profile_roundtrip spec ~seed:a.seed ~n:suite_instructions in
              microtraces := !microtraces + Array.length p.Profile.p_microtraces;
              bytes := !bytes + String.length b;
              let ps', es' = probe_predict ~parent (List.map (fun u -> (u, p)) default_configs) in
              Profile.clear_stack_memo ();
              (ps' @ ps, es' @ es))
            ([], []) specs)
    in
    report_profiler ~instructions:suite_instructions ~microtraces:!microtraces;
    report_profile_io ~bytes:!bytes;
    report_predict ~estimate_s:(snd probe) (fst probe);
    let gen_s =
      span "bench.probe" (fun parent ->
          probe_gen ~parent (List.map snd specs) ~seed:a.seed ~n:suite_instructions)
    in
    (* Per operation: one benchmark's sweep runs its 243 predicts and
       estimates jobs-wide; its profile generates its stream once. *)
    let per_op xs = sum xs /. float_of_int (List.length suite) in
    let n = float_of_int n_ops and jobs_eff = float_of_int jobs in
    report_self_times ~clients:1 ~n_ops ~window_s
      ~moves:
        [
          ("dse", "core", n *. per_op (fst probe) /. jobs_eff);
          ("dse", "power", n *. per_op (snd probe) /. jobs_eff);
          ("profiler", "workload", n *. gen_s /. float_of_int (List.length suite));
        ]
  end

(* ------------------------------------------------------------------ *)
(* validate *)

let validate_files () =
  Sys.readdir "workloads"
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".workload")
  |> List.sort compare
  |> List.map (Filename.concat "workloads")

let validate a =
  let files = validate_files () in
  let configs = Validate.matrix_configs `Sim in
  let n_instructions = Validate.default_n_instructions in
  let setup () =
    let specs = List.map (fun f -> ok_or_die f (Workload_parser.load f)) files in
    (* Warm the profiler, model, simulator and worker domains on a short
       validation of the first workload. *)
    ignore
      (ok_or_die "warm validate"
         (Validate.run_workload ~jobs ~seed:a.seed ~n_instructions:40_000 ~spec:(List.hd specs)
            (Validate.matrix_configs `Quick)));
    Profile.clear_stack_memo ();
    specs
  in
  let specs = measured_setup ~setup ~teardown:(fun _ -> ()) () in
  let first_pass = ref true in
  let reports = ref [] in
  let op spec =
    let r, dt, cpu =
      timed_cpu (fun () ->
          span "bench.op" (fun op ->
              span ~parent:op "validate.run_workload" (fun _ ->
                  Validate.run_workload ~jobs ~seed:a.seed ~n_instructions ~spec configs)))
    in
    let r = ok_or_die "validate" r in
    Profile.clear_stack_memo ();
    count ~failures:(List.length r.wr_faults) r.wr_n_points;
    List.iter
      (fun (pt : Validate.point) ->
        let finite = List.for_all Float.is_finite in
        let sums stack total =
          Float.abs (Cpi_stack.total stack -. total) <= 1e-9 *. Float.max 1.0 (Float.abs total)
        in
        let vals s = List.map snd (Cpi_stack.to_alist s) in
        check "validate: point finite"
          (finite (pt.vp_model_cpi :: pt.vp_sim_cpi :: (vals pt.vp_model_stack @ vals pt.vp_sim_stack)));
        check "validate: model stack sums to its CPI" (sums pt.vp_model_stack pt.vp_model_cpi);
        check "validate: simulated stack sums to its CPI" (sums pt.vp_sim_stack pt.vp_sim_cpi))
      r.wr_points;
    if !first_pass then begin
      reports := r :: !reports;
      List.iter
        (fun (pt : Validate.point) ->
          digest_add
            (String.concat " "
               (string_of_int pt.vp_index :: hex pt.vp_model_cpi :: hex pt.vp_sim_cpi
               :: List.map (fun (_, v) -> hex v)
                    (Cpi_stack.to_alist pt.vp_model_stack @ Cpi_stack.to_alist pt.vp_sim_stack))))
        r.wr_points
    end;
    (dt, cpu)
  in
  let pass () =
    let ts = List.map op specs in
    first_pass := false;
    ts
  in
  let mark = host_ticks () in
  let untraced = repeat_for ~seconds:(untraced_seconds a) pass in
  let walls = List.map (List.map fst) untraced and cpus = List.map (List.map snd) untraced in
  let mape = 100.0 *. (Validate.summarize (List.rev !reports)).rp_mape in
  let points = float_of_int (List.length configs * List.length specs) in
  if not a.trace then begin
    note "cpi_mape" "%" mape;
    report_end_to_end ~headline:("validate_points_per_s", "1/s", 1.0)
      ~throughput:(points /. robust_pass_time walls)
      ~cpu_throughput:(points /. robust_pass_time cpus) ~latencies_s:(List.concat walls)
      ~rss:!rss_mark ~steal:(steal_since mark)
  end
  else begin
    Trace.enable ~run:(Printf.sprintf "validate-%d-%d" a.seed (Unix.getpid ()));
    let t0 = now () in
    let traced = List.map (List.map fst) (repeat_for ~seconds:a.seconds pass) in
    let window_s = now () -. t0 in
    report_overhead ~untraced:(List.map sum walls) ~traced:(List.map sum traced);
    metric "validate.cpi_mape_pct" "%" mape;
    (* run_workload's own calls, timed one by one on the same points:
       profile + prepare once, then predict and simulate per config. *)
    let ps = ref [] and ss = ref [] and profile_s = ref 0.0 in
    let constructions = ref [] and microtraces = ref 0 in
    span "bench.probe" (fun parent ->
        List.iter
          (fun spec ->
            let p, dp =
              timed (fun () ->
                  span ~parent "profiler.profile" (fun _ ->
                      Profiler.profile spec ~seed:a.seed ~n_instructions))
            in
            microtraces := !microtraces + Array.length p.Profile.p_microtraces;
            let c0 = Statstack.construction_count () in
            let (), dq = timed (fun () -> span ~parent "profiler.prepare" (fun _ -> Profile.prepare p)) in
            constructions := float_of_int (Statstack.construction_count () - c0) :: !constructions;
            profile_s := !profile_s +. dp +. dq;
            List.iter
              (fun u ->
                let _, d = timed (fun () -> span ~parent "core.predict" (fun _ -> Interval_model.predict u p)) in
                ps := d :: !ps;
                let _, d =
                  timed (fun () ->
                      span ~parent "sim.run" (fun _ -> Simulator.run u spec ~seed:a.seed ~n_instructions))
                in
                ss := d :: !ss)
              configs;
            Profile.clear_stack_memo ())
          specs);
    report_predict !ps;
    metric "sim.run_s" "s" (median !ss);
    metric "sim.minstr_per_s" "Minstr/s"
      (float_of_int (n_instructions * List.length !ss) /. sum !ss /. 1e6);
    metric "sim.runs" "count" (float_of_int (List.length !ss));
    metric "statstack.constructions" "count" (median !constructions);
    report_profiler ~instructions:n_instructions ~microtraces:!microtraces;
    let gen_s =
      span "bench.probe" (fun parent -> probe_gen ~parent specs ~seed:a.seed ~n:n_instructions)
    in
    let passes = float_of_int (List.length traced) in
    let jobs_eff = float_of_int jobs in
    (* Per pass: one profile and prepare per workload; every config
       predicted and simulated, jobs-wide; the profile and each
       simulation generate the workload's stream. *)
    let configs_n = float_of_int (List.length configs) in
    report_self_times ~clients:1 ~n_ops:(List.length (List.concat traced)) ~window_s
      ~moves:
        [
          ("validate", "profiler", passes *. !profile_s);
          ("validate", "core", passes *. sum !ps /. jobs_eff);
          ("validate", "sim", passes *. sum !ss /. jobs_eff);
          ("profiler", "workload", passes *. gen_s);
          ("sim", "workload", passes *. gen_s *. configs_n /. jobs_eff);
        ]
  end

(* ------------------------------------------------------------------ *)
(* serve-mix *)

(* Twelve profiles against the daemon's default 8-entry cache: the
   first six are hot (most predicts), the rest are touched rarely, so
   they miss, evict and are re-loaded by the client.

   The traffic mix is an assumption, not taken from any trace of real
   use: 2% of requests are 243-point sweeps, 0.5% are predicts on a
   cold profile (each one a miss, an eviction and a client re-load), the
   rest predicts on the hot profiles; configs are drawn uniformly from
   the default space.  The cold share is high enough for the load path
   to see several hundred requests in a 20 s window.  Each run prints
   the shares it measured (serve.sweep_share, serve.cold_share,
   serve.reload_share). *)
let serve_profiles =
  [ "gcc"; "mcf"; "milc"; "gobmk"; "povray"; "bzip2";
    "astar"; "lbm"; "hmmer"; "namd"; "sjeng"; "h264ref" ]

let serve_hot = 6
let serve_instructions = 50_000
let serve_clients = min 2 nproc

(* The daemon's accept domain plus its workers, as many as nproc: a
   domain more would stall the others at every stop-the-world minor
   collection while it waits for a core. *)
let serve_workers = max 1 (nproc - 1)

(* Every [sweep_every]-th request of a client is a sweep and every
   [cold_every]-th a predict on a cold profile (round-robin over the cold
   set, so each one misses): fixed shares, so the count of evictions in
   a run does not vary by chance.  Configs and hot profiles are drawn
   from the seed. *)
let sweep_every = 50
let cold_every = 200
let timeout_ms = 2000

(* The daemon's peak resident set is read after this many requests of
   the first client (or at the end of a shorter window): its heap grows
   with every re-load, so a peak over the whole window would rise with
   speed. *)
let rss_after_requests = 20_000
let reply_sample_every = 64

(* Client re-loads of an evicted profile, over the whole run. *)
let reloads = Atomic.make 0

type daemon = { pid : int; sock : string }

let live_daemons : daemon list ref = ref []

let reap pid ~grace =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop_daemon d =
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d.pid ~grace:10.0;
  if Sys.file_exists d.sock then Sys.remove d.sock

let () = at_exit (fun () -> List.iter stop_daemon !live_daemons)

let start_daemon a =
  let sock = Filename.concat a.work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let log =
    Unix.openfile (Filename.concat a.work_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process a.mipp
      [| a.mipp; "serve"; "--socket"; sock; "--workers"; string_of_int serve_workers |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; sock } in
  live_daemons := d :: !live_daemons;
  let deadline = now () +. 30.0 in
  let rec wait () =
    let up =
      match Client.connect_unix sock with
      | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Result.is_ok (Client.ping c))
      | Error _ -> false
    in
    if not up then begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         live_daemons := List.filter (fun x -> x.pid <> pid) !live_daemons;
         failwith "mipp serve exited during start-up");
      if now () > deadline then failwith "mipp serve did not answer a ping in 30 s";
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  d

type serve_state = {
  daemon : daemon;
  clients : Client.t array;
  bytes : string array;  (** binary profile bytes, by profile index *)
  keys : string array;  (** the daemon's content keys *)
}

let default_names = Array.of_list (List.map (fun u -> u.Uarch.name) default_configs)

(* The fault a daemon answers for a profile it has evicted; it crosses
   the wire as a line, so match on its text. *)
let is_unknown_profile f =
  let msg = Fault.to_string f and pat = "unknown profile" in
  let n = String.length msg and m = String.length pat in
  let rec at i = i + m <= n && (String.sub msg i m = pat || at (i + 1)) in
  match f with Fault.Bad_input _ -> at 0 | _ -> false

(* Run [rpc] against profile [pi]; a profile evicted from the daemon's
   cache is re-loaded and the request retried once, as `mipp query`
   users do. *)
let with_reload st c ~parent pi rpc =
  match rpc st.keys.(pi) with
  | Error f when is_unknown_profile f -> (
    Atomic.incr reloads;
    match span ~parent "serve.load" (fun _ -> Client.load c st.bytes.(pi)) with
    | Ok _ -> rpc st.keys.(pi)
    | Error f -> Error f)
  | r -> r

let predict_rpc st c ~parent pi ci =
  with_reload st c ~parent pi (fun key ->
      span ~parent "serve.predict" (fun _ ->
          Client.predict c ~timeout_ms ~profile:key ~config:default_names.(ci) ()))

(* The in-process recomputation of one predict reply from the same
   profile bytes, compared bit for bit. *)
let reply_matches parsed pi ci (r : Client.prediction) =
  let p = Lazy.force parsed.(pi) in
  let u = List.nth default_configs ci in
  let pred = Interval_model.predict u p in
  let e = Sweep.of_prediction u ~index:0 pred in
  let stack =
    List.map (fun (k, v) -> (Cpi_stack.to_string k, v))
      (Cpi_stack.to_alist (Interval_model.cpi_stack pred))
  in
  same_float r.pr_cpi e.sw_cpi && same_float r.pr_cycles e.sw_cycles
  && same_float r.pr_watts e.sw_watts && same_float r.pr_seconds e.sw_seconds
  && same_float r.pr_energy_j e.sw_energy_j && same_float r.pr_ed2p e.sw_ed2p
  && List.length stack = List.length r.pr_stack
  && List.for_all2 (fun (k, v) (k', v') -> k = k' && same_float v v') stack r.pr_stack

let reply_line (r : Client.prediction) =
  String.concat " "
    (List.map hex
       ([ r.pr_cpi; r.pr_cycles; r.pr_watts; r.pr_seconds; r.pr_energy_j; r.pr_ed2p ]
       @ List.map snd r.pr_stack))

type client_result = {
  latencies : float list;
  samples : (int * int * Client.prediction) list;
  queue_depths : int list;
  sweeps : int;
  colds : int;  (** predicts on a cold profile *)
}

let health_int c k =
  match Client.health c with
  | Ok kv -> Option.value ~default:0 (Option.bind (List.assoc_opt k kv) int_of_string_opt)
  | Error _ -> 0

(* One closed-loop client: issue the next request when the previous
   reply arrives, until [deadline]. *)
let client_loop st ~tid ~seed ~deadline ~sample_queue =
  let c = st.clients.(tid) in
  let rng = Random.State.make [| seed; tid |] in
  let lat = ref [] and samples = ref [] and depths = ref [] and n = ref 0 in
  let sweeps = ref 0 and colds = ref 0 in
  while now () < deadline do
    incr n;
    if tid = 0 && !n = rss_after_requests then rss_mark := peak_rss_mb (string_of_int st.daemon.pid);
    let t0 = now () in
    let ok =
      span "bench.op" (fun op ->
          if !n mod sweep_every = 0 then begin
            incr sweeps;
            let pi = Random.State.int rng serve_hot in
            match
              with_reload st c ~parent:op pi (fun key ->
                  span ~parent:op "serve.sweep" (fun _ ->
                      Client.sweep c ~timeout_ms ~profile:key ~space:"default" ~offset:0
                        ~limit:(Array.length default_names) ()))
            with
            | Ok (points, faulted) ->
              faulted = 0 && List.length points = Array.length default_names
            | Error _ -> false
          end
          else begin
            let pi =
              if !n mod cold_every = 7 + (tid * cold_every / 2) then begin
                incr colds;
                (* The clients walk the cold set half a turn apart, so
                   neither finds the profile the other just re-loaded. *)
                let n_cold = List.length serve_profiles - serve_hot in
                serve_hot + ((!n / cold_every) + (tid * n_cold / 2)) mod n_cold
              end
              else Random.State.int rng serve_hot
            in
            let ci = Random.State.int rng (Array.length default_names) in
            match predict_rpc st c ~parent:op pi ci with
            | Ok r ->
              if !n mod reply_sample_every = 0 then samples := (pi, ci, r) :: !samples;
              true
            | Error _ -> false
          end)
    in
    let dt = now () -. t0 in
    (* A failed or refused request counts as missing the deadline. *)
    lat := (if ok then dt else Float.max dt (float_of_int timeout_ms /. 1000.0)) :: !lat;
    count ~failures:(if ok then 0 else 1) 1;
    if sample_queue && !n mod 256 = 0 then
      depths := span "serve.health" (fun _ -> health_int c "queue_depth") :: !depths
  done;
  { latencies = !lat; samples = !samples; queue_depths = !depths; sweeps = !sweeps; colds = !colds }

let serve_mix a =
  let specs = List.map Benchmarks.find serve_profiles in
  let teardown st =
    Array.iter Client.close st.clients;
    stop_daemon st.daemon
  in
  let setup () =
    let daemon = start_daemon a in
    let bytes =
      Array.of_list
        (List.map
           (fun spec ->
             let p =
               span "profiler.profile" (fun _ ->
                   Profiler.profile spec ~seed:a.seed ~n_instructions:serve_instructions)
             in
             span "profile_io.encode" (fun _ -> Profile_io.to_binary_string p))
           specs)
    in
    let clients =
      Array.init serve_clients (fun _ -> ok_or_die "connect" (Client.connect_unix daemon.sock))
    in
    (* First loads, cold profiles first so the hot ones start resident. *)
    let order = List.init (Array.length bytes) (fun i -> (i + serve_hot) mod Array.length bytes) in
    let keys = Array.make (Array.length bytes) "" in
    List.iter (fun i -> keys.(i) <- ok_or_die "load" (Client.load clients.(0) bytes.(i))) order;
    let st = { daemon; clients; bytes; keys } in
    for pi = 0 to serve_hot - 1 do
      ignore (ok_or_die "warm predict" (predict_rpc st clients.(0) ~parent:0 pi 0))
    done;
    st
  in
  let st = measured_setup ~cpu_of:(fun st -> cpu_of_pid st.daemon.pid) ~setup ~teardown () in
  (* The measured traffic mix, over every window of the run. *)
  let requests = ref 0 and sweeps = ref 0 and colds = ref 0 and reloaded = ref 0 in
  (* The clients' results, the window's length and the CPU seconds the
     clients and the daemon spent in it. *)
  let window ~seconds ~sample_queue =
    let cpu () = cpu_self () +. cpu_of_pid st.daemon.pid in
    let c0 = cpu () in
    let t0 = now () and reloads0 = Atomic.get reloads in
    let deadline = t0 +. seconds in
    let results = Array.make serve_clients None in
    let threads =
      List.init serve_clients (fun tid ->
          Thread.create
            (fun () ->
              results.(tid) <- Some (client_loop st ~tid ~seed:a.seed ~deadline ~sample_queue))
            ())
    in
    List.iter Thread.join threads;
    let window_s = now () -. t0 and cpu_s = cpu () -. c0 in
    let results = Array.to_list (Array.map Option.get results) in
    List.iter
      (fun r ->
        requests := !requests + List.length r.latencies;
        sweeps := !sweeps + r.sweeps;
        colds := !colds + r.colds)
      results;
    reloaded := !reloaded + Atomic.get reloads - reloads0;
    let share name n = note name "frac" (float_of_int n /. float_of_int !requests) in
    share "serve.sweep_share" !sweeps;
    share "serve.cold_share" !colds;
    share "serve.reload_share" !reloaded;
    (results, window_s, cpu_s)
  in
  let parsed =
    Array.map (fun b -> lazy (ok_or_die "in-process decode" (Profile_io.of_string b))) st.bytes
  in
  let verify results =
    List.iter
      (fun r ->
        List.iter
          (fun (pi, ci, reply) ->
            check "serve: predict reply bit-equal to in-process predict"
              (reply_matches parsed pi ci reply))
          r.samples)
      results
  in
  (* A fixed, seeded set of predicts: the digest and its check. *)
  let fixed_sample () =
    let rng = Random.State.make [| a.seed; 99 |] in
    for _ = 1 to 32 do
      let pi = Random.State.int rng (List.length serve_profiles) in
      let ci = Random.State.int rng (Array.length default_names) in
      match predict_rpc st st.clients.(0) ~parent:0 pi ci with
      | Ok r ->
        check "serve: fixed predict bit-equal to in-process predict" (reply_matches parsed pi ci r);
        digest_add (Printf.sprintf "%d %d %s" pi ci (reply_line r))
      | Error f -> check ("serve: fixed predict: " ^ Fault.to_string f) false
    done
  in
  let mark = host_ticks () in
  let untraced, untraced_s, untraced_cpu = window ~seconds:(untraced_seconds a) ~sample_queue:false in
  let steal = steal_since mark in
  verify untraced;
  let lats = List.concat_map (fun r -> r.latencies) untraced in
  if not a.trace then begin
    if !rss_mark = 0.0 then rss_mark := peak_rss_mb (string_of_int st.daemon.pid);
    fixed_sample ();
    teardown st;
    let n = float_of_int (List.length lats) in
    note "serve_latency_us.p50" "us" (1e6 *. pct lats 50.0);
    note "serve_latency_us.p99" "us" (1e6 *. pct lats 99.0);
    report_end_to_end ~headline:("serve_qps", "1/s", 1.0) ~throughput:(n /. untraced_s)
      ~cpu_throughput:(n /. untraced_cpu) ~latencies_s:lats ~rss:!rss_mark ~steal
  end
  else begin
    Trace.enable ~run:(Printf.sprintf "serve-mix-%d-%d" a.seed (Unix.getpid ()));
    let c0 = st.clients.(0) in
    let h k = health_int c0 k in
    let keys = [ "cache_hits"; "cache_misses"; "cache_evictions"; "shed"; "completed" ] in
    let before = List.map (fun k -> (k, h k)) keys in
    let traced, window_s, _ = window ~seconds:a.seconds ~sample_queue:true in
    let delta = List.map (fun k -> (k, h k - List.assoc k before)) keys in
    verify traced;
    fixed_sample ();
    teardown st;
    let tlats = List.concat_map (fun r -> r.latencies) traced in
    report_overhead ~untraced:lats ~traced:tlats;
    let us name = List.map (fun s -> 1e6 *. s) (Trace.durations name) in
    let rtt = us "serve.predict" in
    metric "serve.predict_rtt_us.p50" "us" (pct rtt 50.0);
    metric "serve.predict_rtt_us.p99" "us" (pct rtt 99.0);
    metric "serve.sweep_rtt_us.p50" "us" (pct (us "serve.sweep") 50.0);
    metric "serve.sweep_rtt_us.p99" "us" (pct (us "serve.sweep") 99.0);
    metric "serve.load_rtt_us.p50" "us" (pct (us "serve.load") 50.0);
    let d k = float_of_int (List.assoc k delta) in
    metric "serve.cache_hits" "count" (d "cache_hits");
    metric "serve.cache_misses" "count" (d "cache_misses");
    metric "serve.cache_evictions" "count" (d "cache_evictions");
    let lookups = d "cache_hits" +. d "cache_misses" in
    metric "serve.cache_hit_ratio" "frac" (if lookups > 0.0 then d "cache_hits" /. lookups else 0.0);
    metric "serve.shed" "count" (d "shed");
    metric "serve.completed" "count" (d "completed");
    let depths = List.concat_map (fun r -> List.map float_of_int r.queue_depths) traced in
    metric "serve.queue_depth" "count" (if depths = [] then 0.0 else sum depths /. float_of_int (List.length depths));
    (* The same profiles and configs, predicted in process. *)
    let rng = Random.State.make [| a.seed; 7 |] in
    let pairs =
      List.init 2048 (fun _ ->
          let pi = Random.State.int rng serve_hot in
          (List.nth default_configs (Random.State.int rng (Array.length default_names)),
           Lazy.force parsed.(pi)))
    in
    Array.iter (fun l -> if Lazy.is_val l then Profile.prepare (Lazy.force l)) parsed;
    let ps, es = span "bench.probe" (fun parent -> probe_predict ~parent pairs) in
    report_predict ~estimate_s:es ps;
    metric "serve.overhead_us" "us" (pct rtt 50.0 -. (1e6 *. median ps));
    (* The set-up's profiling, again as probes, through the binary
       round trip the daemon's loads decode. *)
    let microtraces = ref 0 and constructions = ref [] in
    span "bench.probe" (fun parent ->
        List.iter
          (fun spec ->
            let p, _, made = profile_roundtrip ~parent spec ~seed:a.seed ~n:serve_instructions in
            microtraces := !microtraces + Array.length p.Profile.p_microtraces;
            constructions := float_of_int made :: !constructions;
            Profile.clear_stack_memo ())
          specs);
    metric "statstack.constructions" "count" (median !constructions);
    report_profiler ~instructions:serve_instructions ~microtraces:!microtraces;
    report_profile_io ~bytes:(Array.fold_left (fun n b -> n + String.length b) 0 st.bytes);
    report_self_times ~clients:serve_clients ~n_ops:(List.length tlats) ~window_s ~moves:[]
  end

(* ------------------------------------------------------------------ *)
(* Main *)

let workloads =
  [ ("explore", explore); ("profile-suite", profile_suite); ("serve-mix", serve_mix);
    ("validate", validate) ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let a = args in
  let run =
    match List.assoc_opt a.workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" a.workload;
      exit 2
  in
  if not (Sys.file_exists a.work_dir) then Sys.mkdir a.work_dir 0o755;
  run a;
  let serve = a.workload = "serve-mix" in
  Printf.printf
    "machine {\"nproc\": %d, \"cpus_allowed\": %s, \"jobs\": %d, \"client_threads\": %d, \
     \"connections\": %d, \"daemon_workers\": %s, \"ocaml\": %s, \"commit\": %s, \
     \"source_digest\": %s}\n"
    nproc
    (Trace.json_string (Option.value ~default:"" (proc_status "self" "Cpus_allowed_list")))
    jobs
    (if serve then serve_clients else 1)
    (if serve then serve_clients else 0)
    (if serve then string_of_int serve_workers else "null")
    (Trace.json_string Sys.ocaml_version) (Trace.json_string a.commit)
    (Trace.json_string a.source_digest);
  Printf.printf "digest %s\n" (Digest.to_hex (Digest.string (Buffer.contents digest_buf)));
  let att = Atomic.get attempted and fl = Atomic.get failed in
  Printf.printf "metric failed_frac %.17g frac\n"
    (if att = 0 then 0.0 else float_of_int fl /. float_of_int att);
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %.17g %s\n" n v u) (List.rev !notes);
  let reported =
    if a.trace then begin
      let path =
        Filename.concat a.work_dir (Printf.sprintf "trace-%s-%d.json" a.workload a.seed)
      in
      metric "trace.spans" "count" (float_of_int (List.length (Trace.spans ())));
      Trace.write path;
      Printf.printf "trace %s\n" path;
      List.map
        (fun (n, u) ->
          match List.find_opt (fun (n', _, _) -> n' = n) !metrics with
          | Some m -> m
          | None -> (n, 0.0, u))
        layer_metrics
    end
    else List.rev !metrics
  in
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %.17g %s\n" n v u) reported;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (fl = 0 && att > 0) att fl
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string n)
              (json_number v) (Trace.json_string u))
          reported))
