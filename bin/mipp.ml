(* mipp — command-line front-end to the modeling framework.

   Subcommands:
     list                          available benchmarks and design axes
     profile   -b BENCH            profile and print the summary
     predict   -b BENCH [-c CFG]   analytical performance + power prediction
     simulate  -b BENCH [-c CFG]   cycle-level simulation (the ground truth)
     compare   -b BENCH [-c CFG]   model vs simulator at one design point
     sweep     -b BENCH            streamed design-space sweep + Pareto front
     multicore -w A,B              multi-core prediction with shared LLC
     validate  [-b BENCH]...       model vs simulator over a design matrix:
                                   CPI and power errors, gated on CPI MAPE
                                   (every benchmark when none is named)
     calibrate train|eval|apply|suggest
                                   grey-box calibration on a validate matrix
     serve / query                 profile-caching daemon and its client *)

open Cmdliner

let bench_arg =
  let doc = "Benchmark name (see `mipp list`)." in
  Arg.(value & opt string "gcc" & info [ "b"; "benchmark" ] ~docv:"BENCH" ~doc)

let instructions_arg =
  let doc = "Instructions to profile/simulate." in
  Arg.(value & opt int 200_000 & info [ "n"; "instructions" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Workload generation seed." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let config_arg =
  let doc =
    "Micro-architecture: 'reference', 'low-power', or a design-space name like \
     'w4-rob128-l1_32k-l2_256k-l3_8m'."
  in
  Arg.(value & opt string "reference" & info [ "c"; "config" ] ~docv:"CFG" ~doc)

let prefetch_arg =
  let doc = "Enable the stride prefetcher." in
  Arg.(value & flag & info [ "prefetch" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the design-space sweep (1 = sequential; results are \
     bit-identical for any value)."
  in
  Arg.(
    value
    & opt int (Parallel.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let output_arg =
  let doc = "Write the profile to this file (AIP-style: profile once, model many)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let profile_file_arg =
  let doc = "Load a previously saved profile instead of re-profiling." in
  Arg.(value & opt (some string) None & info [ "p"; "profile-file" ] ~docv:"FILE" ~doc)

(* Exit codes: 0 success, 1 partial failure (sweep with faulted points),
   2 bad input.  [or_die] is the single funnel for bad input: every
   user-supplied name, file and config goes through a [Fault]-typed
   result and dies here with one uniform diagnostic. *)
let exit_partial_failure = 1
let exit_bad_input = 2

let or_die = function
  | Ok v -> v
  | Error ft ->
    Printf.eprintf "mipp: %s\n" (Fault.to_string ft);
    exit exit_bad_input

let find_bench name =
  match Benchmarks.find_opt name with
  | Some spec -> spec
  | None ->
    or_die
      (Error
         (Fault.bad_input ~context:"benchmark"
            (Printf.sprintf "unknown benchmark %S; run `mipp list`" name)))

let spec_file_arg =
  let doc =
    "Load the workload from a spec file (see lib/workload/workload_parser.mli \
     for the format) instead of using a built-in benchmark."
  in
  Arg.(value & opt (some string) None & info [ "spec-file" ] ~docv:"FILE" ~doc)

let find_workload bench = function
  | None -> find_bench bench
  | Some path -> or_die (Workload_parser.load path)

let obtain_profile ~bench ~n ~seed = function
  | Some path -> or_die (Profile_io.load path)
  | None -> Profiler.profile (find_bench bench) ~seed ~n_instructions:n

let find_config name = or_die (Uarch.of_name name)

(* A long checkpointed run killed by SIGTERM/SIGINT should leave a
   durable log: flush every open checkpoint, then die with the
   conventional 128+signal status.  Only installed when a checkpoint is
   actually in play — an uncheckpointed run keeps the default
   die-immediately behavior. *)
let install_checkpoint_flush ~checkpoint =
  if checkpoint <> None then
    List.iter
      (fun signo ->
        ignore
          (Sys.signal signo
             (Sys.Signal_handle
                (fun signo ->
                  Checkpoint.sync_all ();
                  (* Sys.sigterm/sigint are OCaml's internal (negative)
                     numbers; exit with the conventional 128 + OS number. *)
                  exit (if signo = Sys.sigint then 130 else 143)))))
      [ Sys.sigterm; Sys.sigint ]

let print_config u =
  Table.print ~header:[ "parameter"; "value" ]
    ~rows:(List.map (fun (k, v) -> [ k; v ]) (Uarch.describe u))

(* ---- list ---- *)

let list_cmd =
  let run () =
    print_endline "Benchmarks (synthetic SPEC CPU 2006 stand-ins):";
    List.iter
      (fun n -> Printf.printf "  %-11s %s\n" n (Benchmarks.describe n))
      Benchmarks.names;
    print_endline "\nDesign-space axes (Table 6.3):";
    List.iter
      (fun (axis, values) ->
        Printf.printf "  %-18s %s\n" axis (String.concat ", " values))
      Uarch.design_space_axes;
    Printf.printf "\n%d design points; named configs: reference, low-power\n"
      (List.length Uarch.design_space)
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and design points")
    Term.(const run $ const ())

(* ---- profile ---- *)

let profile_jobs_arg =
  let doc =
    "Worker domains for sharded profiling (1 = the sequential profiler, \
     bit-identical to earlier releases)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let warmup_arg =
  let doc =
    "Warm-up instructions run before each shard's region to prime reuse \
     tables and branch histories (bounds the cold-miss inflation at shard \
     boundaries; only used when --jobs > 1)."
  in
  Arg.(
    value & opt int Profiler.default_warmup & info [ "warmup" ] ~docv:"N" ~doc)

let profile_cmd =
  let run bench n seed output spec_file jobs warmup =
    let spec = find_workload bench spec_file in
    let t0 = Clock.now () in
    let p = Profiler.profile spec ~jobs ~warmup ~seed ~n_instructions:n in
    let dt = Clock.now () -. t0 in
    (match output with
    | Some path ->
      Profile_io.save path p;
      Printf.printf "profile written to %s\n" path
    | None -> ());
    Table.section
      (Printf.sprintf "Profile of %s (%d instructions, %.2fs)"
         spec.Workload_spec.wname n dt);
    let mix = Profile.total_mix p in
    let total = float_of_int (Isa.Class_counts.total mix) in
    Table.print ~header:[ "metric"; "value" ]
      ~rows:
        ([
           [ "micro-traces"; string_of_int (Array.length p.p_microtraces) ];
           [ "micro-ops / instruction"; Table.fmt_f p.p_uops_per_instruction ];
           [ "branch entropy"; Table.fmt_f p.p_entropy ];
           [ "branch fraction"; Table.fmt_pct p.p_branch_fraction ];
           [ "cold access rate"; Table.fmt_pct (Profile.cold_miss_rate p) ];
           [ "AP(128)"; Table.fmt_f (Profile.mean_chain p ~which:`Ap ~rob:128) ];
           [ "ABP(128)"; Table.fmt_f (Profile.mean_chain p ~which:`Abp ~rob:128) ];
           [ "CP(128)"; Table.fmt_f (Profile.mean_chain p ~which:`Cp ~rob:128) ];
         ]
        @ List.filter_map
            (fun cls ->
              let c = Isa.Class_counts.get mix cls in
              if c = 0 then None
              else
                Some
                  [
                    "mix: " ^ Isa.class_to_string cls;
                    Table.fmt_pct (float_of_int c /. total);
                  ])
            Isa.all_classes)
  in
  Cmd.v (Cmd.info "profile" ~doc:"Profile a workload (micro-architecture independent)")
    Term.(const run $ bench_arg $ instructions_arg $ seed_arg $ output_arg
          $ spec_file_arg $ profile_jobs_arg $ warmup_arg)

(* ---- predict / simulate / compare ---- *)

let prediction_rows (pred : Interval_model.prediction) breakdown =
  let cpi = Interval_model.cpi pred in
  [
    [ "CPI"; Table.fmt_f cpi ];
    [ "cycles"; Table.fmt_f ~decimals:0 pred.pr_cycles ];
    [ "MLP"; Table.fmt_f pred.pr_mlp ];
    [ "power (W)"; Table.fmt_f ~decimals:1 breakdown.Power.total_watts ];
  ]
  @ List.map
      (fun (name, v) -> [ "CPI: " ^ name; Table.fmt_f (v /. pred.pr_instructions) ])
      (Interval_model.components_list pred.pr_components)

let predict_cmd =
  let run bench n seed config prefetch profile_file =
    let u = find_config config in
    let u = if prefetch then Uarch.with_prefetcher u true else u in
    let p = obtain_profile ~bench ~n ~seed profile_file in
    let t0 = Clock.now () in
    let pred = Interval_model.predict u p in
    let dt = Clock.now () -. t0 in
    let breakdown = Power.estimate u pred.pr_activity in
    Table.section
      (Printf.sprintf "Prediction: %s on %s (%.0f ms model time)" bench u.name
         (1000.0 *. dt));
    print_config u;
    print_newline ();
    Table.print ~header:[ "metric"; "value" ] ~rows:(prediction_rows pred breakdown)
  in
  Cmd.v (Cmd.info "predict" ~doc:"Analytical performance and power prediction")
    Term.(const run $ bench_arg $ instructions_arg $ seed_arg $ config_arg
          $ prefetch_arg $ profile_file_arg)

let sim_rows (r : Sim_result.t) breakdown =
  [
    [ "CPI"; Table.fmt_f (Sim_result.cpi r) ];
    [ "cycles"; string_of_int r.r_cycles ];
    [ "MLP (measured)"; Table.fmt_f r.r_mlp ];
    [ "branch MPKI"; Table.fmt_f (Sim_result.branch_mpki r) ];
    [ "L1/L2/L3 load MPKI";
      Printf.sprintf "%s / %s / %s"
        (Table.fmt_f ~decimals:1 (Sim_result.mpki r `L1))
        (Table.fmt_f ~decimals:1 (Sim_result.mpki r `L2))
        (Table.fmt_f ~decimals:1 (Sim_result.mpki r `L3)) ];
    [ "power (W)"; Table.fmt_f ~decimals:1 breakdown.Power.total_watts ];
  ]
  @ List.map
      (fun (name, v) ->
        [ "CPI: " ^ name; Table.fmt_f (v /. float_of_int r.r_instructions) ])
      (Sim_result.stack_components r.r_stack)

let simulate_cmd =
  let run bench n seed config prefetch spec_file =
    let spec = find_workload bench spec_file in
    let u = find_config config in
    let u = if prefetch then Uarch.with_prefetcher u true else u in
    let t0 = Clock.now () in
    let r = Simulator.run u spec ~seed ~n_instructions:n in
    let dt = Clock.now () -. t0 in
    let breakdown = Power.estimate u r.r_activity in
    Table.section
      (Printf.sprintf "Simulation: %s on %s (%.2fs, %.0f kIPS)"
         spec.Workload_spec.wname u.name dt
         (float_of_int r.r_instructions /. dt /. 1000.0));
    Table.print ~header:[ "metric"; "value" ] ~rows:(sim_rows r breakdown)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Cycle-level reference simulation")
    Term.(const run $ bench_arg $ instructions_arg $ seed_arg $ config_arg
          $ prefetch_arg $ spec_file_arg)

let compare_cmd =
  let run bench n seed config prefetch spec_file =
    let spec = find_workload bench spec_file in
    let u = find_config config in
    let u = if prefetch then Uarch.with_prefetcher u true else u in
    let r = Simulator.run u spec ~seed ~n_instructions:n in
    let p = Profiler.profile spec ~seed ~n_instructions:n in
    let pred = Interval_model.predict u p in
    let scpi = Sim_result.cpi r and mcpi = Interval_model.cpi pred in
    let spow = (Power.estimate u r.r_activity).total_watts in
    let mpow = (Power.estimate u pred.pr_activity).total_watts in
    Table.section
      (Printf.sprintf "Model vs simulator: %s on %s" spec.Workload_spec.wname u.name);
    Table.print
      ~header:[ "metric"; "model"; "simulator"; "error" ]
      ~rows:
        [
          [ "CPI"; Table.fmt_f mcpi; Table.fmt_f scpi;
            Table.fmt_pct (Stats.relative_error ~predicted:mcpi ~reference:scpi) ];
          [ "power (W)"; Table.fmt_f ~decimals:1 mpow; Table.fmt_f ~decimals:1 spow;
            Table.fmt_pct (Stats.relative_error ~predicted:mpow ~reference:spow) ];
          [ "MLP"; Table.fmt_f pred.pr_mlp; Table.fmt_f r.r_mlp; "" ];
        ]
  in
  Cmd.v (Cmd.info "compare" ~doc:"Model prediction vs cycle-level simulation")
    Term.(const run $ bench_arg $ instructions_arg $ seed_arg $ config_arg
          $ prefetch_arg $ spec_file_arg)

(* ---- multicore ---- *)

let multicore_cmd =
  let benches_arg =
    let doc = "Comma-separated benchmarks, one per core (e.g. milc,gamess)." in
    Arg.(value & opt string "milc,gamess" & info [ "w"; "workloads" ] ~docv:"LIST" ~doc)
  in
  let run benches n seed =
    let names = String.split_on_char ',' benches |> List.filter (fun s -> s <> "") in
    if List.length names < 2 then begin
      Printf.eprintf "need at least two workloads\n";
      exit 2
    end;
    let specs = List.map find_bench names in
    let profiles =
      List.mapi
        (fun i (name, spec) ->
          (name, Profiler.profile spec ~seed:(seed + i) ~n_instructions:n))
        (List.combine names specs)
    in
    let preds = Multicore_model.predict Uarch.reference profiles in
    let sims =
      Simulator.run_shared Uarch.reference
        (List.mapi (fun i spec -> (spec, seed + i)) specs)
        ~n_instructions:n
    in
    let solos =
      List.mapi
        (fun i spec -> Simulator.run Uarch.reference spec ~seed:(seed + i)
            ~n_instructions:n)
        specs
    in
    Table.section
      (Printf.sprintf "%d cores sharing one LLC and memory bus" (List.length names));
    Table.print
      ~header:
        [ "core"; "model slowdown"; "sim slowdown"; "model LLC share";
          "shared CPI (sim)" ]
      ~rows:
        (List.map2
           (fun (pred : Multicore_model.core_prediction)
                ((shared : Sim_result.t), (solo : Sim_result.t)) ->
             [
               pred.mc_workload;
               Table.fmt_f ~decimals:2 pred.mc_slowdown;
               Table.fmt_f ~decimals:2
                 (float_of_int shared.r_cycles /. float_of_int solo.r_cycles);
               Table.fmt_pct pred.mc_l3_share;
               Table.fmt_f (Sim_result.cpi shared);
             ])
           preds
           (List.combine sims solos))
  in
  Cmd.v
    (Cmd.info "multicore"
       ~doc:"Multi-core sharing: analytical model vs lockstep simulator")
    Term.(const run $ benches_arg $ instructions_arg $ seed_arg)

(* ---- sweep ---- *)

let checkpoint_arg =
  let doc =
    "Append evaluated design points to $(docv) (CRC-per-line, group-commit) \
     and resume from it: points already in the log are not re-evaluated, so \
     re-running a killed sweep with the same $(docv) finishes it with \
     results bit-identical to an uninterrupted run."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let keep_going_arg =
  let doc =
    "Evaluate every design point even when some fail; failed points are \
     reported and the exit code is 1.  Without this flag the sweep stops at \
     the first failure."
  in
  Arg.(value & flag & info [ "keep-going" ] ~doc)

let space_arg =
  let doc =
    "Design space to sweep: 'default' (the 243 points of Table 6.3) or \
     'large' (the 1,451,520-point generation-scale space)."
  in
  Arg.(value & opt string "default" & info [ "space" ] ~docv:"SPACE" ~doc)

let limit_arg =
  let doc =
    "Sweep at most $(docv) design points (combine with --offset to shard a \
     space across machines)."
  in
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)

let offset_arg =
  let doc = "Start the sweep at design-point index $(docv)." in
  Arg.(value & opt (some int) None & info [ "offset" ] ~docv:"K" ~doc)

let block_size_arg =
  let doc =
    "Points per block: the unit of parallel fan-out, checkpointing and \
     resume."
  in
  Arg.(value & opt (some int) None & info [ "block-size" ] ~docv:"B" ~doc)

let calibrate_file_arg =
  let doc =
    "Apply a trained calibration model (written by `mipp calibrate train`) \
     to every analytical prediction."
  in
  Arg.(value & opt (some string) None & info [ "calibrate" ] ~docv:"FILE" ~doc)

let load_adjust =
  Option.map (fun path -> Calibrate.adjust (or_die (Calibrate.load path)))

let refine_arg =
  let doc =
    "Pareto-guided hierarchical refinement: evaluate a coarse axis-subgrid, \
     then refine around the front until it stabilizes — thousands of points \
     instead of the whole space.  The front is approximate (the exhaustive \
     front's sensitivity/specificity/HVR are validated >= 0.95 in the test \
     suite)."
  in
  Arg.(value & flag & info [ "refine" ] ~doc)

let run_refine_sweep ~space ~profile:p ~jobs ~adjust =
  let t0 = Clock.now () in
  let r = or_die (Refine.model_refine ~jobs ?adjust ~profile:p space) in
  let dt = Clock.now () -. t0 in
  Table.section
    (Printf.sprintf
       "Refined sweep: %s over %s (%d of %d points in %d rounds, %d failed, \
        %.2fs)"
       p.Profile.p_workload (Config_space.name space) r.Refine.rf_evaluated
       (Config_space.size space) r.rf_rounds r.rf_failed dt);
  Table.print
    ~header:[ "Pareto design"; "time (ms)"; "power (W)"; "CPI" ]
    ~rows:
      (List.map
         (fun (e : Sweep.eval) ->
           [
             e.Sweep.sw_config.name;
             Table.fmt_f ~decimals:2 (1000.0 *. e.sw_seconds);
             Table.fmt_f ~decimals:1 e.sw_watts;
             Table.fmt_f e.sw_cpi;
           ])
         r.rf_front_evals);
  if r.rf_failed > 0 then exit exit_partial_failure

let run_stream_sweep ~space ~profile:p ~jobs ~adjust ~checkpoint ~keep_going
    ~offset ~limit ~block_size =
  (* Every fault of this run, printed in index order once it ends;
     resumed blocks carry only their fault counts. *)
  let faults = ref [] and lock = Mutex.create () in
  let on_point i = function
    | Ok _ -> ()
    | Error ft -> Mutex.protect lock (fun () -> faults := (i, ft) :: !faults)
  in
  let t0 = Clock.now () in
  let s =
    or_die
      (Sweep.model_sweep_stream ~jobs ?adjust ?checkpoint ?block_size
         ~keep_going ~on_point ?offset ?length:limit ~profile:p space)
  in
  let dt = Clock.now () -. t0 in
  let faults = List.sort (fun (i, _) (j, _) -> compare i j) !faults in
  List.iter
    (fun (i, ft) ->
      Printf.eprintf "mipp: design point %d failed: %s\n" i
        (Fault.to_string ft))
    faults;
  if s.Sweep.ss_failed > List.length faults then
    Printf.eprintf "mipp: %d more design points failed in resumed blocks\n"
      (s.ss_failed - List.length faults);
  let fresh = s.ss_evaluated_blocks * s.ss_block_size in
  Table.section
    (Printf.sprintf
       "Design-space sweep: %s over %s[%d, %d) (%d ok / %d failed%s in %.2fs, \
        %d jobs, %.0f points/s)"
       p.Profile.p_workload (Config_space.name space) s.ss_offset
       (s.ss_offset + s.ss_length) s.ss_ok s.ss_failed
       (if s.ss_resumed_blocks > 0 then
          Printf.sprintf ", %d/%d blocks resumed" s.ss_resumed_blocks
            s.ss_n_blocks
        else "")
       dt jobs
       (if dt > 0.0 then float_of_int (min fresh s.ss_length) /. dt else 0.0));
  if s.ss_ok > 0 then begin
    let mean sum = sum /. float_of_int s.ss_ok in
    Printf.printf "  mean CPI %.3f, mean power %.1f W\n"
      (mean s.ss_sum_cpi) (mean s.ss_sum_watts);
    let best label fmt = function
      | Some (id, v) ->
        let cfg = Config_space.config_of_index space id in
        Printf.printf "  best %-9s %s  (%s)\n" label (fmt v) cfg.Uarch.name
      | None -> ()
    in
    best "time" (fun v -> Printf.sprintf "%.2f ms" (1000.0 *. v))
      s.ss_best_seconds;
    best "energy" (fun v -> Printf.sprintf "%.3f J" v) s.ss_best_energy;
    best "ED^2P" (fun v -> Printf.sprintf "%.3e Js^2" v) s.ss_best_ed2p
  end;
  Table.print
    ~header:[ "Pareto design"; "time (ms)"; "power (W)"; "CPI" ]
    ~rows:
      (List.map
         (fun (e : Sweep.eval) ->
           [
             e.Sweep.sw_config.name;
             Table.fmt_f ~decimals:2 (1000.0 *. e.sw_seconds);
             Table.fmt_f ~decimals:1 e.sw_watts;
             Table.fmt_f e.sw_cpi;
           ])
         s.ss_front_evals);
  if s.ss_failed > 0 || s.ss_skipped_blocks > 0 then exit exit_partial_failure

let sweep_cmd =
  let run bench n seed jobs profile_file calibrate checkpoint keep_going
      space_name limit offset block_size refine =
    install_checkpoint_flush ~checkpoint;
    let p = obtain_profile ~bench ~n ~seed profile_file in
    let space = or_die (Config_space.find space_name) in
    let adjust = load_adjust calibrate in
    if refine then run_refine_sweep ~space ~profile:p ~jobs ~adjust
    else
      run_stream_sweep ~space ~profile:p ~jobs ~adjust ~checkpoint ~keep_going
        ~offset ~limit ~block_size
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Analytical design-space sweep (checkpointable, fault-isolated, \
          constant memory: scales to million-point generated spaces)")
    Term.(const run $ bench_arg $ instructions_arg $ seed_arg $ jobs_arg
          $ profile_file_arg $ calibrate_file_arg $ checkpoint_arg
          $ keep_going_arg $ space_arg $ limit_arg $ offset_arg
          $ block_size_arg $ refine_arg)

(* ---- validate ---- *)

let validate_cmd =
  let vbenches_arg =
    let doc =
      "Benchmark to validate (repeatable; see `mipp list`).  With neither \
       this nor --spec-file, every benchmark of the suite is validated."
    in
    Arg.(
      value & opt_all string [] & info [ "b"; "benchmark" ] ~docv:"BENCH" ~doc)
  in
  let vspec_files_arg =
    let doc =
      "Validate a workload loaded from a spec file (repeatable, combinable \
       with -b)."
    in
    Arg.(value & opt_all string [] & info [ "spec-file" ] ~docv:"FILE" ~doc)
  in
  let matrix_arg =
    let doc =
      "Design matrix: 'quick' (width x ROB, 9 points), 'sim' (width x ROB x \
       L3, 27 points) or 'full' (all 243 design-space points — every point \
       is simulated, so this takes minutes)."
    in
    Arg.(value & opt string "sim" & info [ "matrix" ] ~docv:"MATRIX" ~doc)
  in
  let vinstructions_arg =
    let doc =
      "Instructions to profile and simulate per point.  Each workload's \
       micro-op stream is recorded once and held while its points run: 24 \
       bytes per micro-op, about 28 MB per million gcc instructions."
    in
    Arg.(
      value
      & opt int Validate.default_n_instructions
      & info [ "n"; "instructions" ] ~docv:"N" ~doc)
  in
  let gate_arg =
    let doc =
      "Fail (exit 1) when the aggregate mean absolute CPI error exceeds \
       $(docv) (a fraction: 0.10 = 10%)."
    in
    Arg.(
      value & opt float Validate.default_gate & info [ "gate" ] ~docv:"GATE" ~doc)
  in
  let json_arg =
    let doc = "Write the machine-readable accuracy report (JSON) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let matrix_out_arg =
    let doc =
      "Write the typed training matrix (model and simulator CPI stacks and \
       watts plus workload statistics per point, schema mipp-matrix-v2) to \
       $(docv) — the input `mipp calibrate train --matrix-file` consumes."
    in
    Arg.(value & opt (some string) None & info [ "matrix-out" ] ~docv:"FILE" ~doc)
  in
  let run benches spec_files matrix n seed jobs calibrate checkpoint
      keep_going gate output matrix_out =
    install_checkpoint_flush ~checkpoint;
    let adjust = load_adjust calibrate in
    let matrix = or_die (Validate.matrix_of_string matrix) in
    let configs = Validate.matrix_configs matrix in
    let specs =
      List.map find_bench benches
      @ List.map (fun p -> or_die (Workload_parser.load p)) spec_files
    in
    let specs =
      if specs = [] then List.map Benchmarks.find Benchmarks.names else specs
    in
    (* The checkpoint header names one workload; a shared log across
       workloads would reject every workload but the first. *)
    if checkpoint <> None && List.length specs > 1 then
      or_die
        (Error
           (Fault.bad_input ~context:"validate"
              "--checkpoint requires exactly one workload"));
    let t0 = Clock.now () in
    let reports =
      List.map
        (fun spec ->
          or_die
            (Validate.run_workload ~jobs ?checkpoint ~keep_going ~seed
               ~n_instructions:n ?adjust ~spec configs))
        specs
    in
    let report = Validate.summarize reports in
    Table.section
      (Printf.sprintf
         "Model-vs-simulator validation: %s matrix (%d points x %d workloads \
          in %.2fs, %d jobs)"
         (Validate.matrix_to_string matrix)
         (List.length configs) (List.length specs)
         (Clock.now () -. t0)
         jobs);
    List.iter (Validate.print_workload_report stdout) reports;
    Printf.printf
      "aggregate: %d/%d points ok, mean signed CPI error %+.2f%%, MAPE \
       %.2f%% (gate %.2f%%); power MAPE %.2f%%\n"
      report.Validate.rp_total_ok report.rp_total_points
      (100.0 *. report.rp_mean_signed)
      (100.0 *. report.rp_mape) (100.0 *. gate)
      (100.0 *. report.rp_power_mape);
    Option.iter
      (fun path ->
        or_die (Validate.save_json ~gate path report);
        Printf.printf "wrote %s\n" path)
      output;
    Option.iter
      (fun path ->
        or_die (Validate.save_matrix path (Validate.matrix_of_report report));
        Printf.printf "wrote %s\n" path)
      matrix_out;
    if not (Validate.passes_gate report ~gate) then begin
      Printf.eprintf
        "mipp: accuracy gate failed: MAPE %.2f%% > %.2f%% (or no point \
         succeeded)\n"
        (100.0 *. report.rp_mape) (100.0 *. gate);
      exit exit_partial_failure
    end;
    if report.rp_total_ok < report.rp_total_points then exit exit_partial_failure
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Run the analytical model and the cycle simulator over the same \
          design matrix and diff their CPI stacks and power (fault-isolated, \
          checkpointable; exits 1 on faulted points or a failed CPI accuracy \
          gate)")
    Term.(const run $ vbenches_arg $ vspec_files_arg $ matrix_arg
          $ vinstructions_arg $ seed_arg $ jobs_arg $ calibrate_file_arg
          $ checkpoint_arg $ keep_going_arg $ gate_arg $ json_arg
          $ matrix_out_arg)

(* ---- calibrate ---- *)

let print_set_error label (e : Calibrate.set_error) =
  Printf.printf
    "  %-12s %4d points  MAPE %6.2f%% -> %6.2f%%  max |CPI err| %.4f\n"
    label e.Calibrate.se_n
    (100.0 *. e.se_uncal_mape)
    (100.0 *. e.se_cal_mape)
    e.se_max_abs

let print_evaluation (ev : Calibrate.evaluation) =
  print_set_error "train" ev.Calibrate.ev_train;
  print_set_error "holdout" ev.ev_holdout;
  List.iter (fun (w, e) -> print_set_error ("  " ^ w) e) ev.ev_workloads

let check_calib_gate ~gate (ev : Calibrate.evaluation) =
  if not (Calibrate.passes_gate ev ~gate) then begin
    Printf.eprintf
      "mipp: calibration gate failed: held-out MAPE %.2f%% > %.2f%% (or empty \
       holdout)\n"
      (100.0 *. ev.Calibrate.ev_holdout.se_cal_mape)
      (100.0 *. gate);
    exit exit_partial_failure
  end

let calib_gate_arg =
  let doc =
    "Fail (exit 1) when the held-out calibrated MAPE exceeds $(docv) (a \
     fraction: 0.0433 = 4.33%, half the uncalibrated baseline)."
  in
  Arg.(
    value & opt float Calibrate.default_gate & info [ "gate" ] ~docv:"GATE" ~doc)

let model_file_arg =
  let doc = "Trained calibration model file (mipp-calib-v1)." in
  Arg.(
    required & opt (some string) None & info [ "model" ] ~docv:"FILE" ~doc)

let matrix_file_arg ~doc =
  Arg.(
    required & opt (some string) None & info [ "matrix-file" ] ~docv:"FILE" ~doc)

let calibrate_cmd =
  let model_out_arg =
    let doc = "Write the trained model (mipp-calib-v1) to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let holdout_arg =
    let doc =
      "Held-out fraction of the matrix (deterministic split; the holdout \
       never influences training or the sampler)."
    in
    Arg.(
      value
      & opt float Calibrate.default_options.opt_holdout
      & info [ "holdout" ] ~docv:"FRAC" ~doc)
  in
  let lambda_arg =
    let doc = "Ridge regularization strength." in
    Arg.(
      value
      & opt float Calibrate.default_options.opt_lambda
      & info [ "lambda" ] ~docv:"L" ~doc)
  in
  let rounds_arg =
    let doc = "Boosting rounds per CPI-stack component (0 = ridge only)." in
    Arg.(
      value
      & opt int Calibrate.default_options.opt_rounds
      & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let folds_arg =
    let doc =
      "Cross-validation folds (the fold-model ensemble behind `suggest`)."
    in
    Arg.(
      value
      & opt int Calibrate.default_options.opt_folds
      & info [ "folds" ] ~docv:"K" ~doc)
  in
  let options ~holdout ~lambda ~rounds ~folds =
    {
      Calibrate.default_options with
      opt_holdout = holdout;
      opt_lambda = lambda;
      opt_rounds = rounds;
      opt_folds = folds;
    }
  in
  let train_cmd =
    let run matrix_file model_out holdout lambda rounds folds gate =
      let t0 = Clock.now () in
      let rows = or_die (Validate.load_matrix matrix_file) in
      let options = options ~holdout ~lambda ~rounds ~folds in
      let model, ev = or_die (Calibrate.train ~options rows) in
      Table.section
        (Printf.sprintf
           "Grey-box calibration: %d rows, %d features, %d boosting rounds \
            (%.2fs)"
           (List.length rows) (List.length model.Calibrate.c_feature_names)
           rounds
           (Clock.now () -. t0));
      print_evaluation ev;
      Option.iter
        (fun path ->
          or_die (Calibrate.save path model);
          Printf.printf "wrote %s\n" path)
        model_out;
      check_calib_gate ~gate ev
    in
    Cmd.v
      (Cmd.info "train"
         ~doc:
           "Train the residual calibrator on a model-vs-simulator matrix and \
            report train/held-out error (exit 1 when the held-out gate fails)")
      Term.(const run
            $ matrix_file_arg
                ~doc:
                  "Training matrix (mipp-matrix-v2) to train on, written by \
                   `mipp validate --matrix-out`."
            $ model_out_arg $ holdout_arg $ lambda_arg $ rounds_arg $ folds_arg
            $ calib_gate_arg)
  in
  let eval_cmd =
    let run model matrix_file gate =
      let m = or_die (Calibrate.load model) in
      let rows = or_die (Validate.load_matrix matrix_file) in
      let ev = Calibrate.evaluate m rows in
      Table.section
        (Printf.sprintf "Calibration evaluation: %d rows (all held out)"
           (List.length rows));
      print_evaluation ev;
      check_calib_gate ~gate ev
    in
    Cmd.v
      (Cmd.info "eval"
         ~doc:
           "Evaluate a trained model on an externally supplied matrix (every \
            row treated as held out)")
      Term.(const run $ model_file_arg
            $ matrix_file_arg
                ~doc:"Training matrix (mipp-matrix-v2) to evaluate against."
            $ calib_gate_arg)
  in
  let apply_cmd =
    let run model bench spec_file n seed config prefetch =
      let m = or_die (Calibrate.load model) in
      let spec = find_workload bench spec_file in
      let p = Profiler.profile spec ~seed ~n_instructions:n in
      let u = find_config config in
      let u = if prefetch then Uarch.with_prefetcher u true else u in
      let pred = Interval_model.predict u p in
      let stats = Validate.profile_stats p in
      let stack = Interval_model.cpi_stack pred in
      let cpi = Interval_model.cpi pred in
      let cal_stack, cal_cpi = Calibrate.apply_stack m ~stats u (stack, cpi) in
      Table.section
        (Printf.sprintf "Calibrated prediction: %s on %s"
           p.Profile.p_workload u.Uarch.name);
      Table.print
        ~header:[ "component"; "model CPI"; "calibrated CPI" ]
        ~rows:
          (List.map
             (fun c ->
               [
                 Cpi_stack.to_string c;
                 Table.fmt_f (Cpi_stack.get stack c);
                 Table.fmt_f (Cpi_stack.get cal_stack c);
               ])
             Cpi_stack.all
          @ [ [ "total"; Table.fmt_f cpi; Table.fmt_f cal_cpi ] ])
    in
    Cmd.v
      (Cmd.info "apply"
         ~doc:
           "Apply a trained model to one prediction and show the analytical \
            vs calibrated CPI stack")
      Term.(const run $ model_file_arg $ bench_arg $ spec_file_arg
            $ instructions_arg $ seed_arg $ config_arg $ prefetch_arg)
  in
  let suggest_cmd =
    let count_arg =
      let doc = "Number of design points to suggest." in
      Arg.(value & opt int 5 & info [ "count" ] ~docv:"K" ~doc)
    in
    let run model bench spec_file n seed count =
      let m = or_die (Calibrate.load model) in
      let spec = find_workload bench spec_file in
      let p = Profiler.profile spec ~seed ~n_instructions:n in
      let ranked = Calibrate.suggest m ~profile:p ~n:count Uarch.design_space in
      Table.section
        (Printf.sprintf
           "Active-learning suggestions: %s (fold-model disagreement, holdout \
            points excluded)"
           p.Profile.p_workload);
      Table.print
        ~header:[ "design point"; "disagreement (CPI stdev)" ]
        ~rows:
          (List.map
             (fun (u, score) ->
               [ u.Uarch.name; Printf.sprintf "%.6f" score ])
             ranked)
    in
    Cmd.v
      (Cmd.info "suggest"
         ~doc:
           "Rank un-simulated design points by fold-model disagreement — \
            where the next simulation teaches the calibrator most")
      Term.(const run $ model_file_arg $ bench_arg $ spec_file_arg
            $ instructions_arg $ seed_arg $ count_arg)
  in
  Cmd.group
    (Cmd.info "calibrate"
       ~doc:
         "Grey-box ML calibration of the analytical model against the cycle \
          simulator (train / eval / apply / suggest)")
    [ train_cmd; eval_cmd; apply_cmd; suggest_cmd ]

(* ---- serve / query ---- *)

let socket_arg =
  let doc = "Unix-domain socket path of the serving daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "TCP port on 127.0.0.1 (instead of, or besides, --socket)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let workers_arg =
    let doc = "Worker domains evaluating queries." in
    Arg.(value & opt int Server.default_config.workers
         & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission-queue capacity; requests beyond it are shed with an \
       overload fault (explicit backpressure, never an unbounded backlog)."
    in
    Arg.(value & opt int Server.default_config.queue_capacity
         & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Resident prepared profiles (LRU beyond this)." in
    Arg.(value & opt int Server.default_config.cache_capacity
         & info [ "cache" ] ~docv:"N" ~doc)
  in
  let conns_arg =
    let doc = "Concurrent connection cap." in
    Arg.(value & opt int Server.default_config.max_connections
         & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let recv_timeout_arg =
    let doc =
      "Seconds a client may stall mid-frame before the connection is \
       dropped (slow-loris guard)."
    in
    Arg.(value & opt float Server.default_config.recv_timeout_s
         & info [ "recv-timeout" ] ~docv:"S" ~doc)
  in
  let sweep_cap_arg =
    let doc = "Largest sweep batch one request may ask for." in
    Arg.(value & opt int Server.default_config.max_sweep_points
         & info [ "sweep-cap" ] ~docv:"N" ~doc)
  in
  let drain_arg =
    let doc = "Seconds SIGTERM waits for queued and in-flight requests." in
    Arg.(value & opt float Server.default_config.drain_timeout_s
         & info [ "drain-timeout" ] ~docv:"S" ~doc)
  in
  let fault_injection_arg =
    let doc =
      "Honour the 'crash' op (testing: kills a worker to exercise the \
       supervisor).  Off by default."
    in
    Arg.(value & flag & info [ "fault-injection" ] ~doc)
  in
  let run socket port workers queue cache conns recv_timeout sweep_cap drain
      fault_injection calibrate =
    let cfg =
      {
        Server.default_config with
        socket_path = socket;
        tcp_port = port;
        workers;
        queue_capacity = queue;
        cache_capacity = cache;
        max_connections = conns;
        recv_timeout_s = recv_timeout;
        max_sweep_points = sweep_cap;
        drain_timeout_s = drain;
        fault_injection;
        adjust = load_adjust calibrate;
      }
    in
    let server = or_die (Server.create cfg) in
    (* SIGTERM/SIGINT request a graceful drain: stop accepting, finish
       queued and in-flight work, answer every open request, exit 0. *)
    List.iter
      (fun signo ->
        ignore
          (Sys.signal signo (Sys.Signal_handle (fun _ -> Server.stop server))))
      [ Sys.sigterm; Sys.sigint ];
    (match socket with
     | Some path -> Printf.printf "mipp serve: listening on %s\n%!" path
     | None -> ());
    (match port with
     | Some p -> Printf.printf "mipp serve: listening on 127.0.0.1:%d\n%!" p
     | None -> ());
    Server.run server;
    print_endline "mipp serve: drained, bye"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Model-serving daemon: cached profiles, admission control, \
          per-request deadlines and fault isolation over a CRC-framed \
          socket protocol (SIGTERM drains and exits 0)")
    Term.(const run $ socket_arg $ port_arg $ workers_arg $ queue_arg
          $ cache_arg $ conns_arg $ recv_timeout_arg $ sweep_cap_arg
          $ drain_arg $ fault_injection_arg $ calibrate_file_arg)

(* Exit codes, documented for scripting: 0 success; 1 the daemon
   answered with a serving fault (overload, timeout, crash, numeric);
   2 bad input — unusable arguments, connection failure, or a
   bad-input/protocol fault from the daemon. *)
let query_exit (fault : Fault.t) =
  Printf.eprintf "mipp query: %s\n" (Fault.to_string fault);
  match fault with
  | Fault.Bad_input _ -> exit exit_bad_input
  | Numeric _ | Worker_crash _ | Timeout _ | Overload _ ->
    exit exit_partial_failure

let query_connect socket port =
  match (socket, port) with
  | Some path, _ -> or_die (Client.connect_unix path)
  | None, Some p -> or_die (Client.connect_tcp ~host:"127.0.0.1" ~port:p)
  | None, None ->
    or_die
      (Error
         (Fault.bad_input ~context:"query"
            "need --socket PATH or --port PORT to reach the daemon"))

let query_cmd =
  let op_arg =
    let doc = "Operation: ping, health, predict, sweep or crash." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let qprofile_arg =
    let doc =
      "Profile file to query against; uploaded (content-addressed, so \
       re-sent only when the daemon has not seen these bytes) before \
       predict/sweep."
    in
    Arg.(value & opt (some string) None
         & info [ "p"; "profile-file" ] ~docv:"FILE" ~doc)
  in
  let qspace_arg =
    let doc = "Config space for sweep (see `mipp list`)." in
    Arg.(value & opt string "default" & info [ "space" ] ~docv:"SPACE" ~doc)
  in
  let qoffset_arg =
    let doc = "First design-point index of the sweep batch." in
    Arg.(value & opt int 0 & info [ "offset" ] ~docv:"K" ~doc)
  in
  let qlimit_arg =
    let doc = "Design points in the sweep batch." in
    Arg.(value & opt int 32 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let timeout_ms_arg =
    let doc = "Per-request deadline in milliseconds (daemon-side)." in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let read_file path =
    or_die
      (Fault.protect ~context:"query" (fun () ->
           let ic = open_in_bin path in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))))
  in
  let upload client = function
    | None ->
      or_die
        (Error
           (Fault.bad_input ~context:"query"
              "this op needs --profile-file FILE"))
    | Some path ->
      (match Client.load client (read_file path) with
       | Ok key -> key
       | Error f -> query_exit f)
  in
  let run socket port op profile_file config prefetch space offset limit
      timeout_ms =
    let client = query_connect socket port in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    match op with
    | "ping" ->
      let t0 = Clock.now () in
      (match Client.ping client with
       | Ok () ->
         Printf.printf "pong (%.2f ms)\n"
           (1000.0 *. (Clock.now () -. t0))
       | Error f -> query_exit f)
    | "health" ->
      (match Client.health client with
       | Ok kv ->
         Table.print ~header:[ "stat"; "value" ]
           ~rows:(List.map (fun (k, v) -> [ k; v ]) kv)
       | Error f -> query_exit f)
    | "predict" ->
      let key = upload client profile_file in
      (match
         Client.predict client ?timeout_ms ~prefetch ~profile:key
           ~config ()
       with
       | Ok pr ->
         Table.print ~header:[ "metric"; "value" ]
           ~rows:
             ([
                [ "CPI"; Table.fmt_f pr.Client.pr_cpi ];
                [ "cycles"; Table.fmt_f ~decimals:0 pr.pr_cycles ];
                [ "power (W)"; Table.fmt_f ~decimals:1 pr.pr_watts ];
                [ "time (ms)"; Table.fmt_f ~decimals:2 (1000.0 *. pr.pr_seconds) ];
                [ "energy (J)"; Table.fmt_f ~decimals:3 pr.pr_energy_j ];
              ]
             @ List.map
                 (fun (name, v) -> [ "CPI: " ^ name; Table.fmt_f v ])
                 pr.pr_stack)
       | Error f -> query_exit f)
    | "sweep" ->
      let key = upload client profile_file in
      (match
         Client.sweep client ?timeout_ms ~profile:key ~space ~offset ~limit ()
       with
       | Ok (points, faulted) ->
         Table.print
           ~header:[ "index"; "CPI"; "power (W)"; "time (ms)" ]
           ~rows:
             (List.map
                (fun (p : Client.sweep_point) ->
                  [
                    string_of_int p.sp_index;
                    Table.fmt_f p.sp_cpi;
                    Table.fmt_f ~decimals:1 p.sp_watts;
                    Table.fmt_f ~decimals:2 (1000.0 *. p.sp_seconds);
                  ])
                points);
         Printf.printf "%d points, %d faulted\n" (List.length points) faulted;
         if faulted > 0 then exit exit_partial_failure
       | Error f -> query_exit f)
    | "crash" ->
      (match Client.crash client with
       | Ok () -> print_endline "worker crash acknowledged"
       | Error f -> query_exit f)
    | other ->
      or_die
        (Error
           (Fault.bad_input ~context:"query"
              (Printf.sprintf
                 "unknown op %S (ping, health, predict, sweep, crash)" other)))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query a running `mipp serve` daemon (exit 0 success, 1 serving \
          fault such as overload/timeout, 2 bad input)")
    Term.(const run $ socket_arg $ port_arg $ op_arg $ qprofile_arg
          $ config_arg $ prefetch_arg $ qspace_arg $ qoffset_arg $ qlimit_arg
          $ timeout_ms_arg)

let () =
  let doc = "Micro-architecture independent processor performance & power modeling" in
  let info = Cmd.info "mipp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; profile_cmd; predict_cmd; simulate_cmd; compare_cmd;
            sweep_cmd; multicore_cmd; validate_cmd; calibrate_cmd;
            serve_cmd; query_cmd ]))
