(* Tests for design-space exploration: Pareto analysis, sweeps, the
   empirical baseline. *)

let pt id d p = { Pareto.pt_id = id; pt_delay = d; pt_power = p }

let test_dominates () =
  Alcotest.(check bool) "strictly better" true
    (Pareto.dominates (pt 0 1.0 1.0) (pt 1 2.0 2.0));
  Alcotest.(check bool) "equal does not dominate" false
    (Pareto.dominates (pt 0 1.0 1.0) (pt 1 1.0 1.0));
  Alcotest.(check bool) "better in one, equal other" true
    (Pareto.dominates (pt 0 1.0 1.0) (pt 1 1.0 2.0));
  Alcotest.(check bool) "trade-off does not dominate" false
    (Pareto.dominates (pt 0 1.0 2.0) (pt 1 2.0 1.0))

let test_frontier_basic () =
  let points =
    [ pt 0 1.0 5.0; pt 1 2.0 3.0; pt 2 3.0 1.0; pt 3 2.5 4.0; pt 4 3.5 2.0 ]
  in
  let front = Pareto.frontier points in
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ]
    (List.map (fun p -> p.Pareto.pt_id) front)

let test_frontier_single_and_empty () =
  Alcotest.(check int) "empty" 0 (List.length (Pareto.frontier []));
  Alcotest.(check int) "single" 1 (List.length (Pareto.frontier [ pt 0 1.0 1.0 ]))

let test_frontier_duplicate_coordinates () =
  let front = Pareto.frontier [ pt 0 1.0 1.0; pt 1 1.0 1.0 ] in
  Alcotest.(check int) "one of the duplicates" 1 (List.length front)

let test_hypervolume () =
  (* One point (1,1) against reference (3,3): area 2x2 = 4. *)
  Alcotest.(check (float 1e-9)) "rectangle" 4.0
    (Pareto.hypervolume ~reference:(3.0, 3.0) [ pt 0 1.0 1.0 ]);
  (* Staircase of two points: union of the two dominated rectangles. *)
  Alcotest.(check (float 1e-9)) "staircase" 3.0
    (Pareto.hypervolume ~reference:(3.0, 3.0) [ pt 0 1.0 2.0; pt 1 2.0 1.0 ])

let test_quality_perfect_prediction () =
  let points = [ pt 0 1.0 5.0; pt 1 2.0 3.0; pt 2 3.0 1.0; pt 3 3.0 5.0 ] in
  let q = Pareto.quality ~truth:points ~predicted:points in
  Alcotest.(check (float 1e-9)) "sensitivity" 1.0 q.sensitivity;
  Alcotest.(check (float 1e-9)) "specificity" 1.0 q.specificity;
  Alcotest.(check (float 1e-9)) "accuracy" 1.0 q.accuracy;
  Alcotest.(check (float 1e-9)) "hvr" 1.0 q.hvr

let test_quality_with_errors () =
  let truth = [ pt 0 1.0 5.0; pt 1 2.0 3.0; pt 2 3.0 1.0; pt 3 3.0 5.0 ] in
  (* prediction swaps point 1 and 3: 3 predicted on front wrongly *)
  let predicted = [ pt 0 1.0 5.0; pt 1 2.6 4.9; pt 2 3.0 1.0; pt 3 2.0 3.0 ] in
  let q = Pareto.quality ~truth ~predicted in
  Alcotest.(check bool) "sensitivity below 1" true (q.sensitivity < 1.0);
  Alcotest.(check bool) "specificity below 1" true (q.specificity < 1.0);
  Alcotest.(check bool) "hvr in (0,1]" true (q.hvr > 0.0 && q.hvr <= 1.0)

let test_quality_rejects_mismatched_sets () =
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Pareto.quality: point sets differ in size") (fun () ->
      ignore (Pareto.quality ~truth:[ pt 0 1.0 1.0 ] ~predicted:[]))

let prop_frontier_sound =
  QCheck.Test.make ~name:"front non-dominated, subset"
    ~count:200
    QCheck.(small_list (pair (float_range 0.1 10.0) (float_range 0.1 10.0)))
    (fun coords ->
      let points = List.mapi (fun i (d, p) -> pt i d p) coords in
      let front = Pareto.frontier points in
      let subset =
        List.for_all
          (fun f -> List.exists (fun p -> p.Pareto.pt_id = f.Pareto.pt_id) points)
          front
      in
      let non_dominated =
        List.for_all
          (fun f -> not (List.exists (fun p -> Pareto.dominates p f) points))
          front
      in
      let complete =
        List.for_all
          (fun p ->
            List.exists (fun f -> f.Pareto.pt_id = p.Pareto.pt_id) front
            || List.exists (fun q -> Pareto.dominates q p) points)
          points
      in
      subset && non_dominated && complete)

let prop_quality_bounded =
  QCheck.Test.make ~name:"quality metrics in [0,1]" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 2 20)
        (pair (float_range 0.1 10.0) (float_range 0.1 10.0)))
    (fun coords ->
      let truth = List.mapi (fun i (d, p) -> pt i d p) coords in
      (* predictions: perturbed *)
      let predicted =
        List.mapi
          (fun i (d, p) -> pt i (d *. 1.1) (p *. 0.95))
          coords
      in
      let q = Pareto.quality ~truth ~predicted in
      q.sensitivity >= 0.0 && q.sensitivity <= 1.0 && q.specificity >= 0.0
      && q.specificity <= 1.0 && q.accuracy >= 0.0 && q.accuracy <= 1.0
      && q.hvr >= 0.0 && q.hvr <= 1.0)

(* ---- Sweeps ---- *)

let mini_space = [ Uarch.low_power; Uarch.reference; Uarch.with_rob Uarch.reference 256 ]

let test_model_sweep () =
  let profile = Profiler.profile (Benchmarks.find "gromacs") ~seed:1
      ~n_instructions:20_000 in
  let evals = Sweep.model_sweep ~profile mini_space in
  Alcotest.(check int) "one eval per config" 3 (List.length evals);
  List.iteri
    (fun i (e : Sweep.eval) ->
      Alcotest.(check int) "index" i e.sw_index;
      Alcotest.(check bool) "cpi positive" true (e.sw_cpi > 0.0);
      Alcotest.(check bool) "watts positive" true (e.sw_watts > 0.0);
      Alcotest.(check bool) "ed2p positive" true (e.sw_ed2p > 0.0))
    evals;
  (* low-power design is slower (narrower + lower clock) *)
  let lp = List.nth evals 0 and ref_ = List.nth evals 1 in
  Alcotest.(check bool) "low power slower" true (lp.sw_seconds > ref_.sw_seconds);
  Alcotest.(check bool) "low power cooler" true (lp.sw_watts < ref_.sw_watts)

let test_sim_sweep_agrees_in_direction () =
  let wr =
    Fault.or_raise
      (Validate.run_workload ~spec:(Benchmarks.find "gromacs") ~seed:1
         ~n_instructions:10_000 mini_space)
  in
  (* Both points run the same instructions: time per instruction ranks
     them as run time does. *)
  let ns_per_instruction (p : Validate.point) =
    p.vp_sim_cpi /. p.vp_uarch.operating_point.freq_ghz
  in
  let lp = List.nth wr.wr_points 0 and ref_ = List.nth wr.wr_points 1 in
  Alcotest.(check bool) "low power slower (sim)" true
    (ns_per_instruction lp > ns_per_instruction ref_);
  Alcotest.(check bool) "low power cooler (sim)" true
    (lp.vp_sim_watts < ref_.vp_sim_watts)

let test_pareto_points_roundtrip () =
  let profile = Profiler.profile (Benchmarks.find "namd") ~seed:1
      ~n_instructions:20_000 in
  let evals = Sweep.model_sweep ~profile mini_space in
  let pts = Sweep.pareto_points evals in
  Alcotest.(check int) "all points" 3 (List.length pts);
  List.iter2
    (fun (e : Sweep.eval) (p : Pareto.point) ->
      Alcotest.(check int) "id matches" e.sw_index p.pt_id;
      Alcotest.(check (float 1e-12)) "delay = seconds" e.sw_seconds p.pt_delay)
    evals pts

let test_best_under_power () =
  let profile = Profiler.profile (Benchmarks.find "povray") ~seed:1
      ~n_instructions:20_000 in
  let points = Sweep.pareto_points (Sweep.model_sweep ~profile mini_space) in
  (match Sweep.best_under_power points ~budget_watts:1e9 with
  | None -> Alcotest.fail "unconstrained pick missing"
  | Some best ->
    List.iter
      (fun (p : Pareto.point) ->
        Alcotest.(check bool) "fastest overall" true
          (best.pt_delay <= p.pt_delay))
      points);
  match Sweep.best_under_power points ~budget_watts:0.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "impossible budget should yield none"

(* ---- Parallel sweeps: determinism and StatStack memoization ---- *)

let test_model_sweep_parallel_determinism () =
  let profile = Profiler.profile (Benchmarks.find "gcc") ~seed:1
      ~n_instructions:20_000 in
  let seq = Sweep.model_sweep ~jobs:1 ~profile Uarch.design_space in
  let par = Sweep.model_sweep ~jobs:4 ~profile Uarch.design_space in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Sweep.eval) (b : Sweep.eval) ->
      Alcotest.(check bool)
        (Printf.sprintf "config %d bit-identical" a.sw_index)
        true
        (compare a b = 0))
    seq par

(* A fresh, unprepared copy of a profile: decoding builds no derived
   state. *)
let fresh_copy bytes =
  match Profile_io.of_string bytes with
  | Ok p -> p
  | Error ft -> Alcotest.fail (Fault.to_string ft)

let test_statstack_built_once_per_sweep () =
  let bytes =
    Profile_io.to_binary_string
      (Profiler.profile (Benchmarks.find "sjeng") ~seed:1 ~n_instructions:20_000)
  in
  let count f =
    let before = Statstack.construction_count () in
    f ();
    Statstack.construction_count () - before
  in
  (* Per profile the model needs one instruction stack, a load and a
     store stack per microtrace and one stack per static load —
     independent of how many configs the sweep visits. *)
  let probe = fresh_copy bytes in
  let statics =
    Array.fold_left
      (fun n mt -> n + List.length mt.Profile.mt_static_loads)
      0 probe.p_microtraces
  in
  let expected = (2 * Array.length probe.p_microtraces) + 1 + statics in
  Alcotest.(check int) "prepare: once per structure" expected
    (count (fun () -> Profile.prepare probe));
  let one = fresh_copy bytes in
  let one_config =
    count (fun () -> ignore (Sweep.model_sweep ~jobs:1 ~profile:one [ Uarch.reference ]))
  in
  Alcotest.(check int) "1-config sweep: once per structure" expected one_config;
  let profile = fresh_copy bytes in
  let many_configs =
    count (fun () -> ignore (Sweep.model_sweep ~jobs:1 ~profile mini_space))
  in
  Alcotest.(check int) "N-config sweep: still once per structure" expected
    many_configs;
  let warm =
    count (fun () -> ignore (Sweep.model_sweep ~jobs:1 ~profile mini_space))
  in
  Alcotest.(check int) "warm sweep builds nothing" 0 warm;
  Alcotest.(check bool) "stacks physically shared" true
    (Profile.stacks profile == Profile.stacks profile)

(* Combined mode shares the profile's per-static-load stacks across
   worker domains too: the sweep must build them before fanning out, or
   two domains forcing one lazy at once fail points with
   [Lazy.Undefined]. *)
let test_combined_parallel_sweep_complete () =
  let options = { Interval_model.default_options with combine = `Combined } in
  List.iter
    (fun seed ->
      let sweep jobs =
        let profile = Profiler.profile (Benchmarks.find "mcf") ~seed ~n_instructions:30_000 in
        match
          Sweep.model_sweep_result ~options ~jobs ~keep_going:true ~profile Uarch.design_space
        with
        | Ok o -> o
        | Error ft -> Alcotest.fail (Fault.to_string ft)
      in
      let par = sweep 2 in
      Alcotest.(check int) (Printf.sprintf "seed %d: no failed point" seed) 0 par.o_failed;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: jobs 2 equals jobs 1" seed)
        true
        (compare par.o_results (sweep 1).o_results = 0))
    [ 1; 2; 3; 4; 5; 6 ]

let prop_memo_stack_matches_fresh =
  QCheck.Test.make ~name:"memo ratios equal StatStack"
    ~count:10
    QCheck.(pair (oneofl [ "gcc"; "mcf"; "milc"; "sjeng" ]) (int_range 1 1000))
    (fun (bench, seed) ->
      let profile =
        Profiler.profile (Benchmarks.find bench) ~seed ~n_instructions:5_000
      in
      let stacks = Profile.stacks profile in
      let same memo ~cold_fraction h =
        let fresh = Statstack.of_reuse_histogram ~cold_fraction h in
        List.for_all
          (fun n ->
            Statstack.miss_ratio memo ~cache_lines:n
            = Statstack.miss_ratio fresh ~cache_lines:n)
          [ 1; 2; 3; 7; 8; 16; 64; 512; 100_000 ]
      in
      Profile.stacks profile == stacks
      && same stacks.inst_stack ~cold_fraction:profile.p_inst_cold_fraction
           profile.p_reuse_inst
      && Array.for_all
           (fun (mt : Profile.microtrace) ->
             same stacks.load_stacks.(mt.mt_index)
               ~cold_fraction:(Profile.load_cold_fraction profile mt)
               mt.mt_reuse_load
             && same stacks.store_stacks.(mt.mt_index)
                  ~cold_fraction:(Profile.store_cold_fraction profile mt)
                  mt.mt_reuse_store)
           profile.p_microtraces)

(* ---- Fault isolation, checkpointing, resume ---- *)

let with_temp_ckpt f =
  let path = Filename.temp_file "mipp" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let evals_of (outcome : Sweep.outcome) =
  List.map
    (function Ok e -> e | Error ft -> Alcotest.failf "point failed: %s" (Fault.to_string ft))
    outcome.o_results

let test_sweep_result_matches_legacy () =
  let profile = Profiler.profile (Benchmarks.find "gromacs") ~seed:1
      ~n_instructions:20_000 in
  let legacy = Sweep.model_sweep ~profile mini_space in
  match Sweep.model_sweep_result ~profile mini_space with
  | Error ft -> Alcotest.failf "sweep failed: %s" (Fault.to_string ft)
  | Ok outcome ->
    Alcotest.(check int) "all ok" 3 outcome.o_ok;
    Alcotest.(check int) "none failed" 0 outcome.o_failed;
    Alcotest.(check bool) "bit-identical to legacy" true
      (compare legacy (evals_of outcome) = 0)

let test_poisoned_config_isolated () =
  (* One config that crashes the model (ROB size 0 trips the chain
     interpolator's invalid_arg) must not take down the other points. *)
  let profile = Profiler.profile (Benchmarks.find "gcc") ~seed:1
      ~n_instructions:20_000 in
  let poisoned = Uarch.with_rob Uarch.reference 0 in
  let configs = [ Uarch.low_power; poisoned; Uarch.reference ] in
  match Sweep.model_sweep_result ~profile configs with
  | Error ft -> Alcotest.failf "whole sweep failed: %s" (Fault.to_string ft)
  | Ok outcome -> (
    Alcotest.(check int) "two survive" 2 outcome.o_ok;
    Alcotest.(check int) "one fails" 1 outcome.o_failed;
    match outcome.o_results with
    | [ Ok a; Error (Fault.Worker_crash (Invalid_argument _, _)); Ok b ] ->
      Alcotest.(check int) "order kept" 0 a.sw_index;
      Alcotest.(check int) "order kept" 2 b.sw_index;
      (* the healthy points are exactly what a clean sweep yields *)
      let clean = Sweep.model_sweep ~profile [ Uarch.low_power; Uarch.reference ] in
      Alcotest.(check bool) "healthy values untouched" true
        ((List.nth clean 0).sw_cpi = a.sw_cpi
        && (List.nth clean 1).sw_cpi = b.sw_cpi)
    | _ -> Alcotest.fail "unexpected result shape")

let test_nan_config_is_numeric_fault () =
  let profile = Profiler.profile (Benchmarks.find "gcc") ~seed:1
      ~n_instructions:20_000 in
  let nan_cfg = Uarch.with_dvfs Uarch.reference ~freq_ghz:Float.nan ~vdd:0.9 in
  match Sweep.model_sweep_result ~profile [ Uarch.reference; nan_cfg ] with
  | Error ft -> Alcotest.failf "whole sweep failed: %s" (Fault.to_string ft)
  | Ok outcome -> (
    match outcome.o_results with
    | [ Ok _; Error ft ] ->
      Alcotest.(check bool) "numeric or crash" true
        (match ft with Fault.Numeric _ | Fault.Worker_crash _ -> true | _ -> false)
    | _ -> Alcotest.fail "NaN design point was not isolated")

let test_sweep_legacy_raises_on_poison () =
  let profile = Profiler.profile (Benchmarks.find "gcc") ~seed:1
      ~n_instructions:20_000 in
  let poisoned = Uarch.with_rob Uarch.reference 0 in
  match Sweep.model_sweep ~profile [ Uarch.reference; poisoned ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "legacy interface must re-raise the original exception"

(* Rewrite [path] as its header line plus its first [keep] records. *)
let keep_records path keep =
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri (fun i l -> if i <= keep then output_string oc (l ^ "\n")) lines)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let gcc_27 =
  lazy
    ( Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:20_000,
      List.filteri (fun i _ -> i mod 9 = 0) Uarch.design_space )

let test_kill_and_resume_bit_identical () =
  (* Simulate a mid-sweep kill: checkpoint the sweep in small blocks, cut
     the log back to its first 10 records plus a torn tail, then re-run
     on the same log under another [jobs].  The combined results must
     equal the uninterrupted jobs:1 sweep bit for bit. *)
  let profile, space = Lazy.force gcc_27 in
  let uninterrupted =
    evals_of
      (Fault.or_raise (Sweep.model_sweep_result ~jobs:1 ~profile space))
  in
  with_temp_ckpt (fun path ->
      let run ~jobs =
        Fault.or_raise
          (Sweep.model_sweep_result ~jobs ~checkpoint:path ~block_size:4
             ~profile space)
      in
      let first = run ~jobs:1 in
      Alcotest.(check bool) "checkpointed run identical" true
        (compare uninterrupted (evals_of first) = 0);
      keep_records path 10;
      append_raw path "0bad0bad ok 10 3ff8000000000000";
      let resumed = run ~jobs:2 in
      Alcotest.(check int) "10 points restored" 10 resumed.o_resumed;
      Alcotest.(check bool) "kill+resume bit-identical" true
        (compare uninterrupted (evals_of resumed) = 0);
      (* running again evaluates nothing new and still agrees *)
      let all_cached = run ~jobs:1 in
      Alcotest.(check int) "everything restored" (List.length space)
        all_cached.o_resumed;
      Alcotest.(check bool) "fully cached run identical" true
        (compare uninterrupted (evals_of all_cached) = 0))

let test_torn_header_restarts () =
  (* A kill while the header was being written leaves a prefix of it:
     the log restarts instead of being refused. *)
  let profile, space = Lazy.force gcc_27 in
  with_temp_ckpt (fun path ->
      let run () =
        Sweep.model_sweep_result ~jobs:2 ~checkpoint:path ~profile space
      in
      let whole = evals_of (Fault.or_raise (run ())) in
      let header = List.hd (In_channel.with_open_bin path In_channel.input_lines) in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub header 0 (String.length header / 2)));
      match run () with
      | Error ft -> Alcotest.failf "torn header refused: %s" (Fault.to_string ft)
      | Ok o ->
        Alcotest.(check int) "nothing resumed" 0 o.o_resumed;
        Alcotest.(check bool) "same results" true (compare whole (evals_of o) = 0))

let test_unterminated_record_is_torn () =
  (* The log's last record lost only its newline: it must be dropped and
     re-evaluated, and later appends must not be glued onto it. *)
  let profile, space = Lazy.force gcc_27 in
  with_temp_ckpt (fun path ->
      let run () =
        Fault.or_raise
          (Sweep.model_sweep_result ~jobs:1 ~checkpoint:path ~block_size:4
             ~profile space)
      in
      let whole = evals_of (run ()) in
      let s = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub s 0 (String.length s - 1)));
      let n = List.length space in
      let second = run () in
      Alcotest.(check int) "last record re-evaluated" (n - 1) second.o_resumed;
      let third = run () in
      Alcotest.(check int) "every record restored" n third.o_resumed;
      Alcotest.(check bool) "results identical" true
        (compare whole (evals_of third) = 0))

(* Replace record [k] (0-based, after the header) with its payload minus
   the last float, re-framed under a valid CRC, keeping every line after
   it. *)
let drop_last_float path k =
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun i l ->
          let l =
            if i <> k + 1 then l
            else
              let payload = String.sub l 9 (String.length l - 9) in
              let payload =
                String.sub payload 0 (String.rindex payload ' ')
              in
              Crc32.to_hex (Crc32.string payload) ^ " " ^ payload
          in
          output_string oc (l ^ "\n"))
        lines)

let test_wrong_shape_record_ends_prefix () =
  (* A record whose CRC checks out but whose payload has the wrong shape
     ends the trusted prefix: the records before it resume, it and every
     later one are re-evaluated. *)
  let profile, space = Lazy.force gcc_27 in
  with_temp_ckpt (fun path ->
      let run () =
        Fault.or_raise
          (Sweep.model_sweep_result ~jobs:1 ~checkpoint:path ~block_size:4
             ~profile space)
      in
      let whole = evals_of (run ()) in
      drop_last_float path 5;
      let resumed = run () in
      Alcotest.(check int) "points before the bad record" 5 resumed.o_resumed;
      Alcotest.(check bool) "point results identical" true
        (compare whole (evals_of resumed) = 0));
  with_temp_ckpt (fun path ->
      let run () =
        Fault.or_raise
          (Sweep.model_sweep_stream ~jobs:1 ~checkpoint:path ~block_size:16
             ~profile Config_space.default)
      in
      let strip (s : Sweep.stream_summary) =
        { s with ss_resumed_blocks = 0; ss_evaluated_blocks = 0 }
      in
      let whole = run () in
      (* the block's front part is no longer whole (id, delay, power)
         triples *)
      drop_last_float path 3;
      let resumed = run () in
      Alcotest.(check int) "blocks before the bad record" 3
        resumed.ss_resumed_blocks;
      Alcotest.(check bool) "stream summary identical" true
        (compare (strip whole) (strip resumed) = 0))

let test_resume_rejects_other_sweep () =
  let profile = Profiler.profile (Benchmarks.find "gcc") ~seed:1
      ~n_instructions:20_000 in
  let mcf = Profiler.profile (Benchmarks.find "mcf") ~seed:1
      ~n_instructions:20_000 in
  let refused what =
    match Sweep.model_sweep_result ~checkpoint:what ~profile mini_space with
    | Error (Fault.Bad_input _) -> ()
    | Error ft -> Alcotest.failf "wrong fault: %s" (Fault.to_string ft)
    | Ok _ -> Alcotest.fail "resumed from a mismatched checkpoint"
  in
  with_temp_ckpt (fun path ->
      (* another workload's per-point log *)
      ignore
        (Fault.or_raise
           (Sweep.model_sweep_result ~checkpoint:path ~profile:mcf mini_space));
      refused path;
      (* the streaming engine's log of the same sweep *)
      Sys.remove path;
      ignore
        (Fault.or_raise
           (Sweep.model_sweep_stream ~checkpoint:path ~length:3 ~profile
              Config_space.default));
      refused path)

(* The header digests every input of the sweep, not just its workload
   name and size: a log written under one input set is refused under any
   other, and still resumed under the same one.  The branch model ignores
   the profile's entropy, so another profile reaches the header only
   through the profile's own digest. *)
let test_resume_refuses_changed_inputs () =
  let gcc seed =
    Profiler.profile (Benchmarks.find "gcc") ~seed ~n_instructions:20_000
  in
  let profile = gcc 1 in
  let refused what run =
    match run () with
    | Error (Fault.Bad_input _) -> ()
    | Error ft -> Alcotest.failf "%s: wrong fault: %s" what (Fault.to_string ft)
    | Ok _ -> Alcotest.failf "%s: resumed from another sweep's checkpoint" what
  in
  let keyed key : Sweep.adjust =
    ( key,
      fun _ _ (p : Interval_model.prediction) ->
        (Interval_model.cpi_stack p, Interval_model.cpi p) )
  in
  let flat =
    { Interval_model.default_options with
      branch_missrate = (fun ~entropy:_ -> 0.05) }
  in
  with_temp_ckpt (fun path ->
      let model ?(options = flat) ?(adjust = keyed "a") ?(profile = profile)
          configs () =
        Sweep.model_sweep_result ~checkpoint:path ~options ~adjust ~profile
          configs
      in
      ignore (Fault.or_raise (model mini_space ()));
      refused "another seed" (model ~profile:(gcc 2) mini_space);
      refused "other options"
        (model ~options:{ flat with model_mlp = false } mini_space);
      refused "another adjustment" (model ~adjust:(keyed "b") mini_space);
      refused "no adjustment" (fun () ->
          Sweep.model_sweep_result ~checkpoint:path ~options:flat ~profile
            mini_space);
      refused "other configs" (model (List.rev mini_space));
      let again = Fault.or_raise (model mini_space ()) in
      Alcotest.(check int) "same inputs resume" 3 again.Sweep.o_resumed)

let test_sweep_rejects_invalid_profile () =
  let profile = Profiler.profile (Benchmarks.find "gcc") ~seed:1
      ~n_instructions:20_000 in
  let broken = { profile with Profile.p_branch_fraction = Float.nan } in
  match Sweep.model_sweep_result ~profile:broken mini_space with
  | Error (Fault.Bad_input _) -> ()
  | Error ft -> Alcotest.failf "wrong fault: %s" (Fault.to_string ft)
  | Ok _ -> Alcotest.fail "swept a NaN-poisoned profile"

let test_stop_on_first_fault_without_keep_going () =
  let profile = Profiler.profile (Benchmarks.find "gcc") ~seed:1
      ~n_instructions:20_000 in
  let poisoned = Uarch.with_rob Uarch.reference 0 in
  (* block size 1 so the stop takes effect before the healthy tail *)
  let outcome =
    Fault.or_raise
      (Sweep.model_sweep_result ~keep_going:false ~block_size:1 ~profile
         [ poisoned; Uarch.reference; Uarch.low_power ])
  in
  Alcotest.(check int) "nothing after the fault" 0 outcome.o_ok;
  Alcotest.(check int) "all failed or skipped" 3 outcome.o_failed

(* ---- Empirical baseline ---- *)

let test_empirical_fits_training_data () =
  (* Synthetic ground truth that IS linear in the features: the model must
     recover it. *)
  let rows =
    List.filteri (fun i _ -> i mod 9 = 0) Uarch.design_space
    |> List.map (fun (u : Uarch.t) ->
           let f = Empirical.features u in
           let cpi = 0.5 +. (0.1 *. f.(0)) +. (0.02 *. f.(2)) in
           let watts = 3.0 +. (2.0 *. f.(0)) +. (0.5 *. f.(4)) in
           (u, cpi, watts))
  in
  let m = Empirical.train rows in
  List.iter
    (fun (u, cpi, watts) ->
      let pc, pw = Empirical.predict m u in
      Alcotest.(check bool) "cpi recovered" true (Float.abs (pc -. cpi) < 1e-6);
      Alcotest.(check bool) "watts recovered" true (Float.abs (pw -. watts) < 1e-6))
    rows

let test_empirical_rejects_tiny_training () =
  Alcotest.check_raises "too few rows"
    (Invalid_argument "Empirical.train: need at least 9 training rows") (fun () ->
      ignore (Empirical.train [ (Uarch.reference, 1.0, 10.0) ]))

let test_empirical_features_shape () =
  let f = Empirical.features Uarch.reference in
  Alcotest.(check int) "seven features" 7 (Array.length f);
  Alcotest.(check (float 1e-9)) "width" 4.0 f.(0);
  Alcotest.(check (float 1e-9)) "log2 rob" 7.0 f.(1)

let () =
  Alcotest.run "dse"
    [
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "frontier" `Quick test_frontier_basic;
          Alcotest.test_case "frontier edge cases" `Quick
            test_frontier_single_and_empty;
          Alcotest.test_case "duplicates" `Quick test_frontier_duplicate_coordinates;
          Alcotest.test_case "hypervolume" `Quick test_hypervolume;
          Alcotest.test_case "perfect quality" `Quick test_quality_perfect_prediction;
          Alcotest.test_case "imperfect quality" `Quick test_quality_with_errors;
          Alcotest.test_case "mismatched sets" `Quick
            test_quality_rejects_mismatched_sets;
          QCheck_alcotest.to_alcotest prop_frontier_sound;
          QCheck_alcotest.to_alcotest prop_quality_bounded;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "model sweep" `Quick test_model_sweep;
          Alcotest.test_case "sim sweep direction" `Quick
            test_sim_sweep_agrees_in_direction;
          Alcotest.test_case "pareto points" `Quick test_pareto_points_roundtrip;
          Alcotest.test_case "best under power" `Quick test_best_under_power;
          Alcotest.test_case "parallel determinism (model)" `Quick
            test_model_sweep_parallel_determinism;
          Alcotest.test_case "statstack built once per sweep" `Quick
            test_statstack_built_once_per_sweep;
          Alcotest.test_case "combined-mode parallel sweep complete" `Quick
            test_combined_parallel_sweep_complete;
          QCheck_alcotest.to_alcotest prop_memo_stack_matches_fresh;
        ] );
      ( "faults",
        [
          Alcotest.test_case "result engine matches legacy" `Quick
            test_sweep_result_matches_legacy;
          Alcotest.test_case "poisoned config isolated" `Quick
            test_poisoned_config_isolated;
          Alcotest.test_case "NaN config is a per-point fault" `Quick
            test_nan_config_is_numeric_fault;
          Alcotest.test_case "legacy interface re-raises" `Quick
            test_sweep_legacy_raises_on_poison;
          Alcotest.test_case "kill and resume bit-identical" `Quick
            test_kill_and_resume_bit_identical;
          Alcotest.test_case "resume rejects other sweep" `Quick
            test_resume_rejects_other_sweep;
          Alcotest.test_case "resume refuses changed inputs" `Quick
            test_resume_refuses_changed_inputs;
          Alcotest.test_case "torn checkpoint header restarts the log" `Quick
            test_torn_header_restarts;
          Alcotest.test_case "unterminated last record is re-evaluated" `Quick
            test_unterminated_record_is_torn;
          Alcotest.test_case "wrong-shape record ends the prefix" `Quick
            test_wrong_shape_record_ends_prefix;
          Alcotest.test_case "invalid profile rejected" `Quick
            test_sweep_rejects_invalid_profile;
          Alcotest.test_case "stop without keep-going" `Quick
            test_stop_on_first_fault_without_keep_going;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "fits training data" `Quick
            test_empirical_fits_training_data;
          Alcotest.test_case "rejects tiny training" `Quick
            test_empirical_rejects_tiny_training;
          Alcotest.test_case "features" `Quick test_empirical_features_shape;
        ] );
    ]
