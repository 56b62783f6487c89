(* Tests for the streaming million-point sweep engine: the
   Config_space index -> config bijection, streamed-vs-materialized
   bit-identity (including kill-and-resume and jobs > 1), sub-range
   sharding, and Pareto-guided hierarchical refinement quality. *)

let profile_gcc =
  lazy (Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:30_000)

(* ---- Config_space ---- *)

let test_default_space_equals_design_space () =
  let space = Config_space.default in
  let generated = Config_space.materialize space in
  let legacy = Array.of_list Uarch.design_space in
  Alcotest.(check int) "size" (Array.length legacy) (Array.length generated);
  Array.iteri
    (fun i (u : Uarch.t) ->
      Alcotest.(check string)
        (Printf.sprintf "name of point %d" i)
        u.Uarch.name generated.(i).Uarch.name;
      if generated.(i) <> u then
        Alcotest.failf "point %d differs from Uarch.design_space" i)
    legacy

let test_large_space_size_and_names () =
  let space = Config_space.large in
  Alcotest.(check int) "size" 1_451_520 (Config_space.size space);
  (* First and last points build without error and carry distinct names. *)
  let first = Config_space.config_of_index space 0 in
  let last = Config_space.config_of_index space (Config_space.size space - 1) in
  Alcotest.(check bool) "distinct names" true
    (first.Uarch.name <> last.Uarch.name)

let test_find_space () =
  (match Config_space.find "default" with
  | Ok s -> Alcotest.(check int) "default size" 243 (Config_space.size s)
  | Error _ -> Alcotest.fail "default space not found");
  match Config_space.find "no-such-space" with
  | Ok _ -> Alcotest.fail "bogus space accepted"
  | Error _ -> ()

let random_axes_gen =
  (* 1-3 axes of 1-4 values each: small enough to materialize, shaped
     enough to exercise the mixed-radix arithmetic. *)
  QCheck.Gen.(
    let axis name lo hi =
      map
        (fun vs ->
          {
            Config_space.ax_name = name;
            ax_values = Array.of_list (List.sort_uniq compare vs);
          })
        (list_size (int_range 1 4) (int_range lo hi))
    in
    map3
      (fun a b c -> [| a; b; c |])
      (axis "width" 1 8) (axis "rob" 32 256) (axis "l1_kb" 8 64))

let space_of_axes axes =
  Config_space.make ~name:"test" ~axes ~build:(fun values ->
      let core =
        Uarch.make_core ~dispatch_width:values.(0) ~rob_size:values.(1)
      in
      let caches = Uarch.make_caches ~l1_kb:values.(2) ~l2_kb:256 ~l3_mb:4 in
      {
        Uarch.reference with
        name = Printf.sprintf "t-w%d-rob%d-l1_%dk" values.(0) values.(1) values.(2);
        core;
        caches;
      })

let prop_index_digit_bijection =
  QCheck.Test.make ~name:"index <-> digits round-trips over random grids"
    ~count:100
    (QCheck.make random_axes_gen)
    (fun axes ->
      let space = space_of_axes axes in
      let n = Config_space.size space in
      List.for_all
        (fun i ->
          Config_space.index_of_digits space (Config_space.digits_of_index space i)
          = i)
        (List.init n Fun.id))

(* ---- streamed vs materialized ---- *)

let eval_equal (a : Sweep.eval) (b : Sweep.eval) =
  a.Sweep.sw_index = b.Sweep.sw_index
  && a.sw_cpi = b.sw_cpi && a.sw_cycles = b.sw_cycles
  && a.sw_watts = b.sw_watts && a.sw_seconds = b.sw_seconds
  && a.sw_energy_j = b.sw_energy_j && a.sw_ed2p = b.sw_ed2p
  && a.sw_config.Uarch.name = b.sw_config.Uarch.name

let prop_streamed_equals_materialized =
  QCheck.Test.make
    ~name:
      "streamed sweep point-for-point bit-identical to materialized (any \
       grid, jobs 1 and 4, any block size)" ~count:15
    QCheck.(pair (make random_axes_gen) (int_range 1 7))
    (fun (axes, block_size) ->
      let space = space_of_axes axes in
      let profile = Lazy.force profile_gcc in
      let n = Config_space.size space in
      let configs = Array.to_list (Config_space.materialize space) in
      let outcome =
        match Sweep.model_sweep_result ~profile configs with
        | Ok o -> o
        | Error ft -> Alcotest.failf "materialized: %s" (Fault.to_string ft)
      in
      let materialized =
        List.map
          (function Ok e -> e | Error ft -> Alcotest.failf "point: %s" (Fault.to_string ft))
          outcome.Sweep.o_results
      in
      List.for_all
        (fun jobs ->
          let got : Sweep.eval option array = Array.make n None in
          let s =
            match
              Sweep.model_sweep_stream ~jobs ~block_size
                ~on_point:(fun i r ->
                  match r with
                  | Ok e -> got.(i) <- Some e
                  | Error ft -> Alcotest.failf "streamed point %d: %s" i (Fault.to_string ft))
                ~profile space
            with
            | Ok s -> s
            | Error ft -> Alcotest.failf "streamed: %s" (Fault.to_string ft)
          in
          s.Sweep.ss_ok = n && s.ss_failed = 0
          && List.for_all
               (fun (m : Sweep.eval) ->
                 match got.(m.Sweep.sw_index) with
                 | Some e -> eval_equal e m
                 | None -> false)
               materialized
          && s.ss_front = Pareto.frontier (Sweep.pareto_points materialized))
        [ 1; 4 ])

let prop_kill_and_resume_bit_identical =
  QCheck.Test.make
    ~name:"streamed kill-and-resume bit-identical at a random cursor"
    ~count:10
    QCheck.(triple (make random_axes_gen) (int_range 1 5) (float_range 0.05 0.95))
    (fun (axes, block_size, cut) ->
      let space = space_of_axes axes in
      let profile = Lazy.force profile_gcc in
      let path = Filename.temp_file "stream_resume" ".ckpt" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let run ?jobs () =
            match
              Sweep.model_sweep_stream ?jobs ~checkpoint:path ~block_size
                ~profile space
            with
            | Ok s -> s
            | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
          in
          let strip (s : Sweep.stream_summary) =
            { s with ss_resumed_blocks = 0; ss_evaluated_blocks = 0 }
          in
          let s1 = run ~jobs:1 () in
          (* Kill: truncate the log at a random byte cursor (possibly
             mid-record: the CRC framing must drop only the torn tail),
             then resume with a different jobs count. *)
          let len = (Unix.stat path).Unix.st_size in
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
          Unix.ftruncate fd (int_of_float (float_of_int len *. cut));
          Unix.close fd;
          let s2 = run ~jobs:4 () in
          strip s1 = strip s2))

let test_stream_rejects_mismatched_checkpoint () =
  let profile = Lazy.force profile_gcc in
  let path = Filename.temp_file "stream_mismatch" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match
         Sweep.model_sweep_stream ~checkpoint:path ~block_size:64 ~profile
           Config_space.default
       with
      | Ok _ -> ()
      | Error ft -> Alcotest.failf "first run: %s" (Fault.to_string ft));
      (* Same file, different block size: must refuse, not mis-merge. *)
      match
        Sweep.model_sweep_stream ~checkpoint:path ~block_size:32 ~profile
          Config_space.default
      with
      | Ok _ -> Alcotest.fail "mismatched checkpoint accepted"
      | Error _ -> ())

let test_stream_refuses_changed_inputs () =
  let profile = Lazy.force profile_gcc in
  let path = Filename.temp_file "stream_inputs" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* Entropy-blind, so another profile shows only through its digest. *)
      let options =
        { Interval_model.default_options with
          branch_missrate = (fun ~entropy:_ -> 0.05) }
      in
      let run ?adjust ?(profile = profile) () =
        Sweep.model_sweep_stream ~checkpoint:path ~block_size:64 ~options ?adjust
          ~profile Config_space.default
      in
      let calibrated : Sweep.adjust =
        ("k", fun _ (p : Interval_model.prediction) -> p.pr_cycles)
      in
      (match run ~adjust:calibrated () with
      | Ok _ -> ()
      | Error ft -> Alcotest.failf "first run: %s" (Fault.to_string ft));
      let refused what r =
        match r with
        | Error (Fault.Bad_input _) -> ()
        | Error ft -> Alcotest.failf "%s: wrong fault: %s" what (Fault.to_string ft)
        | Ok _ -> Alcotest.failf "%s: resumed from another sweep's log" what
      in
      refused "no adjustment" (run ());
      refused "another adjustment" (run ~adjust:("other", snd calibrated) ());
      refused "another profile"
        (run ~adjust:calibrated
           ~profile:
             (Profiler.profile (Benchmarks.find "gcc") ~seed:2
                ~n_instructions:30_000)
           ());
      match run ~adjust:calibrated () with
      | Ok s ->
        Alcotest.(check int) "same inputs resume" s.ss_n_blocks
          s.ss_resumed_blocks
      | Error ft -> Alcotest.failf "resume: %s" (Fault.to_string ft))

let test_stream_torn_header_restarts () =
  let profile = Lazy.force profile_gcc in
  let path = Filename.temp_file "stream_torn" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let run () =
        Sweep.model_sweep_stream ~checkpoint:path ~block_size:64 ~profile
          Config_space.default
      in
      let whole =
        match run () with
        | Ok s -> s
        | Error ft -> Alcotest.failf "first run: %s" (Fault.to_string ft)
      in
      let header = List.hd (In_channel.with_open_bin path In_channel.input_lines) in
      let write s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
      (* Killed mid-header: a prefix of the header and nothing else. *)
      write (String.sub header 0 (String.length header / 2));
      (match run () with
      | Ok s ->
        Alcotest.(check int) "nothing resumed" 0 s.Sweep.ss_resumed_blocks;
        Alcotest.(check bool) "same summary" true
          ({ s with ss_evaluated_blocks = 0 } = { whole with ss_evaluated_blocks = 0 })
      | Error ft -> Alcotest.failf "torn header refused: %s" (Fault.to_string ft));
      (* Bytes that are no prefix of this sweep's header are still refused. *)
      write "garbage";
      match run () with
      | Ok _ -> Alcotest.fail "garbage header accepted"
      | Error _ -> ())

(* ---- sub-range sharding ---- *)

let test_offset_limit_shards_cover_space () =
  let profile = Lazy.force profile_gcc in
  let space = Config_space.default in
  let n = Config_space.size space in
  let full =
    match Sweep.model_sweep_stream ~block_size:50 ~profile space with
    | Ok s -> s
    | Error ft -> Alcotest.failf "full: %s" (Fault.to_string ft)
  in
  (* Three uneven shards; per-point results must match the full sweep and
     the union of shard fronts must reduce to the full front. *)
  let shards = [ (0, 100); (100, 43); (143, n - 143) ] in
  let got : Sweep.eval option array = Array.make n None in
  let shard_fronts =
    List.concat_map
      (fun (offset, length) ->
        let s =
          match
            Sweep.model_sweep_stream ~block_size:16 ~offset ~length
              ~on_point:(fun i r ->
                match r with
                | Ok e -> got.(i) <- Some e
                | Error ft -> Alcotest.failf "shard point %d: %s" i (Fault.to_string ft))
              ~profile space
          with
          | Ok s -> s
          | Error ft -> Alcotest.failf "shard: %s" (Fault.to_string ft)
        in
        Alcotest.(check int) "shard length" length (s.Sweep.ss_ok + s.ss_failed);
        s.Sweep.ss_front)
      shards
  in
  for i = 0 to n - 1 do
    if got.(i) = None then Alcotest.failf "point %d covered by no shard" i
  done;
  Alcotest.(check bool) "shard fronts merge to the full front" true
    (Pareto.frontier shard_fronts = full.Sweep.ss_front)

let test_stream_rejects_bad_range () =
  let profile = Lazy.force profile_gcc in
  match
    Sweep.model_sweep_stream ~offset:200 ~length:100 ~profile
      Config_space.default
  with
  | Ok _ -> Alcotest.fail "range past the end accepted"
  | Error _ -> ()

(* ---- prediction reuse across operating points ----

   Both model engines call [Interval_model.predict] once per run of
   configs with equal [Interval_model.timing_key] (in [large], the six
   DVFS siblings of a point) and reuse it.  These tests hold every
   reused eval to the one a direct predict gives, bit for bit. *)

let eval_bits_equal (a : Sweep.eval) (b : Sweep.eval) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.Sweep.sw_index = b.Sweep.sw_index
  && a.sw_config = b.sw_config
  && same a.sw_cpi b.sw_cpi && same a.sw_cycles b.sw_cycles
  && same a.sw_watts b.sw_watts && same a.sw_seconds b.sw_seconds
  && same a.sw_energy_j b.sw_energy_j && same a.sw_ed2p b.sw_ed2p

(* Starts mid DVFS group (offset mod 6 = 3); 8-point blocks cut groups
   apart and [length] spans eleven blocks. *)
let reuse_offset = (6 * 5_000) + 3
let reuse_length = 85

let direct_eval ?(options = Interval_model.default_options) profile i =
  let u = Config_space.config_of_index Config_space.large i in
  Sweep.of_prediction u ~index:i (Interval_model.predict ~options u profile)

let stream_evals ?options ?adjust ?checkpoint ~jobs profile =
  let got : Sweep.eval option array = Array.make reuse_length None in
  let s =
    match
      Sweep.model_sweep_stream ?options ?adjust ?checkpoint ~jobs ~block_size:8
        ~offset:reuse_offset ~length:reuse_length
        ~on_point:(fun i r ->
          match r with
          | Ok e -> got.(i - reuse_offset) <- Some e
          | Error ft -> Alcotest.failf "point %d: %s" i (Fault.to_string ft))
        ~profile Config_space.large
    with
    | Ok s -> s
    | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
  in
  (s, got)

let check_against_direct what ?options profile got =
  Array.iteri
    (fun k e ->
      let i = reuse_offset + k in
      match e with
      | None -> Alcotest.failf "%s: point %d not observed" what i
      | Some (e : Sweep.eval) ->
        let own = (Config_space.config_of_index Config_space.large i).Uarch.name in
        Alcotest.(check string) (Printf.sprintf "%s: point %d name" what i) own
          e.sw_config.Uarch.name;
        if not (eval_bits_equal e (direct_eval ?options profile i)) then
          Alcotest.failf "%s: point %d differs from a direct predict" what i)
    got

let test_reuse_matches_direct_predict () =
  let profile = Lazy.force profile_gcc in
  List.iter
    (fun jobs ->
      let _, got = stream_evals ~jobs profile in
      check_against_direct (Printf.sprintf "stream jobs %d" jobs) profile got)
    [ 1; 2 ];
  (* The per-point engine over the same configs. *)
  let configs =
    List.init reuse_length (fun k ->
        Config_space.config_of_index Config_space.large (reuse_offset + k))
  in
  let evals = Sweep.model_sweep ~jobs:2 ~profile configs in
  List.iteri
    (fun k (e : Sweep.eval) ->
      let d = direct_eval profile (reuse_offset + k) in
      if not (eval_bits_equal e { d with sw_index = k }) then
        Alcotest.failf "model_sweep: point %d differs from a direct predict" k)
    evals;
  (* One-point sweeps over DVFS siblings, each on the calling domain, so
     every sweep starts with the previous one's prediction in the cell:
     a change of options or of profile must still miss it. *)
  let one ?options profile i =
    let got = ref None in
    (match
       Sweep.model_sweep_stream ?options ~offset:i ~length:1
         ~on_point:(fun _ r -> got := Result.to_option r)
         ~profile Config_space.large
     with
    | Ok _ -> ()
    | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft));
    match !got with
    | Some e -> e
    | None -> Alcotest.failf "point %d faulted" i
  in
  let options = { Interval_model.default_options with model_mlp = false } in
  let other =
    Profiler.profile (Benchmarks.find "mcf") ~seed:2 ~n_instructions:20_000
  in
  let i = 6 * 7_000 in
  ignore (one profile i);
  Alcotest.(check bool) "other profile misses the cell" true
    (eval_bits_equal (one other (i + 1)) (direct_eval other (i + 1)));
  Alcotest.(check bool) "other options miss the cell" true
    (eval_bits_equal (one ~options other (i + 2)) (direct_eval ~options other (i + 2)))

let test_reuse_adjust_sees_own_config () =
  let profile = Lazy.force profile_gcc in
  let adjust (u : Uarch.t) (p : Interval_model.prediction) =
    if p.pr_uarch <> u.name then
      failwith (Printf.sprintf "prediction for %s handed to %s" p.pr_uarch u.name);
    p.pr_cycles *. u.operating_point.freq_ghz
  in
  let _, got = stream_evals ~adjust:("freq", adjust) ~jobs:2 profile in
  let cycles =
    Array.mapi
      (fun k e ->
        let i = reuse_offset + k in
        let u = Config_space.config_of_index Config_space.large i in
        let e = Option.get e in
        let want =
          Sweep.of_prediction ~cycles:(adjust u (Interval_model.predict u profile))
            u ~index:i (Interval_model.predict u profile)
        in
        if not (eval_bits_equal e want) then
          Alcotest.failf "adjusted point %d differs from a direct predict" i;
        e.Sweep.sw_cycles)
      got
  in
  (* The six DVFS siblings of one timing-equivalent config. *)
  let first = 3 in
  let group = Array.sub cycles first 6 in
  Alcotest.(check int) "distinct adjusted cycles across the DVFS group" 6
    (List.length (List.sort_uniq compare (Array.to_list group)))

let test_reuse_kill_and_resume () =
  let profile = Lazy.force profile_gcc in
  let path = Filename.temp_file "stream_reuse" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let whole, _ = stream_evals ~jobs:1 profile in
      ignore (stream_evals ~checkpoint:path ~jobs:2 profile);
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len / 2);
      Unix.close fd;
      let resumed, _ = stream_evals ~checkpoint:path ~jobs:1 profile in
      Alcotest.(check bool) "some blocks resumed" true
        (resumed.Sweep.ss_resumed_blocks > 0);
      let strip (s : Sweep.stream_summary) =
        { s with ss_resumed_blocks = 0; ss_evaluated_blocks = 0;
                 ss_front_evals = [] }
      in
      Alcotest.(check bool) "summary bit-identical" true
        (Marshal.to_string (strip whole) [ Marshal.No_sharing ]
        = Marshal.to_string (strip resumed) [ Marshal.No_sharing ]);
      Alcotest.(check bool) "front evals bit-identical" true
        (List.equal eval_bits_equal whole.ss_front_evals resumed.ss_front_evals))

(* ---- fault isolation in the stream ---- *)

let test_stream_isolates_poisoned_point () =
  let s =
    match
      Sweep.run_stream ~block_size:8 ~workload:"poison" ~n_points:64
        ~eval_point:(fun i ->
          if i = 23 then failwith "poisoned point"
          else
            Sweep.of_prediction (Config_space.config_of_index Config_space.default 0)
              ~index:i
              (Interval_model.predict
                 (Config_space.config_of_index Config_space.default 0)
                 (Lazy.force profile_gcc)))
        ()
    with
    | Ok s -> s
    | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
  in
  Alcotest.(check int) "one failed" 1 s.Sweep.ss_failed;
  Alcotest.(check int) "rest ok" 63 s.ss_ok;
  Alcotest.(check bool) "sample fault captured" true
    (s.ss_sample_fault <> None)

let test_stream_stops_without_keep_going () =
  let evaluated = ref 0 in
  let s =
    match
      Sweep.run_stream ~block_size:8 ~keep_going:false ~workload:"poison"
        ~n_points:64
        ~eval_point:(fun i ->
          incr evaluated;
          if i = 10 then failwith "poisoned point"
          else
            Sweep.of_prediction (Config_space.config_of_index Config_space.default 0)
              ~index:i
              (Interval_model.predict
                 (Config_space.config_of_index Config_space.default 0)
                 (Lazy.force profile_gcc)))
        ()
    with
    | Ok s -> s
    | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
  in
  Alcotest.(check bool) "blocks skipped" true (s.Sweep.ss_skipped_blocks > 0);
  Alcotest.(check bool) "not every point evaluated" true (!evaluated < 64)

(* ---- subset quality and refinement ---- *)

let test_subset_quality_perfect_and_degraded () =
  let pt id d p = { Pareto.pt_id = id; pt_delay = d; pt_power = p } in
  let truth =
    [ pt 0 1.0 5.0; pt 1 2.0 3.0; pt 2 3.0 1.0; pt 3 3.0 5.0; pt 4 2.5 4.0 ]
  in
  let q = Pareto.subset_quality ~truth ~picked_ids:[ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (float 1e-9)) "full pick: sensitivity" 1.0 q.Pareto.sensitivity;
  Alcotest.(check (float 1e-9)) "full pick: specificity" 1.0 q.specificity;
  Alcotest.(check (float 1e-9)) "full pick: hvr" 1.0 q.hvr;
  (* Dropping front point 1 from the picks loses sensitivity and volume
     but picks up no false positives (4 is dominated by 1 yet NOT by the
     remaining picks — it enters the picked front). *)
  let q2 = Pareto.subset_quality ~truth ~picked_ids:[ 0; 2; 3; 4 ] in
  Alcotest.(check bool) "partial pick: sensitivity < 1" true
    (q2.Pareto.sensitivity < 1.0);
  Alcotest.(check bool) "partial pick: hvr < 1" true (q2.hvr < 1.0)

let test_refinement_quality_on_enumerable_space () =
  let profile = Lazy.force profile_gcc in
  let space = Config_space.default in
  let evals =
    Sweep.model_sweep ~profile (Array.to_list (Config_space.materialize space))
  in
  let truth = Sweep.pareto_points evals in
  let rep =
    match Refine.model_refine ~initial_stride:2 ~profile space with
    | Ok r -> r
    | Error ft -> Alcotest.failf "refine: %s" (Fault.to_string ft)
  in
  Alcotest.(check bool) "evaluated a strict subset" true
    (rep.Refine.rf_evaluated < Config_space.size space);
  let q =
    Pareto.subset_quality ~truth
      ~picked_ids:(List.map (fun (p : Pareto.point) -> p.Pareto.pt_id) rep.rf_front)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sensitivity %.3f >= 0.95" q.Pareto.sensitivity)
    true (q.Pareto.sensitivity >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "specificity %.3f >= 0.95" q.specificity)
    true (q.specificity >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "hvr %.3f >= 0.95" q.hvr)
    true (q.hvr >= 0.95)

let test_combined_refine_parallel_no_faults () =
  (* [`Combined] mode reads the per-static-load lazies too; refinement
     must build them before its fan-out, or racing workers fault points
     with [Lazy.Undefined]. *)
  let options =
    { Interval_model.default_options with combine = `Combined }
  in
  for seed = 1 to 10 do
    let profile =
      Profiler.profile (Benchmarks.find "mcf") ~seed ~n_instructions:40_000
    in
    match Refine.model_refine ~options ~jobs:4 ~profile Config_space.default with
    | Error ft -> Alcotest.failf "seed %d: refine: %s" seed (Fault.to_string ft)
    | Ok rep ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no faulted point" seed)
        0 rep.Refine.rf_failed
  done

let () =
  Alcotest.run "stream"
    [
      ( "config_space",
        [
          Alcotest.test_case "default == Uarch.design_space" `Quick
            test_default_space_equals_design_space;
          Alcotest.test_case "large space" `Quick test_large_space_size_and_names;
          Alcotest.test_case "find" `Quick test_find_space;
          QCheck_alcotest.to_alcotest prop_index_digit_bijection;
        ] );
      ( "streaming",
        [
          QCheck_alcotest.to_alcotest prop_streamed_equals_materialized;
          QCheck_alcotest.to_alcotest prop_kill_and_resume_bit_identical;
          Alcotest.test_case "mismatched checkpoint rejected" `Quick
            test_stream_rejects_mismatched_checkpoint;
          Alcotest.test_case "changed inputs refused" `Quick
            test_stream_refuses_changed_inputs;
          Alcotest.test_case "torn checkpoint header restarts the log" `Quick
            test_stream_torn_header_restarts;
          Alcotest.test_case "offset/limit shards cover the space" `Quick
            test_offset_limit_shards_cover_space;
          Alcotest.test_case "bad range rejected" `Quick
            test_stream_rejects_bad_range;
          Alcotest.test_case "reused predictions equal direct predicts" `Quick
            test_reuse_matches_direct_predict;
          Alcotest.test_case "adjust sees each point's own config" `Quick
            test_reuse_adjust_sees_own_config;
          Alcotest.test_case "reuse: kill-and-resume bit-identical" `Quick
            test_reuse_kill_and_resume;
          Alcotest.test_case "poisoned point isolated" `Quick
            test_stream_isolates_poisoned_point;
          Alcotest.test_case "stop without keep-going" `Quick
            test_stream_stops_without_keep_going;
        ] );
      ( "refine",
        [
          Alcotest.test_case "subset quality" `Quick
            test_subset_quality_perfect_and_degraded;
          Alcotest.test_case "quality >= 0.95 on the default space" `Quick
            test_refinement_quality_on_enumerable_space;
          Alcotest.test_case "combined refine: no faults at jobs 4" `Quick
            test_combined_refine_parallel_no_faults;
        ] );
    ]
