(* Tests for branch predictors, linear branch entropy, and the
   entropy-to-missrate model. *)

let predictor_cfg kind : Uarch.branch_predictor =
  { kind; history_bits = 12; table_bits = 12 }

let run_outcomes kind outcomes =
  let p = Predictor.create (predictor_cfg kind) in
  List.iter
    (fun (pc, taken) -> ignore (Predictor.predict_and_update p ~static_id:pc ~taken))
    outcomes;
  p

let repeat n pattern =
  List.concat (List.init n (fun _ -> pattern))

let test_predictors_learn_biased_branch () =
  (* A branch taken 100% of the time is learned by every predictor. *)
  List.iter
    (fun kind ->
      let outcomes = List.init 2000 (fun _ -> (42, true)) in
      let p = run_outcomes kind outcomes in
      Alcotest.(check bool)
        (Uarch.predictor_kind_to_string kind ^ " learns always-taken")
        true
        (Predictor.miss_rate p < 0.01))
    Uarch.all_predictor_kinds

let test_predictors_learn_loop_pattern () =
  (* Pattern TTTN repeating: learnable with >= 2 bits of history. *)
  List.iter
    (fun kind ->
      let outcomes =
        repeat 1000 [ (7, true); (7, true); (7, true); (7, false) ]
      in
      let p = run_outcomes kind outcomes in
      Alcotest.(check bool)
        (Uarch.predictor_kind_to_string kind ^ " learns TTTN")
        true
        (Predictor.miss_rate p < 0.1))
    [ Uarch.Gag; Uarch.Gap; Uarch.Pap; Uarch.Gshare; Uarch.Tournament ]

let test_predictor_random_branch_near_half () =
  let rng = Rng.create 3 in
  let outcomes = List.init 20_000 (fun _ -> (9, Rng.bool rng)) in
  let p = run_outcomes Uarch.Gshare outcomes in
  Alcotest.(check bool) "unpredictable ~0.5" true
    (Predictor.miss_rate p > 0.4 && Predictor.miss_rate p < 0.6)

let test_predictor_counts () =
  let p = run_outcomes Uarch.Gag [ (1, true); (1, true); (1, false) ] in
  Alcotest.(check int) "three predictions" 3 (Predictor.predictions p);
  Alcotest.(check bool) "mispredictions bounded" true
    (Predictor.mispredictions p <= 3);
  Predictor.reset_stats p;
  Alcotest.(check int) "reset" 0 (Predictor.predictions p)

let test_predictor_aliasing_pressure () =
  (* Thousands of conflicting static branches degrade a small gshare. *)
  let small : Uarch.branch_predictor =
    { kind = Uarch.Gshare; history_bits = 12; table_bits = 6 }
  in
  let big = { small with table_bits = 14 } in
  let rng = Rng.create 4 in
  let outcomes =
    List.init 30_000 (fun _ ->
        let pc = Rng.int rng 2000 in
        (pc, pc mod 2 = 0))
  in
  let run cfg =
    let p = Predictor.create cfg in
    List.iter
      (fun (pc, taken) ->
        ignore (Predictor.predict_and_update p ~static_id:pc ~taken))
      outcomes;
    Predictor.miss_rate p
  in
  Alcotest.(check bool) "bigger table at least as good" true (run big <= run small +. 0.02)

(* ---- Entropy ---- *)

let test_entropy_of_constant_branch () =
  let e = Entropy.create () in
  for _ = 1 to 1000 do
    Entropy.observe e ~static_id:1 ~taken:true
  done;
  (* Laplace smoothing leaves a ~2/(n+2) residue on constant branches. *)
  Alcotest.(check bool) "always taken ~ 0 entropy" true
    (Entropy.linear_entropy e < 0.01)

let test_entropy_of_coin_flip () =
  let e = Entropy.create ~history_bits:4 () in
  let rng = Rng.create 11 in
  for _ = 1 to 100_000 do
    Entropy.observe e ~static_id:1 ~taken:(Rng.bool rng)
  done;
  (* E(p=0.5) = 1, but finite per-pattern counts bias it slightly low. *)
  Alcotest.(check bool) "coin flip entropy near 1" true
    (Entropy.linear_entropy e > 0.85)

let test_entropy_of_biased_branch () =
  let e = Entropy.create ~history_bits:2 () in
  let rng = Rng.create 12 in
  for _ = 1 to 100_000 do
    Entropy.observe e ~static_id:1 ~taken:(Rng.bernoulli rng 0.9)
  done;
  (* E = 2*min(p,1-p) = 0.2 *)
  let ent = Entropy.linear_entropy e in
  Alcotest.(check bool) "biased 0.9 entropy ~0.2" true
    (Float.abs (ent -. 0.2) < 0.05)

let test_entropy_pattern_branch_is_predictable () =
  (* A repeating pattern is fully determined by enough history: entropy ~ 0. *)
  let e = Entropy.create ~history_bits:8 () in
  for i = 0 to 9999 do
    Entropy.observe e ~static_id:1 ~taken:(i mod 4 <> 3)
  done;
  Alcotest.(check bool) "pattern entropy ~0" true (Entropy.linear_entropy e < 0.02)

let test_entropy_counts () =
  let e = Entropy.create () in
  Entropy.observe e ~static_id:1 ~taken:true;
  Entropy.observe e ~static_id:2 ~taken:false;
  Alcotest.(check int) "observed" 2 (Entropy.observed_branches e);
  Alcotest.(check (float 1e-9)) "empty entropy" 0.0
    (Entropy.linear_entropy (Entropy.create ()))

(* A (branch, history) pair is one int key, static_id lsl history_bits
   lor history: ids that cannot take the shift are refused rather than
   folded onto another branch's counts. *)
let test_entropy_static_id_range () =
  let e = Entropy.create ~history_bits:4 () in
  let largest = max_int asr 4 in
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun static_id ->
      refuses (Printf.sprintf "observe %d" static_id) (fun () ->
          Entropy.observe e ~static_id ~taken:true);
      refuses (Printf.sprintf "prime %d" static_id) (fun () ->
          Entropy.prime e ~static_id ~taken:true))
    [ -1; min_int; largest + 1; max_int ];
  Alcotest.(check int) "refusals record nothing" 0 (Entropy.observed_branches e);
  (* The extremes that fit are two distinct branches: one always taken,
     one never, so every pattern is perfectly biased. *)
  for _ = 1 to 200 do
    Entropy.prime e ~static_id:0 ~taken:false;
    Entropy.observe e ~static_id:largest ~taken:true;
    Entropy.observe e ~static_id:0 ~taken:false
  done;
  Alcotest.(check int) "observed" 400 (Entropy.observed_branches e);
  Alcotest.(check bool) "no collision" true (Entropy.linear_entropy e < 0.05)

(* ---- Entropy model ---- *)

let training_set = [ List.nth Benchmarks.all 0; List.nth Benchmarks.all 9;
                     List.nth Benchmarks.all 15; List.nth Benchmarks.all 22 ]

let test_entropy_model_positive_slope () =
  let m =
    Entropy_model.train (predictor_cfg Uarch.Gshare) ~workloads:training_set
      ~samples_per_workload:3 ~instructions_per_sample:20_000 ()
  in
  Alcotest.(check bool) "more entropy, more misses" true (m.fit.slope > 0.0);
  Alcotest.(check bool) "some training points" true
    (List.length m.training_points >= 8)

let test_entropy_model_clamps () =
  let m =
    Entropy_model.train (predictor_cfg Uarch.Gag) ~workloads:training_set
      ~samples_per_workload:2 ~instructions_per_sample:20_000 ()
  in
  Alcotest.(check bool) "zero entropy -> near-zero missrate" true
    (Entropy_model.miss_rate m ~entropy:0.0 >= 0.0);
  Alcotest.(check bool) "missrate capped at 0.5" true
    (Entropy_model.miss_rate m ~entropy:5.0 <= 0.5)

let test_entropy_model_prediction_accuracy () =
  (* Train on some workloads, predict another's miss rate within a few
     MPKI — the Fig 3.10 experiment in miniature. *)
  let cfg = predictor_cfg Uarch.Tournament in
  let m =
    Entropy_model.train cfg ~workloads:training_set ~samples_per_workload:3
      ~instructions_per_sample:20_000 ()
  in
  let spec = Benchmarks.find "bzip2" in
  let gen = Workload_gen.create spec ~seed:33 in
  let entropy = Entropy.create () in
  let p = Predictor.create cfg in
  let branches = ref 0 and uops = ref 0 in
  Workload_gen.iter_uops gen ~n_instructions:100_000 ~f:(fun (u : Isa.uop) ->
      incr uops;
      if u.cls = Isa.Branch then begin
        incr branches;
        Entropy.observe entropy ~static_id:u.static_id ~taken:u.taken;
        ignore (Predictor.predict_and_update p ~static_id:u.static_id ~taken:u.taken)
      end);
  let bpk = 1000.0 *. float_of_int !branches /. float_of_int !uops in
  let err =
    Entropy_model.mpki_error m
      ~entropy:(Entropy.linear_entropy entropy)
      ~actual_miss_rate:(Predictor.miss_rate p) ~branch_per_kilo_uops:bpk
  in
  Alcotest.(check bool)
    (Printf.sprintf "MPKI error %.2f within 6" err)
    true
    (Float.abs err < 6.0)

let prop_entropy_bounded =
  QCheck.Test.make ~name:"linear entropy stays in [0,1]" ~count:50
    QCheck.(pair (int_range 0 100) (int_range 10 500))
    (fun (seed, n) ->
      let e = Entropy.create ~history_bits:4 () in
      let rng = Rng.create seed in
      for _ = 1 to n do
        Entropy.observe e ~static_id:(Rng.int rng 5) ~taken:(Rng.bool rng)
      done;
      let v = Entropy.linear_entropy e in
      v >= 0.0 && v <= 1.0)

let () =
  Alcotest.run "branch"
    [
      ( "predictors",
        [
          Alcotest.test_case "learn biased" `Quick test_predictors_learn_biased_branch;
          Alcotest.test_case "learn loop pattern" `Quick
            test_predictors_learn_loop_pattern;
          Alcotest.test_case "random near half" `Quick
            test_predictor_random_branch_near_half;
          Alcotest.test_case "counts" `Quick test_predictor_counts;
          Alcotest.test_case "aliasing pressure" `Quick
            test_predictor_aliasing_pressure;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "constant branch" `Quick test_entropy_of_constant_branch;
          Alcotest.test_case "coin flip" `Quick test_entropy_of_coin_flip;
          Alcotest.test_case "biased branch" `Quick test_entropy_of_biased_branch;
          Alcotest.test_case "pattern branch" `Quick
            test_entropy_pattern_branch_is_predictable;
          Alcotest.test_case "counts" `Quick test_entropy_counts;
          Alcotest.test_case "static id range" `Quick test_entropy_static_id_range;
          QCheck_alcotest.to_alcotest prop_entropy_bounded;
        ] );
      ( "entropy_model",
        [
          Alcotest.test_case "positive slope" `Quick test_entropy_model_positive_slope;
          Alcotest.test_case "clamps" `Quick test_entropy_model_clamps;
          Alcotest.test_case "prediction accuracy" `Slow
            test_entropy_model_prediction_accuracy;
        ] );
    ]
