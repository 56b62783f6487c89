(* The grey-box calibration layer: closed-form ridge, boosted stumps,
   deterministic splits, the serialized model format, and the
   calibrated-prediction invariants the rest of the tool chain leans
   on.  The shared fixture is a real (small) model-vs-simulator matrix:
   two workloads over the quick design matrix at a reduced instruction
   budget. *)

let dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (v *. b.(i))) a;
  !acc

(* ---- Ridge ---- *)

(* On noiseless linear data with a well-conditioned design and no
   regularization, the closed-form solve must recover the generating
   coefficients essentially exactly. *)
let prop_ridge_exact_recovery =
  QCheck.Test.make ~name:"ridge recovers exact coefficients (noiseless, 1e-9)"
    ~count:100
    QCheck.(
      pair (int_range 1 6) (list_of_size (QCheck.Gen.return 6) (float_range (-10.0) 10.0)))
    (fun (d, ws) ->
      let w = Array.init d (List.nth ws) in
      let m = (4 * d) + 3 in
      (* Diagonal-dominant design plus deterministic jitter: full rank,
         comfortably conditioned. *)
      let rows =
        Array.init m (fun i ->
            Array.init d (fun j ->
                (if i mod d = j then 4.0 else 0.0)
                +. (float_of_int ((((i * 31) + (j * 17)) mod 7) - 3) /. 10.0)))
      in
      let targets = Array.map (fun r -> dot r w) rows in
      match Ridge.fit ~lambda:0.0 ~rows ~targets with
      | Error ft ->
        QCheck.Test.fail_reportf "fit failed: %s" (Fault.to_string ft)
      | Ok est ->
        let ok = ref true in
        Array.iteri
          (fun j wj ->
            if abs_float (est.(j) -. wj) > 1e-9 *. Float.max 1.0 (abs_float wj)
            then ok := false)
          w;
        !ok)

let test_ridge_rejects_bad_input () =
  let bad = function
    | Ok _ -> Alcotest.fail "bad ridge input accepted"
    | Error _ -> ()
  in
  bad (Ridge.fit ~lambda:0.1 ~rows:[||] ~targets:[||]);
  bad (Ridge.fit ~lambda:0.1 ~rows:[| [| 1.0 |] |] ~targets:[| 1.0; 2.0 |]);
  bad
    (Ridge.fit ~lambda:0.1
       ~rows:[| [| 1.0 |]; [| 1.0; 2.0 |] |]
       ~targets:[| 1.0; 2.0 |]);
  bad (Ridge.fit ~lambda:(-1.0) ~rows:[| [| 1.0 |] |] ~targets:[| 1.0 |]);
  (* Rank-deficient at lambda 0: the Cholesky pivot fails structurally. *)
  bad
    (Ridge.fit ~lambda:0.0
       ~rows:[| [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |]
       ~targets:[| 1.0; 2.0; 3.0 |])

(* ---- Stumps ---- *)

(* Each boosting round fits the current residual, so the training MSE
   of every stump-list prefix is non-increasing. *)
let prop_stump_loss_monotone =
  QCheck.Test.make ~name:"boosting never increases training loss" ~count:80
    QCheck.(list_of_size (QCheck.Gen.int_range 2 40) (float_range (-5.0) 5.0))
    (fun ys ->
      let n = List.length ys in
      let targets = Array.of_list ys in
      let rows =
        Array.init n (fun i ->
            [| float_of_int (i mod 7); float_of_int (i mod 3) |])
      in
      let stumps = Stumps.fit ~rounds:12 ~shrinkage:0.3 ~rows ~targets in
      let loss k =
        Stumps.training_loss
          (List.filteri (fun i _ -> i < k) stumps)
          ~rows ~targets
      in
      let ok = ref true in
      for k = 1 to List.length stumps do
        if loss k > loss (k - 1) +. 1e-9 then ok := false
      done;
      !ok)

(* ---- Shared matrix fixture ---- *)

let matrix =
  lazy
    (let configs = Validate.matrix_configs `Quick in
     let reports =
       List.map
         (fun b ->
           Fault.or_raise
             (Validate.run_workload ~jobs:2 ~seed:1 ~n_instructions:8_000
                ~spec:(Benchmarks.find b) configs))
         [ "gcc"; "mcf" ]
     in
     Validate.matrix_of_report (Validate.summarize reports))

let train_or_fail ?options rows =
  match Calibrate.train ?options rows with
  | Ok r -> r
  | Error ft -> Alcotest.failf "train: %s" (Fault.to_string ft)

let trained = lazy (train_or_fail (Lazy.force matrix))

let gcc_profile =
  lazy (Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:8_000)

(* ---- Split determinism ---- *)

let test_split_deterministic_and_order_free () =
  let options = Calibrate.default_options in
  let rows = Lazy.force matrix in
  let train1, hold1 = Calibrate.split_rows options rows in
  let train2, hold2 = Calibrate.split_rows options (List.rev rows) in
  Alcotest.(check int) "holdout non-empty" (List.length hold1)
    (List.length hold2);
  Alcotest.(check bool) "some training rows" true (List.length train1 > 0);
  Alcotest.(check bool) "some holdout rows" true (List.length hold1 > 0);
  (* Membership is per (workload, index), independent of row order. *)
  let key (r : Validate.matrix_row) =
    (r.mr_workload, r.mr_point.Validate.vp_uarch.Uarch.name)
  in
  let sorted l = List.sort compare (List.map key l) in
  Alcotest.(check bool) "same holdout set under permutation" true
    (sorted hold1 = sorted hold2);
  Alcotest.(check bool) "same train set under permutation" true
    (sorted train1 = sorted train2)

(* ---- Calibrated-prediction invariants ---- *)

let prop_calibrated_cpi_finite_nonnegative =
  QCheck.Test.make
    ~name:"calibrated CPI and stack are finite and non-negative" ~count:60
    QCheck.(
      triple (int_bound 10_000)
        (float_range 0.0 10.0)
        (list_of_size (QCheck.Gen.return 9) (float_range 0.0 8.0)))
    (fun (idx, scale, stat_vals) ->
      let m, _ = Lazy.force trained in
      let space = Uarch.design_space in
      let u = List.nth space (idx mod List.length space) in
      let stats = List.map2 (fun n v -> (n, v)) Validate.stat_names stat_vals in
      let stack =
        Cpi_stack.of_values ~base:(0.4 *. scale) ~branch:(0.2 *. scale)
          ~icache:(0.1 *. scale) ~llc_hit:(0.05 *. scale) ~dram:(0.25 *. scale)
      in
      let cal_stack, cal_cpi = Calibrate.apply_stack m ~stats u (stack, scale) in
      Float.is_finite cal_cpi && cal_cpi >= 0.0
      && List.for_all
           (fun c ->
             let v = Cpi_stack.get cal_stack c in
             Float.is_finite v && v >= 0.0)
           Cpi_stack.all)

let test_identity_is_identity () =
  (* The all-zero model (what zero training signal would learn) must
     pass predictions through bit-exactly. *)
  let u = Uarch.reference in
  let stats = List.map (fun n -> (n, 1.5)) Validate.stat_names in
  let stack =
    Cpi_stack.of_values ~base:1.0 ~branch:0.5 ~icache:0.25 ~llc_hit:0.125
      ~dram:2.0
  in
  let cpi = 3.875 in
  let cal_stack, cal_cpi =
    Calibrate.apply_stack Calibrate.identity ~stats u (stack, cpi)
  in
  Alcotest.(check bool) "cpi bit-exact" true
    (Int64.equal (Int64.bits_of_float cal_cpi) (Int64.bits_of_float cpi));
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Cpi_stack.to_string c ^ " bit-exact")
        true
        (Int64.equal
           (Int64.bits_of_float (Cpi_stack.get cal_stack c))
           (Int64.bits_of_float (Cpi_stack.get stack c))))
    Cpi_stack.all

let test_zero_rounds_has_no_stumps () =
  let options = { Calibrate.default_options with opt_rounds = 0 } in
  let m, _ = train_or_fail ~options (Lazy.force matrix) in
  Array.iter
    (fun (cm : Calibrate.component_model) ->
      Alcotest.(check int) "no stumps" 0 (List.length cm.cm_stumps))
    m.Calibrate.c_components

(* ---- Training determinism ---- *)

let test_train_twice_byte_identical () =
  let rows = Lazy.force matrix in
  let m1, _ = train_or_fail rows in
  let m2, _ = train_or_fail rows in
  Alcotest.(check string) "byte-identical serialization"
    (Calibrate.to_string m1) (Calibrate.to_string m2)

let test_calibrated_sweep_jobs_bit_exact () =
  (* Applying a model through the sweep engine is bit-exact across job
     counts — the daemon/CLI equivalence rests on this. *)
  let m, _ = Lazy.force trained in
  let profile = Lazy.force gcc_profile in
  let adjust = Calibrate.adjust m in
  let fingerprint jobs =
    List.map
      (fun (e : Sweep.eval) -> Int64.bits_of_float e.sw_cycles)
      (Sweep.model_sweep ~jobs ~adjust ~profile Uarch.design_space)
  in
  Alcotest.(check bool) "-j 1 = -j 4" true (fingerprint 1 = fingerprint 4)

(* ---- Leakage rule ---- *)

let test_suggest_excludes_holdout () =
  let m, _ = Lazy.force trained in
  Alcotest.(check bool) "model remembers holdout points" true
    (m.Calibrate.c_holdout_names <> []);
  let ranked =
    Calibrate.suggest m ~profile:(Lazy.force gcc_profile) ~n:1000
      Uarch.design_space
  in
  Alcotest.(check bool) "sampler returned candidates" true (ranked <> []);
  List.iter
    (fun ((u : Uarch.t), _) ->
      if List.mem u.name m.Calibrate.c_holdout_names then
        Alcotest.failf "suggest leaked holdout point %s" u.name)
    ranked

(* ---- Serialization ---- *)

let test_model_roundtrip_byte_identical () =
  let m, _ = Lazy.force trained in
  let s = Calibrate.to_string m in
  match Calibrate.of_string s with
  | Error ft -> Alcotest.failf "of_string: %s" (Fault.to_string ft)
  | Ok m2 ->
    Alcotest.(check string) "save -> load -> save is the identity" s
      (Calibrate.to_string m2)

let test_rejects_truncation_and_flip () =
  let m, _ = Lazy.force trained in
  let s = Calibrate.to_string m in
  let expect_error what = function
    | Ok _ -> Alcotest.failf "%s: corrupt model accepted" what
    | Error (Fault.Bad_input _) -> ()
    | Error f ->
      Alcotest.failf "%s: wrong fault class %s" what (Fault.to_string f)
  in
  expect_error "truncated"
    (Calibrate.of_string (String.sub s 0 (String.length s / 2)));
  let b = Bytes.of_string s in
  Bytes.set b (String.length s / 3) 'Z';
  expect_error "byte flip" (Calibrate.of_string (Bytes.to_string b));
  expect_error "empty" (Calibrate.of_string "")

(* Corruption fuzzer, mirroring the profile-format fuzzer: truncation
   anywhere, any single-byte overwrite, any whole line deleted — the
   only acceptable outcomes are [Ok] (corruption the checksum cannot
   see never happens here, but the type allows it) or a structured
   [Error].  Never an exception. *)
let prop_calib_corruption_total =
  let base = lazy (Calibrate.to_string (fst (Lazy.force trained))) in
  QCheck.Test.make ~name:"corrupt calibration files never escape the result type"
    ~count:120
    QCheck.(triple (int_range 0 2) (int_bound 100_000) (int_bound 255))
    (fun (mode, pos, byte) ->
      let s = Lazy.force base in
      let n = String.length s in
      let corrupted =
        match mode with
        | 0 -> String.sub s 0 (pos mod n)
        | 1 ->
          let b = Bytes.of_string s in
          Bytes.set b (pos mod n) (Char.chr byte);
          Bytes.to_string b
        | _ ->
          let lines = String.split_on_char '\n' s in
          let k = pos mod List.length lines in
          String.concat "\n" (List.filteri (fun i _ -> i <> k) lines)
      in
      match Calibrate.of_string corrupted with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e))

(* ---- Training matrix ---- *)

let test_matrix_json_roundtrip () =
  let rows = Lazy.force matrix in
  let json = Validate.matrix_to_json rows in
  match Validate.matrix_of_json json with
  | Error ft -> Alcotest.failf "matrix_of_json: %s" (Fault.to_string ft)
  | Ok rows2 ->
    Alcotest.(check int) "row count" (List.length rows) (List.length rows2);
    (* Hex-float serialization makes the round trip bit-exact, so
       re-serializing must reproduce the bytes. *)
    Alcotest.(check string) "matrix -> JSON -> matrix is the identity" json
      (Validate.matrix_to_json rows2);
    List.iter2
      (fun (a : Validate.matrix_row) (b : Validate.matrix_row) ->
        Alcotest.(check string) "workload" a.mr_workload b.mr_workload;
        Alcotest.(check bool) "stats bit-exact" true (a.mr_stats = b.mr_stats);
        let bits_equal what f =
          Alcotest.(check int64) (what ^ " bit-exact")
            (Int64.bits_of_float (f a.mr_point))
            (Int64.bits_of_float (f b.mr_point))
        in
        bits_equal "sim cpi" (fun p -> p.Validate.vp_sim_cpi);
        bits_equal "model watts" (fun p -> p.Validate.vp_model_watts);
        bits_equal "sim watts" (fun p -> p.Validate.vp_sim_watts))
      rows rows2

let test_matrix_json_rejects_garbage () =
  let reject what s =
    match Validate.matrix_of_json s with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error (Fault.Bad_input _) -> ()
    | Error f ->
      Alcotest.failf "%s: wrong fault class %s" what (Fault.to_string f)
  in
  reject "empty" "";
  reject "not json" "hello";
  reject "wrong schema" "{\"schema\": \"other\", \"rows\": []}";
  reject "rows not a list" "{\"schema\": \"mipp-matrix-v2\", \"rows\": 3}";
  (* A v1 matrix carries no watts: refused with a pointer to the command
     that regenerates it, not read with missing columns. *)
  match Validate.matrix_of_json "{\"schema\": \"mipp-matrix-v1\", \"rows\": []}" with
  | Error (Fault.Bad_input _ as f) ->
    let msg = Fault.to_string f and hint = "--matrix-out" in
    let n = String.length hint in
    let rec names i =
      i + n <= String.length msg && (String.sub msg i n = hint || names (i + 1))
    in
    Alcotest.(check bool) ("v1 refusal names " ^ hint ^ ": " ^ msg) true (names 0)
  | Error f -> Alcotest.failf "v1: wrong fault class %s" (Fault.to_string f)
  | Ok _ -> Alcotest.fail "v1: accepted"

(* ---- Gate arithmetic ---- *)

let test_gate_semantics () =
  let ev = snd (Lazy.force trained) in
  Alcotest.(check bool) "holdout rows exist" true
    (ev.Calibrate.ev_holdout.se_n > 0);
  Alcotest.(check bool) "gate passes at 100%" true
    (Calibrate.passes_gate ev ~gate:1.0);
  Alcotest.(check bool) "gate fails at 0" false
    (Calibrate.passes_gate ev ~gate:0.0);
  (* Calibration must actually help on this fixture. *)
  Alcotest.(check bool) "calibrated beats uncalibrated on holdout" true
    (ev.ev_holdout.se_cal_mape < ev.ev_holdout.se_uncal_mape)

let () =
  Alcotest.run "calibrate"
    [
      ( "ridge",
        [
          QCheck_alcotest.to_alcotest prop_ridge_exact_recovery;
          Alcotest.test_case "rejects bad input" `Quick
            test_ridge_rejects_bad_input;
        ] );
      ( "stumps",
        [ QCheck_alcotest.to_alcotest prop_stump_loss_monotone ] );
      ( "split",
        [
          Alcotest.test_case "deterministic and order-free" `Quick
            test_split_deterministic_and_order_free;
        ] );
      ( "apply",
        [
          QCheck_alcotest.to_alcotest prop_calibrated_cpi_finite_nonnegative;
          Alcotest.test_case "identity model is the identity" `Quick
            test_identity_is_identity;
          Alcotest.test_case "zero rounds trains no stumps" `Quick
            test_zero_rounds_has_no_stumps;
          Alcotest.test_case "calibrated sweep bit-exact across jobs" `Quick
            test_calibrated_sweep_jobs_bit_exact;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "train twice, byte-identical" `Quick
            test_train_twice_byte_identical;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "suggest excludes holdout points" `Quick
            test_suggest_excludes_holdout;
        ] );
      ( "format",
        [
          Alcotest.test_case "round-trip byte-identical" `Quick
            test_model_roundtrip_byte_identical;
          Alcotest.test_case "rejects truncation and flips" `Quick
            test_rejects_truncation_and_flip;
          QCheck_alcotest.to_alcotest prop_calib_corruption_total;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "JSON round-trip bit-exact" `Quick
            test_matrix_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_matrix_json_rejects_garbage;
        ] );
      ( "gate",
        [ Alcotest.test_case "gate semantics" `Quick test_gate_semantics ] );
    ]
