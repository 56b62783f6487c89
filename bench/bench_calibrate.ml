(* The calibration regression: train the residual calibrator on the
   matrix `mipp validate --matrix sim` gates on for the three workload
   files, and hold it to hard gates — held-out calibrated MAPE at most
   half the uncalibrated baseline (4.33%), byte-identical re-training,
   and bit-exact application across job counts. *)
let calibrate () =
  Table.section "Grey-box calibration (residual learner over the CPI stack)";
  (* [workloads/] from the current directory or the executable's (dune
     puts it three levels below the repository root), and their
     parents. *)
  let candidates =
    let relative =
      [ "workloads"; "../workloads"; "../../workloads"; "../../../workloads" ]
    in
    relative @ List.map (Filename.concat (Filename.dirname Sys.executable_name)) relative
  in
  let workload_dir =
    match
      List.find_opt
        (fun d -> Sys.file_exists (Filename.concat d "streaming_fp.workload"))
        candidates
    with
    | Some d -> d
    | None ->
      Printf.eprintf "bench: calibrate: cannot locate the workloads/ directory (looked in %s)\n"
        (String.concat ", " candidates);
      exit 2
  in
  let specs =
    List.map
      (fun name ->
        match Workload_parser.load (Filename.concat workload_dir name) with
        | Ok spec -> spec
        | Error ft -> failwith ("calibrate: " ^ Fault.to_string ft))
      [ "branchy_interpreter.workload"; "pointer_soup.workload";
        "streaming_fp.workload" ]
  in
  let configs = Validate.matrix_configs `Sim in
  let reports, matrix_s =
    Harness.time @@ fun () ->
    List.map
      (fun spec ->
        match
          Validate.run_workload ~jobs:Harness.jobs ~seed:Harness.seed
            ~n_instructions:Harness.n_space ~spec configs
        with
        | Ok wr -> wr
        | Error ft -> failwith ("calibrate: " ^ Fault.to_string ft))
      specs
  in
  let rows = Validate.matrix_of_report (Validate.summarize reports) in
  let (model, ev), train_s =
    Harness.time @@ fun () ->
    match Calibrate.train rows with
    | Ok r -> r
    | Error ft -> failwith ("calibrate: " ^ Fault.to_string ft)
  in
  let pe label (e : Calibrate.set_error) =
    Printf.printf "  %-22s %3d points  MAPE %6.2f%% -> %6.2f%%\n" label
      e.Calibrate.se_n
      (100.0 *. e.se_uncal_mape)
      (100.0 *. e.se_cal_mape)
  in
  pe "train" ev.Calibrate.ev_train;
  pe "holdout" ev.ev_holdout;
  List.iter (fun (w, e) -> pe ("holdout/" ^ w) e) ev.ev_workloads;
  Printf.printf "  matrix %.1fs (%d rows), training %.2fs\n" matrix_s
    (List.length rows) train_s;
  (* Gate 1: held-out calibrated MAPE at most half the uncalibrated
     baseline. *)
  if not (Calibrate.passes_gate ev ~gate:Calibrate.default_gate) then
    failwith
      (Printf.sprintf
         "calibrate: held-out MAPE %.2f%% exceeds the %.2f%% gate"
         (100.0 *. ev.ev_holdout.se_cal_mape)
         (100.0 *. Calibrate.default_gate));
  (* Gate 2: training is deterministic — a second run over the same
     matrix serializes byte-identically. *)
  let model2 =
    match Calibrate.train rows with
    | Ok (m, _) -> m
    | Error ft -> failwith ("calibrate: " ^ Fault.to_string ft)
  in
  let deterministic = Calibrate.to_string model = Calibrate.to_string model2 in
  if not deterministic then
    failwith "calibrate: re-training is not byte-identical";
  (* Gate 3: applying the model is bit-exact across job counts. *)
  let profile =
    Profiler.profile (List.hd specs) ~seed:Harness.seed
      ~n_instructions:Harness.n_space
  in
  let adjust = Calibrate.sweep_adjust model ~profile in
  let fingerprint jobs =
    List.map
      (fun (e : Sweep.eval) -> Int64.bits_of_float e.sw_cycles)
      (Sweep.model_sweep ~jobs ~adjust ~profile Uarch.design_space)
  in
  let jobs_exact = fingerprint 1 = fingerprint (Harness.effective_jobs 4) in
  if not jobs_exact then
    failwith "calibrate: calibrated sweep is not bit-exact across job counts";
  Printf.printf
    "  re-train byte-identical: %b; -j 1 vs -j 4 apply bit-exact: %b\n"
    deterministic jobs_exact;
  Harness.write_report "BENCH_calibrate.json"
    Minijson.
      [
        ("n_rows", int (List.length rows));
        ("n_train", int ev.ev_train.se_n);
        ("n_holdout", int ev.ev_holdout.se_n);
        ("n_features", int (List.length model.Calibrate.c_feature_names));
        ("train_uncal_mape", Num ev.ev_train.se_uncal_mape);
        ("train_cal_mape", Num ev.ev_train.se_cal_mape);
        ("holdout_uncal_mape", Num ev.ev_holdout.se_uncal_mape);
        ("holdout_cal_mape", Num ev.ev_holdout.se_cal_mape);
        ("gate", Num Calibrate.default_gate);
        ("gate_passed", Bool (Calibrate.passes_gate ev ~gate:Calibrate.default_gate));
        ("retrain_byte_identical", Bool deterministic);
        ("jobs_bit_exact", Bool jobs_exact);
        ("matrix_seconds", Num matrix_s);
        ("train_seconds", Num train_s);
        ( "workloads",
          Obj
            (List.map
               (fun (w, (e : Calibrate.set_error)) ->
                 ( w,
                   Obj
                     [
                       ("uncal_mape", Num e.se_uncal_mape);
                       ("cal_mape", Num e.se_cal_mape);
                     ] ))
               ev.ev_workloads) );
      ]
