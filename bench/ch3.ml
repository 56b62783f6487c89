(* Chapter 3 of the thesis: the core model (Figs 3.1-3.10). *)

let fig3_1 () =
  Table.section "Fig 3.1 — micro-operations per instruction";
  Table.print ~header:[ "benchmark"; "uops/instruction" ]
    ~rows:
      (List.map
         (fun b -> [ b; Table.fmt_f (Harness.profile b).p_uops_per_instruction ])
         Harness.benchmarks);
  let ratios = List.map (fun b -> (Harness.profile b).p_uops_per_instruction) Harness.benchmarks in
  let lo, hi = Stats.min_max ratios in
  Printf.printf "range %.3f - %.3f (paper: ~1.07 for lbm to ~1.38 for GemsFDTD)\n" lo hi

let fig3_4 () =
  Table.section "Fig 3.4 — dependence chains (AP / ABP / CP) at ROB 128";
  Table.print ~header:[ "benchmark"; "AP"; "ABP"; "CP" ]
    ~rows:
      (List.map
         (fun b ->
           let p = Harness.profile b in
           Harness.row_of_floats b
             [
               Profile.mean_chain p ~which:`Ap ~rob:128;
               Profile.mean_chain p ~which:`Abp ~rob:128;
               Profile.mean_chain p ~which:`Cp ~rob:128;
             ])
         Harness.benchmarks);
  let ratio =
    Stats.mean
      (List.map
         (fun b ->
           let p = Harness.profile b in
           Profile.mean_chain p ~which:`Cp ~rob:128
           /. Profile.mean_chain p ~which:`Ap ~rob:128)
         Harness.benchmarks)
  in
  Printf.printf "CP is on average %.1fx the AP (paper: ~2.9x)\n" ratio

let fig3_6 () =
  Table.section "Fig 3.6 — effective dispatch rate limiters";
  Table.print
    ~header:[ "benchmark"; "width"; "dependences"; "ports"; "units"; "binding" ]
    ~rows:
      (List.map
         (fun b ->
           let l = (Harness.prediction b).pr_limits in
           Harness.row_of_floats b
             [ l.lim_width; l.lim_dependences; l.lim_ports; l.lim_units ]
           @ [ Dispatch_model.limiting_factor l ])
         Harness.benchmarks)

let fig3_7 () =
  Table.section
    "Fig 3.7 — base-component error vs a miss-event-free simulation, per refinement";
  (* Model variants evaluated against the perfect-pipeline simulator:
     instructions/D -> uops/D -> +critical path -> +ports/units. *)
  let perfect_cpis =
    List.map
      (fun b ->
        ( b,
          Sim_result.cpi
            (Simulator.run ~ideal:Simulator.perfect Uarch.reference
               (Benchmarks.find b) ~seed:Harness.seed ~n_instructions:100_000) ))
      Harness.benchmarks
  in
  let base_only = (* kill every non-base component *)
    {
      (Harness.model_options ()) with
      overrides =
        {
          Interval_model.no_overrides with
          ov_branch_missrate = Some 0.0;
          ov_load_miss_ratios = Some (0.0, 0.0, 0.0);
          ov_store_miss_ratios = Some (0.0, 0.0, 0.0);
          ov_inst_miss_ratios = Some (0.0, 0.0, 0.0);
        };
    }
  in
  let variants =
    [
      ("instructions / D", { base_only with use_uops = false;
                             use_critical_path = false; use_port_contention = false });
      ("micro-ops / D", { base_only with use_critical_path = false;
                          use_port_contention = false });
      ("+ critical path", { base_only with use_port_contention = false });
      ("+ ports & units", base_only);
    ]
  in
  let rows, summaries =
    List.fold_left
      (fun (rows, summaries) (label, options) ->
        let errors =
          List.map
            (fun (b, perfect) ->
              let pred =
                Interval_model.predict ~options Uarch.reference (Harness.profile b)
              in
              Stats.relative_error ~predicted:(Interval_model.cpi pred)
                ~reference:perfect)
            perfect_cpis
        in
        ( rows
          @ [
              [
                label;
                Table.fmt_pct (Stats.mean_abs errors);
                Table.fmt_pct (Stats.max_abs errors);
              ];
            ],
          summaries @ [ (label, Stats.mean_abs errors) ] ))
      ([], []) variants
  in
  Table.print ~header:[ "base-component variant"; "mean |err|"; "max |err|" ] ~rows;
  let decreasing =
    let rec check = function
      | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 0.02 && check rest
      | _ -> true
    in
    check summaries
  in
  Printf.printf "error decreases with each refinement: %b (paper: 41.6%% -> 11.7%%)\n"
    decreasing

let fig3_9 () =
  Table.section "Fig 3.9 — linear branch entropy vs predictor miss rate";
  let m = Harness.entropy_model_for Uarch.Gshare in
  Printf.printf "gshare fit over %d (entropy, missrate) points: missrate = %.3f*E %+.4f, r2 = %.3f\n"
    (List.length m.training_points) m.fit.slope m.fit.intercept m.r2;
  let sorted = List.sort compare m.training_points in
  let n = List.length sorted in
  let sample = List.filteri (fun i _ -> i mod (max 1 (n / 10)) = 0) sorted in
  Table.print ~header:[ "entropy"; "miss rate" ]
    ~rows:(List.map (fun (e, r) -> [ Table.fmt_f e; Table.fmt_f r ]) sample);
  Printf.printf "positive slope: %b (the paper's linear relation)\n" (m.fit.slope > 0.0)

let fig3_10 () =
  Table.section "Fig 3.10 — entropy-model MPKI error, five predictors";
  let rows =
    List.map
      (fun kind ->
        let m = Harness.entropy_model_for kind in
        (* Held-out evaluation: fresh segments of every benchmark. *)
        let errors, mpkis =
          List.split
            (List.map
               (fun (_, spec) ->
                 let gen = Workload_gen.create spec ~seed:777 in
                 Workload_gen.skip gen ~n_instructions:50_000;
                 let predictor =
                   Predictor.create { Uarch.reference.predictor with kind }
                 in
                 let entropy = Entropy.create ~history_bits:4 () in
                 let branches = ref 0 and uops = ref 0 in
                 Workload_gen.iter_uops gen ~n_instructions:60_000
                   ~f:(fun (u : Isa.uop) ->
                     incr uops;
                     if u.cls = Isa.Branch then begin
                       incr branches;
                       Entropy.observe entropy ~static_id:u.static_id ~taken:u.taken;
                       ignore
                         (Predictor.predict_and_update predictor
                            ~static_id:u.static_id ~taken:u.taken)
                     end);
                 let bpk = 1000.0 *. float_of_int !branches /. float_of_int !uops in
                 ( Entropy_model.mpki_error m
                     ~entropy:(Entropy.linear_entropy entropy)
                     ~actual_miss_rate:(Predictor.miss_rate predictor)
                     ~branch_per_kilo_uops:bpk,
                   Predictor.miss_rate predictor *. bpk ))
               Benchmarks.all)
        in
        let b = Stats.box_summary errors in
        [
          Uarch.predictor_kind_to_string kind;
          Table.fmt_f (Stats.mean mpkis);
          Table.fmt_f (Stats.mean_abs errors);
          Table.fmt_f b.q1;
          Table.fmt_f b.median;
          Table.fmt_f b.q3;
        ])
      Uarch.all_predictor_kinds
  in
  Table.print
    ~header:
      [ "predictor"; "avg MPKI"; "mean |err| MPKI"; "err q1"; "err median"; "err q3" ]
    ~rows;
  print_endline "(paper: avg MPKI 6.9-9.3, absolute errors ~0.6-1.1 MPKI)"
