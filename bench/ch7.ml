(* Chapter 7 of the thesis: applications (Tables 7.1-7.2, Figs 7.4-7.13). *)

let tab7_1 () =
  Table.section "Table 7.1 — optimizing performance under a power budget";
  let budget = 16.0 in
  Table.print
    ~header:
      [ "benchmark"; "model pick"; "model W"; "sim-validated W"; "sim pick";
        "agreement" ]
    ~rows:
      (List.map
         (fun b ->
           let r = Harness.space_result b in
           let name_of id = (List.nth Harness.sim_subspace id).Uarch.name in
           let sim = Harness.sim_pareto_points r in
           let pick points = Sweep.best_under_power points ~budget_watts:budget in
           match (pick (Harness.model_pareto_points r), pick sim) with
           | Some m, Some s ->
             let validated = List.nth sim m.pt_id in
             [
               b;
               name_of m.pt_id;
               Table.fmt_f ~decimals:1 m.pt_power;
               Table.fmt_f ~decimals:1 validated.pt_power;
               name_of s.pt_id;
               (if m.pt_id = s.pt_id then "exact"
                else
                  Printf.sprintf "%.1f%% slower"
                    (100.0
                    *. (validated.pt_delay -. s.pt_delay)
                    /. s.pt_delay));
             ]
           | _ -> [ b; "-"; "-"; "-"; "-"; "no feasible design" ])
         [ "gamess"; "bzip2"; "gcc"; "mcf"; "milc"; "povray"; "sjeng"; "wrf" ])

let tab7_2 () =
  Table.section "Table 7.2 / Fig 7.3 — DVFS: ED2P per operating point";
  List.iter
    (fun b ->
      let spec = Benchmarks.find b in
      let profile = Harness.profile b in
      Printf.printf "\n%s:\n" b;
      let best_model = ref (0.0, infinity) and best_sim = ref (0.0, infinity) in
      Table.print
        ~header:[ "operating point"; "model ED2P"; "sim ED2P" ]
        ~rows:
          (List.map
             (fun (freq_ghz, vdd) ->
               let uarch = Uarch.with_dvfs Uarch.reference ~freq_ghz ~vdd in
               (* Memory is wall-clock constant: both the DRAM latency and
                  the bus occupancy rescale in core cycles. *)
               let scale v =
                 max 1 (int_of_float (float_of_int v *. freq_ghz /. 2.66))
               in
               let uarch =
                 { uarch with
                   memory =
                     { uarch.memory with
                       dram_latency = scale Uarch.reference.memory.dram_latency;
                       bus_transfer = scale Uarch.reference.memory.bus_transfer } }
               in
               let pred =
                 Interval_model.predict ~options:(Harness.model_options ()) uarch
                   profile
               in
               let m_ed2p =
                 Power.ed2p uarch
                   (Power.estimate uarch pred.pr_activity)
                   ~cycles:pred.pr_cycles
               in
               let sim =
                 Simulator.run uarch spec ~seed:Harness.seed
                   ~n_instructions:Harness.n_ref
               in
               let s_ed2p =
                 Power.ed2p uarch
                   (Power.estimate uarch sim.r_activity)
                   ~cycles:(float_of_int sim.r_cycles)
               in
               (* sim runs fewer instructions: compare shapes, not values;
                  normalize by instruction count cubed (E*t^2 ~ n^3). *)
               let norm v instr = v /. (instr ** 3.0) *. 1e27 in
               let mv = norm m_ed2p pred.pr_instructions in
               let sv = norm s_ed2p (float_of_int sim.r_instructions) in
               if mv < snd !best_model then best_model := (freq_ghz, mv);
               if sv < snd !best_sim then best_sim := (freq_ghz, sv);
               [ Printf.sprintf "%.2f GHz @ %.2f V" freq_ghz vdd;
                 Printf.sprintf "%.3f" mv; Printf.sprintf "%.3f" sv ])
             Uarch.dvfs_points);
      Printf.printf "ED2P-optimal frequency: model %.2f GHz, sim %.2f GHz\n"
        (fst !best_model) (fst !best_sim))
    [ "povray"; "milc" ]

let fig7_4 () =
  Table.section "Fig 7.4/7.5 — Pareto frontiers: model vs simulation";
  List.iter
    (fun b ->
      let r = Harness.space_result b in
      let front points =
        Pareto.frontier points
        |> List.map (fun (p : Pareto.point) ->
               (List.nth Harness.sim_subspace p.pt_id).Uarch.name)
      in
      let model_front = front (Harness.model_pareto_points r) in
      let sim_front = front (Harness.sim_pareto_points r) in
      Printf.printf "\n%s\n  model front (%d): %s\n  sim front   (%d): %s\n" b
        (List.length model_front)
        (String.concat ", " model_front)
        (List.length sim_front)
        (String.concat ", " sim_front))
    [ "bzip2"; "calculix"; "gromacs"; "xalancbmk" ]

let fig7_7 () =
  Table.section
    "Fig 7.6-7.9 — Pareto pruning quality: sensitivity / specificity / accuracy / HVR";
  let qualities =
    List.map
      (fun b ->
        let r = Harness.space_result b in
        ( b,
          Pareto.quality
            ~truth:(Harness.sim_pareto_points r)
            ~predicted:(Harness.model_pareto_points r) ))
      Harness.benchmarks
  in
  Table.print
    ~header:[ "benchmark"; "sensitivity"; "specificity"; "accuracy"; "HVR" ]
    ~rows:
      (List.map
         (fun (b, (q : Pareto.quality)) ->
           [
             b;
             Table.fmt_pct q.sensitivity;
             Table.fmt_pct q.specificity;
             Table.fmt_pct q.accuracy;
             Table.fmt_pct q.hvr;
           ])
         qualities);
  let avg f = Stats.mean (List.map (fun (_, q) -> f q) qualities) in
  Printf.printf
    "averages: sensitivity %s, specificity %s, accuracy %s, HVR %s\n\
     (paper: 46.2%% / 87.9%% / 76.8%% / 97.0%%)\n"
    (Table.fmt_pct (avg (fun (q : Pareto.quality) -> q.sensitivity)))
    (Table.fmt_pct (avg (fun (q : Pareto.quality) -> q.specificity)))
    (Table.fmt_pct (avg (fun (q : Pareto.quality) -> q.accuracy)))
    (Table.fmt_pct (avg (fun (q : Pareto.quality) -> q.hvr)))

let fig7_10 () =
  Table.section
    "Fig 7.10-7.13 — mechanistic model vs empirical regression on Pareto metrics";
  let rows, sums =
    List.fold_left
      (fun (rows, (sm, se, hm, he)) b ->
        let r = Harness.space_result b in
        (* Train the empirical model on a third of the simulated points;
           the mechanistic model gets NO simulations of this space at all. *)
        let training =
          List.filteri (fun i _ -> i mod 3 = 0) r
          |> List.map (fun (p : Validate.point) ->
                 (p.vp_uarch, p.vp_sim_cpi, p.vp_sim_watts))
        in
        let em = Empirical.train training in
        let empirical_points =
          List.map
            (fun (p : Validate.point) ->
              let cpi, watts = Empirical.predict em p.vp_uarch in
              Harness.space_pareto_point p.vp_uarch ~index:p.vp_index ~cpi ~watts)
            r
        in
        let truth = Harness.sim_pareto_points r in
        let q_mech =
          Pareto.quality ~truth ~predicted:(Harness.model_pareto_points r)
        in
        let q_emp = Pareto.quality ~truth ~predicted:empirical_points in
        ( rows
          @ [
              [
                b;
                Table.fmt_pct q_mech.sensitivity;
                Table.fmt_pct q_emp.sensitivity;
                Table.fmt_pct q_mech.hvr;
                Table.fmt_pct q_emp.hvr;
              ];
            ],
          ( sm +. q_mech.sensitivity,
            se +. q_emp.sensitivity,
            hm +. q_mech.hvr,
            he +. q_emp.hvr ) ))
      ([], (0.0, 0.0, 0.0, 0.0))
      Harness.benchmarks
  in
  Table.print
    ~header:
      [ "benchmark"; "mech sens"; "empir sens"; "mech HVR"; "empir HVR" ]
    ~rows;
  let n = float_of_int (List.length Harness.benchmarks) in
  let sm, se, hm, he = sums in
  Printf.printf
    "averages: sensitivity mech %s vs empirical %s; HVR mech %s vs empirical %s\n\
     (paper: the empirical model is accurate on average but misses trends)\n"
    (Table.fmt_pct (sm /. n)) (Table.fmt_pct (se /. n)) (Table.fmt_pct (hm /. n))
    (Table.fmt_pct (he /. n))
