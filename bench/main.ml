(* Experiment harness: one entry per table/figure of the paper's
   evaluation (see DESIGN.md §4 for the index).

     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- --list       list experiment ids
     dune exec bench/main.exe -- --only ID    run one experiment *)

let benchmarks = Harness.all_benchmarks

let row_of_floats name values = name :: List.map Table.fmt_f values

(* ================= Chapter 3: the core model ================= *)

let fig3_1 () =
  Table.section "Fig 3.1 — micro-operations per instruction";
  Table.print ~header:[ "benchmark"; "uops/instruction" ]
    ~rows:
      (List.map
         (fun b -> [ b; Table.fmt_f (Harness.profile b).p_uops_per_instruction ])
         benchmarks);
  let ratios = List.map (fun b -> (Harness.profile b).p_uops_per_instruction) benchmarks in
  let lo, hi = Stats.min_max ratios in
  Printf.printf "range %.3f - %.3f (paper: ~1.07 for lbm to ~1.38 for GemsFDTD)\n" lo hi

let fig3_4 () =
  Table.section "Fig 3.4 — dependence chains (AP / ABP / CP) at ROB 128";
  Table.print ~header:[ "benchmark"; "AP"; "ABP"; "CP" ]
    ~rows:
      (List.map
         (fun b ->
           let p = Harness.profile b in
           row_of_floats b
             [
               Profile.mean_chain p ~which:`Ap ~rob:128;
               Profile.mean_chain p ~which:`Abp ~rob:128;
               Profile.mean_chain p ~which:`Cp ~rob:128;
             ])
         benchmarks);
  let ratio =
    Stats.mean
      (List.map
         (fun b ->
           let p = Harness.profile b in
           Profile.mean_chain p ~which:`Cp ~rob:128
           /. Profile.mean_chain p ~which:`Ap ~rob:128)
         benchmarks)
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
           row_of_floats b
             [ l.lim_width; l.lim_dependences; l.lim_ports; l.lim_units ]
           @ [ Dispatch_model.limiting_factor l ])
         benchmarks)

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
      benchmarks
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

(* ================= Chapter 4: the memory subsystem ================= *)

let fig4_2 () =
  Table.section "Fig 4.2 — cache MPKI: StatStack model vs simulation (L1/L2/L3)";
  let errors = ref [] in
  Table.print
    ~header:
      [ "benchmark"; "L1 model"; "L1 sim"; "L2 model"; "L2 sim"; "L3 model"; "L3 sim" ]
    ~rows:
      (List.map
         (fun b ->
           let pred = Harness.prediction b and sim = Harness.sim b in
           let instr = pred.pr_instructions in
           let m1, m2, m3 = pred.pr_load_misses in
           let mk v = 1000.0 *. v /. instr in
           let s1 = Sim_result.mpki sim `L1 in
           let s2 = Sim_result.mpki sim `L2 in
           let s3 = Sim_result.mpki sim `L3 in
           List.iter
             (fun (m, s) ->
               if s > 10.0 then
                 errors := Float.abs ((m -. s) /. s) :: !errors)
             [ (mk m1, s1); (mk m2, s2); (mk m3, s3) ];
           [
             b;
             Table.fmt_f ~decimals:1 (mk m1);
             Table.fmt_f ~decimals:1 s1;
             Table.fmt_f ~decimals:1 (mk m2);
             Table.fmt_f ~decimals:1 s2;
             Table.fmt_f ~decimals:1 (mk m3);
             Table.fmt_f ~decimals:1 s3;
           ])
         benchmarks);
  Printf.printf "mean relative error where MPKI > 10: %s (paper: 3.5-6.7%%)\n"
    (Table.fmt_pct (Stats.mean !errors))

let fig4_3 () =
  Table.section "Fig 4.3 — execution time with and without MLP modeling";
  let no_mlp_opts = { (Harness.model_options ()) with model_mlp = false } in
  let errs_with = ref [] and errs_without = ref [] in
  Table.print
    ~header:[ "benchmark"; "sim CPI"; "model CPI"; "model CPI (no MLP)" ]
    ~rows:
      (List.map
         (fun b ->
           let sim_cpi = Sim_result.cpi (Harness.sim b) in
           let with_mlp = Interval_model.cpi (Harness.prediction b) in
           let without =
             Interval_model.cpi
               (Interval_model.predict ~options:no_mlp_opts Uarch.reference
                  (Harness.profile b))
           in
           errs_with :=
             Float.abs (Stats.relative_error ~predicted:with_mlp ~reference:sim_cpi)
             :: !errs_with;
           errs_without :=
             Float.abs (Stats.relative_error ~predicted:without ~reference:sim_cpi)
             :: !errs_without;
           row_of_floats b [ sim_cpi; with_mlp; without ])
         benchmarks);
  Printf.printf "mean |error|: with MLP %s, without %s (paper: no-MLP averages 24.6%%)\n"
    (Table.fmt_pct (Stats.mean !errs_with))
    (Table.fmt_pct (Stats.mean !errs_without))

let fig4_4 () =
  Table.section "Fig 4.4 — cold vs capacity LLC misses, with and without warmup";
  let breakdown b ~warmup =
    let gen = Workload_gen.create (Benchmarks.find b) ~seed:Harness.seed in
    let h = Hierarchy.create Uarch.reference.caches in
    let touch (u : Isa.uop) =
      if Isa.is_memory u then
        ignore (Hierarchy.access_data h u.addr ~write:(u.cls = Isa.Store))
    in
    Workload_gen.iter_uops gen ~n_instructions:warmup ~f:touch;
    let s0 = Hierarchy.data_stats h Hierarchy.L3 in
    Workload_gen.iter_uops gen ~n_instructions:100_000 ~f:touch;
    let s1 = Hierarchy.data_stats h Hierarchy.L3 in
    let cold_l = s1.cold_load_misses - s0.cold_load_misses in
    let cold_s = s1.cold_store_misses - s0.cold_store_misses in
    let cap_l = s1.load_misses - s0.load_misses - cold_l in
    let cap_s = s1.store_misses - s0.store_misses - cold_s in
    (cold_l, cold_s, cap_l, cap_s)
  in
  let interesting = Benchmarks.memory_bound in
  Table.print
    ~header:
      [ "benchmark"; "cold ld"; "cold st"; "cap ld"; "cap st";
        "cold ld (warm)"; "cold st (warm)"; "cap ld (warm)"; "cap st (warm)" ]
    ~rows:
      (List.map
         (fun b ->
           let c1, c2, c3, c4 = breakdown b ~warmup:0 in
           let w1, w2, w3, w4 = breakdown b ~warmup:100_000 in
           b :: List.map string_of_int [ c1; c2; c3; c4; w1; w2; w3; w4 ])
         interesting);
  print_endline
    "(paper: warmup shrinks the cold share for some benchmarks but not all)"

let fig4_7 () =
  Table.section "Fig 4.7 — stride-category shares of dynamic loads";
  let labels = [ "STRIDE"; "FILTER-1"; "FILTER-2"; "FILTER-3"; "FILTER-4";
                 "RANDOM"; "UNIQUE" ] in
  Table.print
    ~header:("benchmark" :: labels)
    ~rows:
      (List.map
         (fun b ->
           let totals = Hashtbl.create 8 in
           let all = ref 0 in
           Array.iter
             (fun (mt : Profile.microtrace) ->
               List.iter
                 (fun (sl : Profile.static_load) ->
                   let label = Stride_class.fig_label sl in
                   Hashtbl.replace totals label
                     (sl.sl_count
                     + Option.value (Hashtbl.find_opt totals label) ~default:0);
                   all := !all + sl.sl_count)
                 mt.mt_static_loads)
             (Harness.profile b).p_microtraces;
           b
           :: List.map
                (fun l ->
                  let c = Option.value (Hashtbl.find_opt totals l) ~default:0 in
                  Table.fmt_pct (float_of_int c /. float_of_int (max 1 !all)))
                labels)
         benchmarks);
  print_endline
    "(paper: libquantum/lbm stride-dominated; cactusADM/omnetpp/xalancbmk >50% unique)"

let fig4_9 () =
  Table.section "Fig 4.9 — gcc CPI over time, with and without LLC-hit chaining";
  let n = 600_000 in
  let spec = Benchmarks.find "gcc" in
  let sim =
    Simulator.run ~time_series_interval:30_000 Uarch.reference spec
      ~seed:Harness.seed ~n_instructions:n
  in
  let profile = Profiler.profile spec ~seed:Harness.seed ~n_instructions:n in
  let pred = Interval_model.predict ~options:(Harness.model_options ()) Uarch.reference profile in
  let no_chain =
    Interval_model.predict
      ~options:{ (Harness.model_options ()) with model_llc_chain = false }
      Uarch.reference profile
  in
  (* Align model micro-traces (one per 10k window) with 30k sim intervals. *)
  let model_cpi_at series lo hi =
    let vals =
      Array.to_list series
      |> List.filter_map (fun (i, c) -> if i >= lo && i < hi then Some c else None)
    in
    Stats.mean vals
  in
  Table.print
    ~header:[ "instructions"; "sim CPI"; "model CPI"; "model CPI (no chaining)" ]
    ~rows:
      (Array.to_list sim.r_time_series
      |> List.map (fun (instr, cpi) ->
             [
               string_of_int instr;
               Table.fmt_f cpi;
               Table.fmt_f (model_cpi_at pred.pr_time_series (instr - 30_000) instr);
               Table.fmt_f (model_cpi_at no_chain.pr_time_series (instr - 30_000) instr);
             ]));
  Printf.printf "total CPI: sim %.3f, model %.3f, model w/o chaining %.3f\n"
    (Sim_result.cpi sim) (Interval_model.cpi pred) (Interval_model.cpi no_chain)

(* ================= Chapter 5: sampling ================= *)

let fig5_2 () =
  Table.section "Fig 5.2 — sampled vs unsampled instruction mix (Eq 5.1 error)";
  let rows =
    List.map
      (fun b ->
        let sampled = Profile.total_mix (Harness.profile b) in
        let full =
          Profiler.full_instruction_mix (Benchmarks.find b) ~seed:Harness.seed
            ~n_instructions:Harness.n_ref
        in
        let st = float_of_int (Isa.Class_counts.total sampled) in
        let ft = float_of_int (Isa.Class_counts.total full) in
        let errs =
          List.map
            (fun cls ->
              Float.abs
                ((float_of_int (Isa.Class_counts.get sampled cls) /. st)
                -. (float_of_int (Isa.Class_counts.get full cls) /. ft)))
            Isa.all_classes
        in
        [ b; Table.fmt_pct (Stats.mean errs); Table.fmt_pct (Stats.max_abs errs) ])
      benchmarks
  in
  Table.print ~header:[ "benchmark"; "mean category err"; "max category err" ] ~rows;
  print_endline "(paper: average 0.08%, maximum 1.8%)"

let fig5_3 () =
  Table.section "Fig 5.3/5.4 — dependence-chain interpolation error across ROB sizes";
  let coarse = [| 32; 64; 128; 256 |] in
  let fine = Dep_chains.default_rob_sizes in
  let rows =
    List.map
      (fun b ->
        let spec = Benchmarks.find b in
        let cfg_fine = { Profiler.default_config with rob_sizes = fine } in
        let cfg_coarse = { Profiler.default_config with rob_sizes = coarse } in
        let pf = Profiler.profile ~config:cfg_fine spec ~seed:Harness.seed
            ~n_instructions:50_000 in
        let pc = Profiler.profile ~config:cfg_coarse spec ~seed:Harness.seed
            ~n_instructions:50_000 in
        let err which =
          let es =
            Array.to_list fine
            |> List.filter_map (fun rob ->
                   if Array.exists (( = ) rob) coarse then None
                   else begin
                     let interpolated = Profile.mean_chain pc ~which ~rob in
                     let measured = Profile.mean_chain pf ~which ~rob in
                     if measured <= 0.0 then None
                     else Some (Float.abs ((interpolated -. measured) /. measured))
                   end)
          in
          Stats.mean es
        in
        [ b; Table.fmt_pct (err `Ap); Table.fmt_pct (err `Abp); Table.fmt_pct (err `Cp) ])
      benchmarks
  in
  Table.print ~header:[ "benchmark"; "AP err"; "ABP err"; "CP err" ] ~rows;
  print_endline "(paper: 0.34% / 0.23% / 0.61% average; worst below 1%)"

let fig5_5 () =
  Table.section "Fig 5.5 — dependence-chain sampling error (micro-traces vs full)";
  let n = 40_000 in
  let rows =
    List.map
      (fun b ->
        let spec = Benchmarks.find b in
        let full = Profiler.full_chains ~rob_sizes:[| 128 |] spec ~seed:Harness.seed
            ~n_instructions:n in
        let sampled = Profiler.profile spec ~seed:Harness.seed ~n_instructions:n in
        let err which full_v =
          if full_v <= 0.0 then 0.0
          else
            Float.abs ((Profile.mean_chain sampled ~which ~rob:128 -. full_v) /. full_v)
        in
        [
          b;
          Table.fmt_pct (err `Ap full.ap.(0));
          Table.fmt_pct (err `Abp full.abp.(0));
          Table.fmt_pct (err `Cp full.cp.(0));
        ])
      benchmarks
  in
  Table.print ~header:[ "benchmark"; "AP err"; "ABP err"; "CP err" ] ~rows;
  print_endline "(paper: AP/CP ~0.4%; ABP noisier at ~4%)"

let fig5_6 () =
  Table.section "Fig 5.6 — branch component share of execution time (simulator)";
  Table.print ~header:[ "benchmark"; "branch CPI"; "other CPI"; "branch share" ]
    ~rows:
      (List.map
         (fun b ->
           let r = Harness.sim b in
           let instr = float_of_int r.r_instructions in
           let branch = r.r_stack.s_branch /. instr in
           let total = Sim_result.cpi r in
           [
             b;
             Table.fmt_f branch;
             Table.fmt_f (total -. branch);
             Table.fmt_pct (branch /. total);
           ])
         benchmarks)

(* ================= Chapter 6: evaluation ================= *)

let tab6_1 () =
  Table.section "Table 6.1 — reference architecture (Nehalem-like)";
  Table.print ~header:[ "parameter"; "value" ]
    ~rows:(List.map (fun (k, v) -> [ k; v ]) (Uarch.describe Uarch.reference))

let fig6_1 () =
  Table.section "Fig 6.1 — CPI stacks: model vs simulator (reference architecture)";
  let errors = ref [] in
  Table.print
    ~header:
      [ "benchmark"; "src"; "CPI"; "base"; "branch"; "icache"; "llc-hit"; "dram" ]
    ~rows:
      (List.concat_map
         (fun b ->
           let pred = Harness.prediction b and sim = Harness.sim b in
           let pi = pred.pr_instructions in
           let si = float_of_int sim.r_instructions in
           errors := Float.abs (Harness.cpi_error b) :: !errors;
           [
             b :: "model" :: Table.fmt_f (Interval_model.cpi pred)
             :: List.map
                  (fun (_, v) -> Table.fmt_f (v /. pi))
                  (Interval_model.components_list pred.pr_components);
             "" :: "sim" :: Table.fmt_f (Sim_result.cpi sim)
             :: List.map
                  (fun (_, v) -> Table.fmt_f (v /. si))
                  (Sim_result.stack_components sim.r_stack);
           ])
         benchmarks);
  Printf.printf "average absolute CPI error: %s (paper: 7.6%%)\n"
    (Table.fmt_pct (Stats.mean !errors))

let fig6_3 () =
  Table.section "Fig 6.3 — prediction error vs number of instructions profiled";
  let names = [ "gamess"; "bzip2"; "mcf"; "milc"; "gcc"; "wrf" ] in
  let windows = [ 2_000; 5_000; 10_000; 20_000; 50_000 ] in
  let rows =
    List.map
      (fun window ->
        let errors =
          List.map
            (fun b ->
              let cfg = { Profiler.default_config with window_instructions = window } in
              let p =
                Profiler.profile ~config:cfg (Benchmarks.find b) ~seed:Harness.seed
                  ~n_instructions:Harness.n_ref
              in
              let pred =
                Interval_model.predict ~options:(Harness.model_options ())
                  Uarch.reference p
              in
              Float.abs
                (Stats.relative_error
                   ~predicted:(Interval_model.cpi pred)
                   ~reference:(Sim_result.cpi (Harness.sim b))))
            names
        in
        let fraction = float_of_int 1000 /. float_of_int window in
        [
          Printf.sprintf "1k per %dk" (window / 1000);
          Table.fmt_pct fraction;
          Table.fmt_pct (Stats.mean errors);
        ])
      windows
  in
  Table.print ~header:[ "sampling"; "profiled fraction"; "mean |CPI err|" ] ~rows;
  print_endline "(paper: error stabilizes once enough micro-traces are profiled)"

let tab6_2 () =
  Table.section
    "Table 6.2 — error when each micro-architecture independent input replaces \
     its simulated counterpart";
  (* Simulation-derived inputs from the reference run. *)
  let sim_inputs b =
    let r = Harness.sim b in
    let mix = Profile.total_mix (Harness.profile b) in
    let loads = float_of_int (Isa.Class_counts.get mix Isa.Load) in
    let stores = float_of_int (Isa.Class_counts.get mix Isa.Store) in
    let total = float_of_int (Isa.Class_counts.total mix) in
    let instr = float_of_int r.r_instructions in
    (* per-access ratios from sim counts, rescaled to the profile's scale *)
    let scale_load = loads /. total *. float_of_int r.r_uops in
    let scale_store = stores /. total *. float_of_int r.r_uops in
    let lr =
      ( float_of_int r.r_l1d.load_misses /. scale_load,
        float_of_int r.r_l2.load_misses /. scale_load,
        float_of_int r.r_l3.load_misses /. scale_load )
    in
    let sr =
      ( float_of_int r.r_l1d.store_misses /. Float.max 1.0 scale_store,
        float_of_int r.r_l2.store_misses /. Float.max 1.0 scale_store,
        float_of_int r.r_l3.store_misses /. Float.max 1.0 scale_store )
    in
    let i1, i2, i3 = r.r_inst_misses in
    let ir =
      ( float_of_int i1 /. instr,
        float_of_int i2 /. instr,
        float_of_int i3 /. instr )
    in
    let br =
      float_of_int r.r_branch_mispredicts /. float_of_int (max 1 r.r_branches)
    in
    (br, lr, sr, ir, r.r_mlp)
  in
  let evaluate label make_overrides =
    let errors =
      List.map
        (fun b ->
          let br, lr, sr, ir, mlp = sim_inputs b in
          let overrides = make_overrides br lr sr ir mlp in
          let pred =
            Interval_model.predict
              ~options:{ (Harness.model_options ()) with overrides }
              Uarch.reference (Harness.profile b)
          in
          Float.abs
            (Stats.relative_error ~predicted:(Interval_model.cpi pred)
               ~reference:(Sim_result.cpi (Harness.sim b))))
        benchmarks
    in
    [ label; Table.fmt_pct (Stats.mean errors); Table.fmt_pct (Stats.max_abs errors) ]
  in
  let some = Option.some in
  Table.print
    ~header:[ "inputs"; "mean |err|"; "max |err|" ]
    ~rows:
      [
        evaluate "all inputs simulated (interval-model baseline)"
          (fun br lr sr ir mlp ->
            { Interval_model.ov_branch_missrate = some br;
              ov_load_miss_ratios = some lr; ov_store_miss_ratios = some sr;
              ov_inst_miss_ratios = some ir; ov_mlp = some mlp });
        evaluate "+ linear branch entropy" (fun _ lr sr ir mlp ->
            { Interval_model.no_overrides with
              ov_load_miss_ratios = some lr; ov_store_miss_ratios = some sr;
              ov_inst_miss_ratios = some ir; ov_mlp = some mlp });
        evaluate "+ StatStack cache model" (fun _ _ _ _ mlp ->
            { Interval_model.no_overrides with ov_mlp = some mlp });
        evaluate "+ MLP model (fully micro-architecture independent)"
          (fun _ _ _ _ _ -> Interval_model.no_overrides);
      ];
  print_endline
    "note: in the paper the simulated-input baseline is the most accurate and\n\
     each statistical substitute costs a little accuracy.  Here the fully\n\
     independent configuration wins: the statistical components are\n\
     co-designed (e.g. the stride-MLP estimate is calibrated against the\n\
     model's own bus/MSHR treatment), so hybrids that mix measured and\n\
     modeled inputs are internally inconsistent — most visibly a measured\n\
     MLP, which already embeds bus serialization, under the model's latency\n\
     decomposition."
      

let tab6_3 () =
  Table.section "Table 6.3 — core configuration design space (3^5 = 243 points)";
  Table.print ~header:[ "axis"; "values" ]
    ~rows:
      (List.map
         (fun (axis, values) -> [ axis; String.concat ", " values ])
         Uarch.design_space_axes);
  Printf.printf
    "%d design points in total; the simulation-backed experiments use the\n\
     27-point width x ROB x L3 sub-space at the reference L1/L2 sizes.\n"
    (List.length Uarch.design_space)

let design_space_errors () =
  List.concat_map
    (fun b ->
      let r = Harness.space_result b in
      List.map2
        (fun (m : Sweep.eval) (s : Sweep.eval) ->
          (Stats.relative_error ~predicted:m.sw_cpi ~reference:s.sw_cpi,
           Stats.relative_error ~predicted:m.sw_watts ~reference:s.sw_watts))
        r.sp_model r.sp_sim)
    benchmarks

let fig6_5 () =
  Table.section
    "Fig 6.4-6.6 — CPI error across the design space (27 sim-backed points x 29 \
     benchmarks)";
  (* Fig 6.4: separate vs combined micro-trace evaluation. *)
  let combined_opts = { (Harness.model_options ()) with combine = `Combined } in
  let sep_errors = ref [] and comb_errors = ref [] in
  List.iter
    (fun b ->
      let r = Harness.space_result b in
      let profile =
        Profiler.profile (Benchmarks.find b) ~seed:Harness.seed
          ~n_instructions:Harness.n_space
      in
      let combined =
        Sweep.model_sweep ~options:combined_opts ~profile Harness.sim_subspace
      in
      List.iter2
        (fun (m : Sweep.eval) (s : Sweep.eval) ->
          sep_errors :=
            Float.abs (Stats.relative_error ~predicted:m.sw_cpi ~reference:s.sw_cpi)
            :: !sep_errors)
        r.sp_model r.sp_sim;
      List.iter2
        (fun (m : Sweep.eval) (s : Sweep.eval) ->
          comb_errors :=
            Float.abs (Stats.relative_error ~predicted:m.sw_cpi ~reference:s.sw_cpi)
            :: !comb_errors)
        combined r.sp_sim)
    benchmarks;
  Printf.printf "Fig 6.4 cumulative error distribution (separate vs combined):\n";
  List.iter
    (fun pct ->
      Printf.printf "  p%.0f: separate %s, combined %s\n" pct
        (Table.fmt_pct (Stats.percentile !sep_errors pct))
        (Table.fmt_pct (Stats.percentile !comb_errors pct)))
    [ 50.0; 75.0; 90.0 ];
  Printf.printf
    "mean |CPI err|: separate (per micro-trace) %s vs combined (averaged) %s\n"
    (Table.fmt_pct (Stats.mean !sep_errors))
    (Table.fmt_pct (Stats.mean !comb_errors));
  (* Fig 6.5: box plot; Fig 6.6: scatter correlation. *)
  let errs = design_space_errors () in
  Harness.print_box "Fig 6.5 CPI error box" (List.map fst errs);
  let model_cpis, sim_cpis =
    List.split
      (List.concat_map
         (fun b ->
           let r = Harness.space_result b in
           List.map2
             (fun (m : Sweep.eval) (s : Sweep.eval) -> (m.sw_cpi, s.sw_cpi))
             r.sp_model r.sp_sim)
         benchmarks)
  in
  Printf.printf
    "Fig 6.6 scatter: Pearson correlation model-vs-sim CPI = %.4f over %d points\n"
    (Harness.pearson model_cpis sim_cpis)
    (List.length model_cpis);
  Printf.printf "design-space mean |CPI err| = %s (paper: 9.3%%)\n"
    (Table.fmt_pct (Stats.mean_abs (List.map fst errs)))

let fig6_7 () =
  Table.section "Fig 6.7 — power stacks: model vs simulator activity (reference)";
  let errors = ref [] in
  Table.print
    ~header:
      ("benchmark" :: "src" :: "total W"
      :: List.map Power.component_to_string Power.all_components)
    ~rows:
      (List.concat_map
         (fun b ->
           let bm = Power.estimate Uarch.reference (Harness.prediction b).pr_activity in
           let bs = Power.estimate Uarch.reference (Harness.sim b).r_activity in
           errors :=
             Float.abs
               (Stats.relative_error ~predicted:bm.total_watts
                  ~reference:bs.total_watts)
             :: !errors;
           let row first src (bd : Power.breakdown) =
             first :: src :: Table.fmt_f ~decimals:1 bd.total_watts
             :: List.map (fun (_, w) -> Table.fmt_f ~decimals:2 w) bd.components
           in
           [ row b "model" bm; row "" "sim" bs ])
         benchmarks);
  Printf.printf "average absolute power error: %s (paper: 3.4%%)\n"
    (Table.fmt_pct (Stats.mean !errors))

let fig6_9 () =
  Table.section "Fig 6.8-6.10 — power error across the design space";
  let errs = List.map snd (design_space_errors ()) in
  List.iter
    (fun pct ->
      Printf.printf "  cumulative p%.0f: %s\n" pct
        (Table.fmt_pct (Stats.percentile (List.map Float.abs errs) pct)))
    [ 50.0; 75.0; 90.0 ];
  Harness.print_box "Fig 6.9 power error box" errs;
  let model_w, sim_w =
    List.split
      (List.concat_map
         (fun b ->
           let r = Harness.space_result b in
           List.map2
             (fun (m : Sweep.eval) (s : Sweep.eval) -> (m.sw_watts, s.sw_watts))
             r.sp_model r.sp_sim)
         benchmarks)
  in
  Printf.printf "Fig 6.10 scatter: Pearson correlation = %.4f\n"
    (Harness.pearson model_w sim_w);
  Printf.printf "design-space mean |power err| = %s (paper: 4.3%%)\n"
    (Table.fmt_pct (Stats.mean_abs errs))

let fig6_14 () =
  Table.section "Fig 6.11-6.14 — phase behaviour: CPI over time, model vs sim";
  List.iter
    (fun b ->
      let n = 600_000 in
      let spec = Benchmarks.find b in
      let sim =
        Simulator.run ~time_series_interval:30_000 Uarch.reference spec
          ~seed:Harness.seed ~n_instructions:n
      in
      let profile = Profiler.profile spec ~seed:Harness.seed ~n_instructions:n in
      let pred =
        Interval_model.predict ~options:(Harness.model_options ()) Uarch.reference
          profile
      in
      let model_at lo hi =
        Array.to_list pred.pr_time_series
        |> List.filter_map (fun (i, c) -> if i >= lo && i < hi then Some c else None)
        |> Stats.mean
      in
      let pairs =
        Array.to_list sim.r_time_series
        |> List.map (fun (i, c) -> (c, model_at (i - 30_000) i))
      in
      let sim_series = List.map fst pairs and model_series = List.map snd pairs in
      Printf.printf "%s: phase correlation (Pearson) = %.3f over %d intervals\n" b
        (Harness.pearson sim_series model_series)
        (List.length pairs))
    Benchmarks.phased;
  print_endline "(paper: the model tracks per-interval CPI including phase changes)"

let mlp_comparison ~prefetch () =
  let uarch = Uarch.with_prefetcher Uarch.reference prefetch in
  let run_model b mlp_model =
    let profile = Harness.profile b in
    Interval_model.predict
      ~options:{ (Harness.model_options ()) with mlp_model }
      uarch profile
  in
  let rows = ref [] in
  let errs_cold = ref [] and errs_stride = ref [] in
  List.iter
    (fun b ->
      let sim =
        if prefetch then
          Simulator.run uarch (Benchmarks.find b) ~seed:Harness.seed
            ~n_instructions:Harness.n_ref
        else Harness.sim b
      in
      let sim_wait = Sim_result.dram_wait_cpi sim in
      if sim_wait > 0.1 then begin
        let cold = Interval_model.dram_wait_cpi (run_model b `Cold) in
        let stride = Interval_model.dram_wait_cpi (run_model b `Stride) in
        let ec = (cold -. sim_wait) /. Sim_result.cpi sim in
        let es = (stride -. sim_wait) /. Sim_result.cpi sim in
        errs_cold := Float.abs ec :: !errs_cold;
        errs_stride := Float.abs es :: !errs_stride;
        rows :=
          [ b; Table.fmt_f sim_wait; Table.fmt_f cold; Table.fmt_f stride;
            Harness.fmt_err ec; Harness.fmt_err es ]
          :: !rows
      end)
    benchmarks;
  Table.print
    ~header:
      [ "benchmark"; "sim DRAM CPI"; "cold-miss model"; "stride model";
        "cold err/CPI"; "stride err/CPI" ]
    ~rows:(List.rev !rows);
  Printf.printf "mean |DRAM-wait error| / CPI: cold-miss %s, stride %s\n"
    (Table.fmt_pct (Stats.mean !errs_cold))
    (Table.fmt_pct (Stats.mean !errs_stride))

let fig6_15 () =
  Table.section "Fig 6.15-6.17 — DRAM-wait error: cold-miss vs stride MLP (no prefetch)";
  mlp_comparison ~prefetch:false ();
  print_endline "(paper: both models comparable without a prefetcher)"

let fig6_18 () =
  Table.section "Fig 6.18 — DRAM-wait error with the stride prefetcher enabled";
  mlp_comparison ~prefetch:true ();
  print_endline
    "(paper: with prefetching the stride model (3.6%) beats cold-miss (16.9%))"

(* ================= Chapter 7: applications ================= *)

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
           let model_pick = Sweep.best_under_power r.sp_model ~budget_watts:budget in
           let sim_pick = Sweep.best_under_power r.sp_sim ~budget_watts:budget in
           match (model_pick, sim_pick) with
           | Some m, Some s ->
             let validated = List.nth r.sp_sim m.sw_index in
             [
               b;
               m.sw_config.name;
               Table.fmt_f ~decimals:1 m.sw_watts;
               Table.fmt_f ~decimals:1 validated.sw_watts;
               s.sw_config.name;
               (if m.sw_index = s.sw_index then "exact"
                else
                  Printf.sprintf "%.1f%% slower"
                    (100.0
                    *. (validated.sw_seconds -. s.sw_seconds)
                    /. s.sw_seconds));
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
      let name_of idx = (List.nth Harness.sim_subspace idx).Uarch.name in
      let model_front =
        Pareto.frontier (Sweep.pareto_points r.sp_model)
        |> List.map (fun (p : Pareto.point) -> name_of p.pt_id)
      in
      let sim_front =
        Pareto.frontier (Sweep.pareto_points r.sp_sim)
        |> List.map (fun (p : Pareto.point) -> name_of p.pt_id)
      in
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
            ~truth:(Sweep.pareto_points r.sp_sim)
            ~predicted:(Sweep.pareto_points r.sp_model) ))
      benchmarks
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
          List.filteri (fun i _ -> i mod 3 = 0) r.sp_sim
          |> List.map (fun (e : Sweep.eval) -> (e.sw_config, e.sw_cpi, e.sw_watts))
        in
        let em = Empirical.train training in
        let empirical_points =
          List.map
            (fun (e : Sweep.eval) ->
              let cpi, watts = Empirical.predict em e.sw_config in
              let freq = e.sw_config.operating_point.freq_ghz *. 1e9 in
              let instr = Harness.n_space in
              let seconds = cpi *. float_of_int instr /. freq in
              { Pareto.pt_id = e.sw_index; pt_delay = seconds; pt_power = watts })
            r.sp_sim
        in
        let truth = Sweep.pareto_points r.sp_sim in
        let q_mech =
          Pareto.quality ~truth ~predicted:(Sweep.pareto_points r.sp_model)
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
      benchmarks
  in
  Table.print
    ~header:
      [ "benchmark"; "mech sens"; "empir sens"; "mech HVR"; "empir HVR" ]
    ~rows;
  let n = float_of_int (List.length benchmarks) in
  let sm, se, hm, he = sums in
  Printf.printf
    "averages: sensitivity mech %s vs empirical %s; HVR mech %s vs empirical %s\n\
     (paper: the empirical model is accurate on average but misses trends)\n"
    (Table.fmt_pct (sm /. n)) (Table.fmt_pct (se /. n)) (Table.fmt_pct (hm /. n))
    (Table.fmt_pct (he /. n))

(* ================= Prefetcher comparison (design-choice ablation) ======== *)

let prefetchers () =
  Table.section
    "Prefetcher comparison — simulated speedup of next-line vs per-PC stride \
     prefetching (§4.9's design choice)";
  let n = 60_000 in
  let rows =
    List.map
      (fun b ->
        let cycles cfg =
          (Simulator.run cfg (Benchmarks.find b) ~seed:Harness.seed
             ~n_instructions:n).r_cycles
        in
        let base = cycles Uarch.reference in
        let nl = cycles (Uarch.with_prefetcher_kind Uarch.reference Uarch.Pf_next_line) in
        let st = cycles (Uarch.with_prefetcher_kind Uarch.reference Uarch.Pf_stride) in
        let speedup c = float_of_int base /. float_of_int c in
        [
          b;
          Table.fmt_f ~decimals:2 (speedup nl);
          Table.fmt_f ~decimals:2 (speedup st);
          (if st < nl then "stride" else if nl < st then "next-line" else "tie");
        ])
      [ "libquantum"; "lbm"; "milc"; "bwaves"; "leslie3d"; "GemsFDTD"; "mcf";
        "omnetpp"; "gamess" ]
  in
  Table.print
    ~header:[ "benchmark"; "next-line speedup"; "stride speedup"; "winner" ]
    ~rows;
  print_endline
    "(the stride prefetcher follows large strides next-line cannot; neither\n\
     helps pointer chasing — the motivation for modeling the stride kind)"

(* ================= Multi-core extension (thesis §8.2.1) ================= *)

let multicore () =
  Table.section
    "Multi-core extension — sharing slowdowns: analytical model vs lockstep \
     simulator (2 cores, shared LLC + bus)";
  let n = Harness.n_space in
  let pairs =
    [ ("milc", "gamess"); ("milc", "milc"); ("mcf", "mcf"); ("astar", "sphinx3");
      ("soplex", "povray"); ("lbm", "hmmer") ]
  in
  let options = Harness.model_options () in
  let rows =
    List.map
      (fun (a, b) ->
        let profile name seed =
          (name, Profiler.profile (Benchmarks.find name) ~seed ~n_instructions:n)
        in
        let preds =
          Multicore_model.predict ~options Uarch.reference
            [ profile a 1; profile b 2 ]
        in
        let shared =
          Simulator.run_shared Uarch.reference
            [ (Benchmarks.find a, 1); (Benchmarks.find b, 2) ]
            ~n_instructions:n
        in
        let solo name seed =
          Simulator.run Uarch.reference (Benchmarks.find name) ~seed
            ~n_instructions:n
        in
        match (preds, shared) with
        | [ pa; pb ], [ ra; rb ] ->
          let sim_slow (r : Sim_result.t) seed =
            float_of_int r.r_cycles /. float_of_int (solo r.r_name seed).r_cycles
          in
          [
            a ^ " + " ^ b;
            Table.fmt_f ~decimals:2 pa.mc_slowdown;
            Table.fmt_f ~decimals:2 (sim_slow ra 1);
            Table.fmt_f ~decimals:2 pb.mc_slowdown;
            Table.fmt_f ~decimals:2 (sim_slow rb 2);
            Table.fmt_pct pa.mc_l3_share;
          ]
        | _ -> [ a ^ " + " ^ b; "-"; "-"; "-"; "-"; "-" ])
      pairs
  in
  Table.print
    ~header:
      [ "pair"; "model slow A"; "sim slow A"; "model slow B"; "sim slow B";
        "A's LLC share" ]
    ~rows;
  print_endline
    "(future-work extension: bandwidth-bound pairs slow the most; the model\n\
     captures the asymmetry — the memory-light co-runner suffers from the\n\
     heavy one — but not constructive code sharing between copies of the\n\
     same program, which the simulator exhibits on cold-start-dominated runs)"

(* ================= Ablation of model components ================= *)

let ablation () =
  Table.section
    "Ablation — reference-suite CPI error with each model component disabled";
  (* Each row removes ONE component from the full model (DESIGN.md §7's
     design choices); a well-motivated component should not reduce the
     error when dropped. *)
  let base = Harness.model_options () in
  let variants =
    [
      ("full model", base);
      ("micro-ops -> instructions (§3.2)", { base with use_uops = false });
      ("no critical-path limit (§3.3)", { base with use_critical_path = false });
      ("no port/unit contention (§3.4)", { base with use_port_contention = false });
      ("no MLP model (§4.3)", { base with model_mlp = false });
      ("cold-miss MLP instead of stride (§4.4)", { base with mlp_model = `Cold });
      ("no MSHR cap (§4.6)", { base with model_mshr = false });
      ("no bus model (§4.7)", { base with model_bus = false });
      ("no LLC chaining (§4.8)", { base with model_llc_chain = false });
      ("combined micro-traces (§6.2.2)", { base with combine = `Combined });
      ("theoretical 0.5*E branch model (§3.5)",
       { base with branch_missrate = (fun ~entropy -> 0.5 *. entropy) });
    ]
  in
  Table.print
    ~header:[ "variant"; "mean |err|"; "max |err|"; "delta vs full" ]
    ~rows:
      (let full_err = ref 0.0 in
       List.map
         (fun (label, options) ->
           let errors =
             List.map
               (fun b ->
                 let pred =
                   Interval_model.predict ~options Uarch.reference (Harness.profile b)
                 in
                 Float.abs
                   (Stats.relative_error ~predicted:(Interval_model.cpi pred)
                      ~reference:(Sim_result.cpi (Harness.sim b))))
               benchmarks
           in
           let mean = Stats.mean errors in
           if label = "full model" then full_err := mean;
           [
             label;
             Table.fmt_pct mean;
             Table.fmt_pct (Stats.max_abs errors);
             Printf.sprintf "%+.1f pp" (100.0 *. (mean -. !full_err));
           ])
         variants)

(* ================= Speedup (§6.2, Bechamel) ================= *)

let speedup () =
  Table.section "Speedup — model evaluation vs detailed simulation (Bechamel)";
  let spec = Benchmarks.find "bzip2" in
  let profile = Harness.profile "bzip2" in
  let options = Harness.model_options () in
  let n = 20_000 in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"throughput"
      [
        Test.make ~name:"model-predict-one-design"
          (Staged.stage (fun () ->
               ignore (Interval_model.predict ~options Uarch.reference profile)));
        Test.make ~name:"profile-20k-instructions"
          (Staged.stage (fun () ->
               ignore (Profiler.profile spec ~seed:2 ~n_instructions:n)));
        Test.make ~name:"simulate-20k-instructions"
          (Staged.stage (fun () ->
               ignore (Simulator.run Uarch.reference spec ~seed:2 ~n_instructions:n)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let times = Hashtbl.create 4 in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ t ] -> Hashtbl.replace times name t
      | _ -> ())
    results;
  let get k =
    Hashtbl.fold (fun name t acc ->
        if acc = None && String.length name >= String.length k
           && String.sub name (String.length name - String.length k)
                (String.length k) = k
        then Some t else acc)
      times None
  in
  (match (get "model-predict-one-design", get "profile-20k-instructions",
          get "simulate-20k-instructions") with
  | Some model_ns, Some profile_ns, Some sim_ns ->
    Printf.printf "model predict (one design point):   %10.0f ns\n" model_ns;
    Printf.printf "profile 20k instructions (one-time): %10.0f ns\n" profile_ns;
    Printf.printf "simulate 20k instructions:           %10.0f ns\n" sim_ns;
    (* Full design-space extrapolation (Table 6.3 space, 29 benchmarks). *)
    let designs = 243.0 and benches = 29.0 in
    let model_total = benches *. (profile_ns +. (designs *. model_ns)) in
    let sim_total = benches *. designs *. sim_ns in
    Printf.printf
      "extrapolated 243-design x 29-benchmark sweep (20k-instruction runs): model \
       %.1f s, simulation %.1f s -> %.0fx speedup\n"
      (model_total /. 1e9) (sim_total /. 1e9) (sim_total /. model_total);
    (* At the paper's 1-billion-instruction scale both the profile and
       the simulations grow linearly with run length while the 243 model
       evaluations stay constant, so the speedup converges to
       243 * (sim cost / profile cost) per instruction. *)
    let scale = 1e9 /. 20_000.0 in
    let model_1b = benches *. ((profile_ns *. scale) +. (designs *. model_ns)) in
    let sim_1b = benches *. designs *. sim_ns *. scale in
    Printf.printf
      "extrapolated to the paper's 1B-instruction workloads: model %.1f h, \
       simulation %.0f days -> %.0fx speedup (paper: 11.5 h vs 150 days, ~315x)\n"
      (model_1b /. 1e9 /. 3600.0)
      (sim_1b /. 1e9 /. 86400.0)
      (sim_1b /. model_1b)
  | _ -> print_endline "bechamel did not produce estimates for all tests")

(* ================= DSE sweep engine (this repo's scaling work) ========= *)

let dse_sweep () =
  Table.section
    "DSE sweep engine — memoized StatStack structures + Domain-parallel map";
  let bench = "gcc" in
  let configs = Uarch.design_space in
  let n_configs = List.length configs in
  let options = Harness.model_options () in
  let profile =
    Profiler.profile (Benchmarks.find bench) ~seed:Harness.seed
      ~n_instructions:Harness.n_space
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Seed behavior: every predict call rebuilt the survival structures
     from the reuse histograms.  Reproduced by predicting each config on
     its own fresh, unprepared copy of the profile, decoded outside the
     timer. *)
  let bytes = Profile_io.to_binary_string profile in
  let fresh_copy () =
    match Profile_io.of_string bytes with
    | Ok p -> p
    | Error ft -> failwith (Fault.to_string ft)
  in
  let rebuild_s =
    List.fold_left
      (fun acc u ->
        let copy = fresh_copy () in
        acc +. snd (time (fun () -> Interval_model.predict ~options u copy)))
      0.0 configs
  in
  let c0 = Statstack.construction_count () in
  let seq, seq_s = time (fun () -> Sweep.model_sweep ~options ~jobs:1 ~profile configs) in
  let built_seq = Statstack.construction_count () - c0 in
  (* Clamp to the cores actually available.  On a single-core box the
     "parallel" run degenerates to the memoized baseline under another
     name, so timing it and reporting a "parallel speedup" would be
     noise dressed up as a result — skip the run and report null.  The
     parallel run starts from a fresh copy too, as cold as the
     sequential one. *)
  let jobs_requested = 4 in
  let jobs = Harness.effective_jobs jobs_requested in
  let par =
    if jobs > 1 then begin
      let copy = fresh_copy () in
      Some (time (fun () -> Sweep.model_sweep ~options ~jobs ~profile:copy configs))
    end
    else None
  in
  let identical =
    match par with
    | Some (par, _) -> List.for_all2 (fun a b -> compare a b = 0) seq par
    | None -> true
  in
  let memo_speedup = rebuild_s /. seq_s in
  let pps s = float_of_int n_configs /. s in
  Table.print ~header:[ "variant"; "seconds"; "points/sec"; "speedup" ]
    ~rows:
      ([
         [ "rebuild per config (seed behavior)"; Table.fmt_f ~decimals:3 rebuild_s;
           Table.fmt_f ~decimals:0 (pps rebuild_s); "1.00" ];
         [ "memoized, jobs=1"; Table.fmt_f ~decimals:3 seq_s;
           Table.fmt_f ~decimals:0 (pps seq_s);
           Table.fmt_f ~decimals:2 memo_speedup ];
       ]
      @
      match par with
      | Some (_, par_s) ->
        [ [ Printf.sprintf "memoized, jobs=%d" jobs;
            Table.fmt_f ~decimals:3 par_s; Table.fmt_f ~decimals:0 (pps par_s);
            Table.fmt_f ~decimals:2 (rebuild_s /. par_s) ] ]
      | None ->
        [ [ Printf.sprintf "memoized, jobs=%d (clamped: 1 core)" jobs_requested;
            "-"; "-"; "-" ] ]);
  Printf.printf
    "%d-config sweep of %s: parallel results bit-identical to sequential: %b\n\
     StatStack structures built during the sweep: %d (= per-profile, \
     independent of the %d configs)\n\
     cores available to this process: %d (parallel speedup is bounded by \
     this)\n"
    n_configs bench identical built_seq n_configs
    (Domain.recommended_domain_count ());
  (* ---- Streaming engine at scale ---- *)
  let space = Config_space.large in
  let stream_points = 100_000 in
  let run_stream ?checkpoint () =
    match
      Sweep.model_sweep_stream ~options ~jobs ?checkpoint ~length:stream_points
        ~profile space
    with
    | Ok s -> s
    | Error ft -> failwith (Fault.to_string ft)
  in
  let s_cold, stream_s = time (fun () -> run_stream ()) in
  let stream_pps = float_of_int stream_points /. stream_s in
  (* Kill-and-resume bit-identity on the same range: checkpoint, truncate
     the log to 60% (a mid-write crash), resume, compare summaries. *)
  let ckpt = Filename.temp_file "bench_stream" ".ckpt" in
  Sys.remove ckpt;
  let resume_identical =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists ckpt then Sys.remove ckpt)
      (fun () ->
        let s1 = run_stream ~checkpoint:ckpt () in
        let len = (Unix.stat ckpt).Unix.st_size in
        let fd = Unix.openfile ckpt [ Unix.O_WRONLY ] 0 in
        Unix.ftruncate fd (len * 3 / 5);
        Unix.close fd;
        let s2 = run_stream ~checkpoint:ckpt () in
        let strip (s : Sweep.stream_summary) =
          { s with ss_resumed_blocks = 0; ss_evaluated_blocks = 0 }
        in
        s2.Sweep.ss_resumed_blocks > 0
        && s2.ss_evaluated_blocks > 0
        && strip s1 = strip s2
        && strip s_cold = strip s1)
  in
  let peak_rss_mb =
    (* Linux: VmHWM is the process high-water mark in kB.  Elsewhere, or
       unreadable, the peak is unmeasured: None, reported as null. *)
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | Some line
              when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> Some (float_of_int kb /. 1024.0))
            | Some _ -> scan ()
            | None -> None
          in
          scan ())
    with _ -> None
  in
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
  (* Machine-readable trajectory for future changes. *)
  let par_s = Option.map snd par in
  Harness.write_report "BENCH_sweep.json"
    Minijson.
      [
        ("benchmark", Str bench);
        ("configs", int n_configs);
        ("jobs_requested", int jobs_requested);
        ("jobs_effective", int jobs);
        ("cores_available", int (Domain.recommended_domain_count ()));
        ("rebuild_seconds", Num rebuild_s);
        ("seq_seconds", Num seq_s);
        ("par_seconds", Harness.num_opt par_s);
        ("points_per_sec_seq", Num (pps seq_s));
        ("points_per_sec_par", Harness.num_opt (Option.map pps par_s));
        ("memo_speedup", Num memo_speedup);
        ( "parallel_speedup",
          Harness.num_opt (Option.map (fun s -> seq_s /. s) par_s) );
        ("bit_identical", Bool identical);
        ("stacks_built_per_sweep", int built_seq);
        ("stream_space", Str (Config_space.name space));
        ("stream_points", int stream_points);
        ("stream_block_size", int Sweep.default_block_size);
        ("stream_seconds", Num stream_s);
        ("stream_points_per_sec", Num stream_pps);
        ("stream_front_points", int (List.length s_cold.Sweep.ss_front));
        ("stream_resume_identical", Bool resume_identical);
        ("peak_rss_mb", Harness.num_opt peak_rss_mb);
      ]

(* ============ Sharded profiling pipeline (this repo's scaling work) ==== *)

(* Faithful replica of the seed's Histogram backend (Hashtbl find/replace
   per add, full sort per sorted read), used to measure what the dense
   fast path and the cached sorted view buy on the profiling access
   pattern. *)
module Seed_hist = struct
  type t = { counts : (int, int) Hashtbl.t; mutable total : int }

  let create () = { counts = Hashtbl.create 16; total = 0 }

  let add h ?(count = 1) key =
    let current = Option.value (Hashtbl.find_opt h.counts key) ~default:0 in
    Hashtbl.replace h.counts key (current + count);
    h.total <- h.total + count

  let to_sorted_list h =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) h.counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let quantile_key h q =
    let target = q *. float_of_int h.total in
    let rec go acc = function
      | [] -> invalid_arg "quantile_key"
      | [ (k, _) ] -> k
      | (k, c) :: rest ->
        let acc = acc +. float_of_int c in
        if acc >= target then k else go acc rest
    in
    go 0.0 (to_sorted_list h)
end

let profile_shards () =
  Table.section
    "Sharded profiling pipeline — warm-up windows + fast-path histograms";
  let bench = "gcc" in
  let spec = Benchmarks.find bench in
  let n = 400_000 in
  let seed = Harness.seed in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* --- histogram fast path, measured on the profiler's key mix:
     overwhelmingly small reuse distances / strides, a thin spill tail. *)
  let rng = Rng.create 42 in
  let n_keys = 2_000_000 in
  let keys =
    Array.init n_keys (fun _ ->
        let r = Rng.float rng 1.0 in
        if r < 0.90 then Rng.geometric rng 0.02 (* small reuse distances *)
        else if r < 0.95 then 4096 + Rng.int rng 100_000 (* long tail *)
        else - (64 * (1 + Rng.int rng 64)) (* negative strides *))
  in
  let hist_rounds = 10 in
  let (_ : int), seed_hist_s =
    time (fun () ->
        let acc = ref 0 in
        for _ = 1 to hist_rounds do
          let h = Seed_hist.create () in
          Array.iter (fun k -> Seed_hist.add h k) keys;
          acc := !acc + h.Seed_hist.total
        done;
        !acc)
  in
  let (_ : int), fast_hist_s =
    time (fun () ->
        let acc = ref 0 in
        for _ = 1 to hist_rounds do
          let h = Histogram.create () in
          Array.iter (fun k -> Histogram.add h k) keys;
          acc := !acc + Histogram.total h
        done;
        !acc)
  in
  let hist_fastpath_speedup = seed_hist_s /. fast_hist_s in
  (* --- cached sorted view: quantile loops on a frozen histogram. *)
  let frozen = Histogram.create () in
  let frozen_seed = Seed_hist.create () in
  Array.iter
    (fun k ->
      Histogram.add frozen k;
      Seed_hist.add frozen_seed k)
    keys;
  let q_calls = 300 in
  let (_ : int), q_seed_s =
    time (fun () ->
        let acc = ref 0 in
        for i = 1 to q_calls do
          acc :=
            !acc + Seed_hist.quantile_key frozen_seed (float_of_int i /. float_of_int (q_calls + 1))
        done;
        !acc)
  in
  let (_ : int), q_fast_s =
    time (fun () ->
        let acc = ref 0 in
        for i = 1 to q_calls do
          acc :=
            !acc + Histogram.quantile_key frozen (float_of_int i /. float_of_int (q_calls + 1))
        done;
        !acc)
  in
  let quantile_cached_speedup = q_seed_s /. q_fast_s in
  (* --- profiling throughput: legacy monolith vs sharded pipeline.
     Each timed run keeps only scalars and the serialized string alive,
     and the heap is compacted in between: on this allocation-heavy path
     the live major heap left by a previous profile would otherwise be
     charged (as GC marking work) to whichever variant runs later. *)
  let profile_stats f =
    Gc.compact ();
    let p, s = time f in
    (Profile_io.to_binary_string p, Profile.cold_miss_rate p, s)
  in
  let s_legacy, legacy_cold, legacy_s =
    profile_stats (fun () -> Profiler.profile_legacy spec ~seed ~n_instructions:n)
  in
  let s_seq1, _, seq1_s =
    profile_stats (fun () -> Profiler.profile spec ~jobs:1 ~seed ~n_instructions:n)
  in
  let jobs_requested = 4 in
  let jobs = Harness.effective_jobs jobs_requested in
  let _, _, sharded_s =
    profile_stats (fun () -> Profiler.profile spec ~jobs ~seed ~n_instructions:n)
  in
  (* Boundary error and the exactness check use a fixed 4-way split so
     they exercise real shard boundaries even when the machine's core
     count clamps the timed run above to fewer shards. *)
  let s_exact, _, _ =
    profile_stats (fun () ->
        Profiler.profile spec ~jobs:4 ~warmup:max_int ~seed ~n_instructions:n)
  in
  let _, warm_cold, _ =
    profile_stats (fun () ->
        Profiler.profile spec ~jobs:4 ~seed ~n_instructions:n)
  in
  let jobs1_identical = s_seq1 = s_legacy in
  let exact_identical = s_exact = s_legacy in
  (* Hard acceptance gates: the sharded pipeline at jobs:1 IS the legacy
     profiler, and unbounded warm-up removes all boundary error. *)
  if not jobs1_identical then
    failwith "profile_shards: jobs:1 output differs from the legacy profiler";
  if not exact_identical then
    failwith
      "profile_shards: unbounded-warm-up sharded output differs from the \
       legacy profiler";
  let boundary_cold_error =
    if legacy_cold = 0.0 then 0.0
    else Float.abs (warm_cold -. legacy_cold) /. legacy_cold
  in
  let ips s = float_of_int n /. s in
  (* legacy/sharded is an algorithmic ratio; only the sharded pipeline's
     own jobs:1 run over its jobs:N run is a parallel speedup, and with
     one effective job there is none to report. *)
  let parallel_speedup =
    if jobs = 1 then None else Some (seq1_s /. sharded_s)
  in
  Table.print ~header:[ "variant"; "seconds"; "instr/sec"; "speedup" ]
    ~rows:
      [
        [ "legacy sequential"; Table.fmt_f ~decimals:3 legacy_s;
          Table.fmt_f ~decimals:0 (ips legacy_s); "1.00" ];
        [ "sharded, jobs=1"; Table.fmt_f ~decimals:3 seq1_s;
          Table.fmt_f ~decimals:0 (ips seq1_s);
          Table.fmt_f ~decimals:2 (legacy_s /. seq1_s) ];
        [ Printf.sprintf "sharded, jobs=%d (warmup %d)" jobs
            Profiler.default_warmup;
          Table.fmt_f ~decimals:3 sharded_s;
          Table.fmt_f ~decimals:0 (ips sharded_s);
          Table.fmt_f ~decimals:2 (legacy_s /. sharded_s) ];
      ];
  Printf.printf
    "histogram fast path: %.2fx on %d adds; cached quantile view: %.2fx on \
     %d calls\n\
     jobs:1 bit-identical to legacy: %b; unbounded-warm-up shards \
     bit-identical: %b\n\
     cold-rate error across 4 shard boundaries (warmup %d): %.4f\n"
    hist_fastpath_speedup (n_keys * hist_rounds) quantile_cached_speedup
    q_calls jobs1_identical exact_identical Profiler.default_warmup
    boundary_cold_error;
  Harness.write_report "BENCH_profile.json"
    Minijson.
      [
        ("benchmark", Str bench);
        ("n_instructions", int n);
        ("jobs_requested", int jobs_requested);
        ("jobs_effective", int jobs);
        ("warmup_instructions", int Profiler.default_warmup);
        ("cores_available", int (Domain.recommended_domain_count ()));
        ("legacy_seconds", Num legacy_s);
        ("sharded_jobs1_seconds", Num seq1_s);
        ("sharded_seconds", Num sharded_s);
        ("instr_per_sec_seq", Num (ips seq1_s));
        ("instr_per_sec_sharded", Num (ips sharded_s));
        ("sharded_vs_legacy_speedup", Num (legacy_s /. sharded_s));
        ("parallel_speedup", Harness.num_opt parallel_speedup);
        ("hist_fastpath_speedup", Num hist_fastpath_speedup);
        ("quantile_cached_speedup", Num quantile_cached_speedup);
        ("cold_rate_seq", Num legacy_cold);
        ("cold_rate_sharded", Num warm_cold);
        ("boundary_cold_error", Num boundary_cold_error);
        ("bit_identical", Bool (jobs1_identical && exact_identical));
      ]

(* ====== Fault-isolated, checkpointed sweeps (this repo's robustness work) *)

(* Checkpoint-overhead gates, checked and reported by [sweep_faults]:
   absolute cost per point on the small sweep, and the checkpointed /
   plain time ratio minus one at streaming scale. *)
let per_point_gate_us = 25.0
let stream_overhead_gate = 0.10

let sweep_faults () =
  Table.section
    "Fault-isolated sweeps — checkpoint overhead, kill-and-resume, isolation";
  let bench = "gcc" in
  let configs = Uarch.design_space in
  let n_configs = List.length configs in
  let options = Harness.model_options () in
  let profile =
    Profiler.profile (Benchmarks.find bench) ~seed:Harness.seed
      ~n_instructions:Harness.n_space
  in
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
  let ckpt_path = Filename.temp_file "mipp_bench" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists ckpt_path then Sys.remove ckpt_path)
    (fun () ->
      (* --- checkpoint overhead on the full design-space sweep.  Warm
         the StatStack memo first, then best-of-5 each variant so the
         comparison measures fsync'd appends, not construction or a
         scheduler hiccup. *)
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
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          acc := !acc +. (Unix.gettimeofday () -. t0)
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
            let p = window (fun () -> run ()) in
            let c =
              window ~setup:remove_ckpt (fun () -> run ~checkpoint:ckpt_path ())
            in
            (p, c))
      in
      let median xs =
        let a = Array.of_list xs in
        Array.sort compare a;
        a.(Array.length a / 2)
      in
      let plain_s = median (List.map fst pairs) in
      let ckpt_s = median (List.map snd pairs) in
      (* Per-round overhead ratios of millisecond sweeps: their spread is
         timing noise, so report it beside the median rather than read
         the median as a cost.  The per-point gate below is the cost. *)
      let ratios = List.map (fun (p, c) -> (c -. p) /. p) pairs in
      let overhead = median ratios in
      let overhead_p10 = Stats.percentile ratios 10.0 in
      let overhead_p90 = Stats.percentile ratios 90.0 in
      let blocks =
        (n_configs + Sweep.default_point_block_size - 1)
        / Sweep.default_point_block_size
      in
      (* --- kill-and-resume recovery: cut a full checkpoint back to its
         header and first 100 records plus a torn tail (exactly what a
         kill mid-append leaves); re-running on it must reproduce the
         uninterrupted sweep bit for bit. *)
      let prefix = 100 in
      remove_ckpt ();
      let base_evals = evals_of baseline in
      ignore (run ~checkpoint:ckpt_path ());
      let lines = In_channel.with_open_bin ckpt_path In_channel.input_lines in
      Out_channel.with_open_bin ckpt_path (fun oc ->
          List.iteri
            (fun i l -> if i <= prefix then output_string oc (l ^ "\n"))
            lines;
          output_string oc "0bad0bad ok 100 0x1.2p3");
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
      let space = Config_space.large in
      let stream_run ?checkpoint () =
        match
          Sweep.model_sweep_stream ~options ~jobs:1 ?checkpoint
            ~length:stream_points ~profile space
        with
        | Ok s -> s
        | Error ft -> failwith ("sweep_faults: " ^ Fault.to_string ft)
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
      let stream_plain_s = median (List.map fst stream_pairs) in
      let stream_ckpt_s = median (List.map snd stream_pairs) in
      let stream_overhead =
        median (List.map (fun (p, c) -> (c -. p) /. p) stream_pairs)
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
            ("cores_available", int (Domain.recommended_domain_count ()));
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

(* ================= calibrate: grey-box residual calibration =========== *)

(* The calibration regression: train the residual calibrator on the
   matrix `mipp validate --matrix sim` gates on for the three workload
   files, and hold it to hard gates — held-out calibrated MAPE at most
   half the uncalibrated baseline (4.33%), byte-identical re-training,
   and bit-exact application across job counts. *)
let calibrate_bench () =
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
  let t0 = Unix.gettimeofday () in
  let reports =
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
  let matrix_s = Unix.gettimeofday () -. t0 in
  let rows = Validate.matrix_of_report (Validate.summarize reports) in
  let t1 = Unix.gettimeofday () in
  let model, ev =
    match Calibrate.train rows with
    | Ok r -> r
    | Error ft -> failwith ("calibrate: " ^ Fault.to_string ft)
  in
  let train_s = Unix.gettimeofday () -. t1 in
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

(* ================= serve: the model-serving daemon under load ========= *)

(* Sustained query throughput and tail latency against a live in-process
   daemon, then the fault drills: a worker crash storm, a barrage of
   malformed frames, slow-loris connections and an overload burst — the
   daemon must answer every valid request, shed with structured faults,
   and drain cleanly.  Gates: [qps_gate] queries/s sustained and a clean
   fault ledger (no lost replies, no daemon death). *)
let qps_gate = 1000.0

let serve_bench () =
  Table.section "Model-serving daemon: throughput, tails and fault drills";
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mipp-bench-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    {
      Server.default_config with
      socket_path = Some sock;
      workers = 2;
      (* small enough that the pipelined overload burst overflows it,
         ample for 4 synchronous clients *)
      queue_capacity = 8;
      fault_injection = true;
      recv_timeout_s = 0.3;
      degraded_crash_threshold = 1000 (* drills must not trip degradation *);
    }
  in
  let server = Fault.or_raise (Server.start cfg) in
  let ok what = function
    | Ok v -> v
    | Error f -> failwith (Printf.sprintf "serve: %s: %s" what (Fault.to_string f))
  in
  let with_client f =
    let c = ok "connect" (Client.connect_unix sock) in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  in
  let profile =
    Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:50_000
  in
  let bytes = Profile_io.to_binary_string profile in
  let key = with_client (fun c -> ok "load" (Client.load c bytes)) in

  (* -- sustained throughput, concurrent clients -- *)
  let clients = 4 and per_client = 2000 in
  let warmup = 200 in
  with_client (fun c ->
      for _ = 1 to warmup do
        ignore (ok "warmup" (Client.predict c ~profile:key ~config:"reference" ()))
      done);
  let latencies = Array.make (clients * per_client) 0.0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            with_client (fun c ->
                for q = 0 to per_client - 1 do
                  let s = Unix.gettimeofday () in
                  ignore
                    (ok "predict"
                       (Client.predict c ~profile:key ~config:"reference" ()));
                  latencies.((ci * per_client) + q) <-
                    Unix.gettimeofday () -. s
                done))
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let queries = clients * per_client in
  let qps = float_of_int queries /. elapsed in
  Array.sort compare latencies;
  let pct p =
    latencies.(min (queries - 1) (int_of_float (p *. float_of_int queries)))
  in
  let p50_us = 1e6 *. pct 0.50 and p99_us = 1e6 *. pct 0.99 in
  Printf.printf
    "%d clients x %d predicts: %.0f queries/s sustained, p50 %.0f us, p99 \
     %.0f us\n"
    clients per_client qps p50_us p99_us;

  (* -- crash storm: repeated worker deaths, daemon keeps serving -- *)
  let storm = 5 in
  with_client (fun c ->
      for _ = 1 to storm do
        ok "crash" (Client.crash c);
        ok "ping after crash" (Client.ping c)
      done);
  (* The dying worker replies before it is torn down, so the crash and
     respawn counters can trail the acknowledgement; poll briefly. *)
  let read_counters () =
    let health = with_client (fun c -> ok "health" (Client.health c)) in
    let stat k =
      match List.assoc_opt k health with Some v -> int_of_string v | None -> 0
    in
    (stat "crashes", stat "respawns")
  in
  let rec settle tries =
    let crashes, respawns = read_counters () in
    if (crashes >= storm && respawns >= 1) || tries = 0 then (crashes, respawns)
    else begin
      Thread.delay 0.05;
      settle (tries - 1)
    end
  in
  let crashes, respawns = settle 100 in
  Printf.printf "crash storm: %d injected, %d counted, %d workers respawned\n"
    storm crashes respawns;

  (* -- malformed-frame barrage: every frame answered, connection kept -- *)
  let malformed = 100 in
  let answered = ref 0 in
  with_client (fun c ->
      let rng = Rng.create 7 in
      for _ = 1 to malformed do
        let wire =
          Bytes.of_string
            (Protocol.frame Request
               (Protocol.encode_request
                  { rq_seq = 1; rq_timeout_ms = None; rq_body = Ping }))
        in
        (* corrupt payload or CRC, never the header: stream stays in sync *)
        let pos = 10 + Rng.int rng (Bytes.length wire - 10) in
        Bytes.set wire pos
          (Char.chr (Char.code (Bytes.get wire pos) lxor (1 + Rng.int rng 255)));
        Retry.write_all (Client.fd c) wire 0 (Bytes.length wire);
        match Protocol.read_frame (Client.fd c) with
        | Ok (Reply, payload) ->
          (match Protocol.decode_reply payload with
           | Ok { rp_body = Fault_reply (Fault.Bad_input _); _ } ->
             incr answered
           | _ -> failwith "serve: malformed frame got a non-fault reply")
        | _ -> failwith "serve: malformed frame lost its reply";
      done;
      ok "ping after barrage" (Client.ping c));
  Printf.printf "malformed frames: %d sent, %d structured fault replies\n"
    malformed !answered;

  (* -- slow-loris trio: stalled connections reaped, others unaffected -- *)
  let loris = 3 in
  let loris_fds =
    List.init loris (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        ignore (Unix.write fd (Bytes.of_string "MIPQ\x01") 0 5);
        fd)
  in
  Thread.delay (cfg.recv_timeout_s +. 0.3);
  let reaped =
    List.for_all
      (fun fd ->
        (* The server sends a best-effort fault reply, then closes; keep
           reading until the close shows as EOF (or a reset). *)
        let buf = Bytes.create 4096 in
        let rec drained tries =
          if tries = 0 then false
          else
            match Unix.read fd buf 0 4096 with
            | 0 -> true
            | _ -> drained (tries - 1)
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              true
        in
        let closed = drained 32 in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        closed)
      loris_fds
  in
  with_client (fun c -> ok "ping after slow-loris" (Client.ping c));
  Printf.printf "slow-loris: %d stalled connections, all reaped: %b\n" loris
    reaped;

  (* -- overload burst: bounded queue sheds explicitly -- *)
  let burst = 24 in
  let oks = ref 0 and sheds = ref 0 in
  with_client (fun c ->
      for seq = 1000 to 999 + burst do
        Protocol.write_frame (Client.fd c) Request
          (Protocol.encode_request
             {
               rq_seq = seq;
               rq_timeout_ms = None;
               rq_body =
                 Sweep
                   { rq_profile = key; rq_space = "default"; rq_offset = 0;
                     rq_limit = 243 };
             })
      done;
      for _ = 1 to burst do
        match Protocol.read_frame (Client.fd c) with
        | Ok (Reply, payload) ->
          (match Protocol.decode_reply payload with
           | Ok { rp_body = Ok_reply _; _ } -> incr oks
           | Ok { rp_body = Fault_reply (Fault.Overload _); _ } -> incr sheds
           | _ -> failwith "serve: unexpected burst reply")
        | _ -> failwith "serve: burst reply lost"
      done);
  Printf.printf "overload burst: %d sweeps pipelined, %d served, %d shed\n"
    burst !oks !sheds;

  (* -- graceful drain -- *)
  let t_drain = Unix.gettimeofday () in
  Server.stop server;
  Server.join server;
  let drain_s = Unix.gettimeofday () -. t_drain in
  Printf.printf "drain: stopped and joined in %.3fs\n" drain_s;

  (* Hard gates (the issue's acceptance criteria). *)
  if qps < qps_gate then
    failwith
      (Printf.sprintf "serve: %.0f queries/s below the %.0f qps gate" qps
         qps_gate);
  if crashes < storm || respawns < 1 then
    failwith "serve: crash storm not fully counted or no respawn";
  if !answered <> malformed then
    failwith "serve: a malformed frame went unanswered";
  if not reaped then failwith "serve: a slow-loris connection survived";
  if !sheds = 0 || !oks = 0 then
    failwith "serve: overload burst did not both serve and shed";

  Harness.write_report "BENCH_serve.json"
    Minijson.
      [
        ("benchmark", Str "gcc");
        ("clients", int clients);
        ("queries", int queries);
        ("queries_per_second", Num qps);
        ("qps_gate", Num qps_gate);
        ("p50_us", Num p50_us);
        ("p99_us", Num p99_us);
        ("crash_storm", int storm);
        ("crashes_counted", int crashes);
        ("workers_respawned", int respawns);
        ("malformed_frames", int malformed);
        ("malformed_answered", int !answered);
        ("slow_loris_connections", int loris);
        ("slow_loris_reaped", Bool reaped);
        ("overload_burst", int burst);
        ("overload_served", int !oks);
        ("overload_shed", int !sheds);
        ("drain_seconds", Num drain_s);
      ]

(* ================= Driver ================= *)

let experiments =
  [
    ("tab6.1", "reference architecture", tab6_1);
    ("fig3.1", "uops per instruction", fig3_1);
    ("fig3.4", "dependence chains", fig3_4);
    ("fig3.6", "dispatch-rate limiters", fig3_6);
    ("fig3.7", "base-component refinements", fig3_7);
    ("fig3.9", "branch entropy fit", fig3_9);
    ("fig3.10", "entropy model per predictor", fig3_10);
    ("fig4.2", "StatStack MPKI", fig4_2);
    ("fig4.3", "MLP impact", fig4_3);
    ("fig4.4", "cold vs capacity misses", fig4_4);
    ("fig4.7", "stride categories", fig4_7);
    ("fig4.9", "LLC-hit chaining over time", fig4_9);
    ("fig5.2", "instruction-mix sampling", fig5_2);
    ("fig5.3", "chain interpolation", fig5_3);
    ("fig5.5", "chain sampling", fig5_5);
    ("fig5.6", "branch component share", fig5_6);
    ("fig6.1", "CPI stacks + reference accuracy", fig6_1);
    ("fig6.3", "error vs profiled instructions", fig6_3);
    ("tab6.2", "input-substitution ablation", tab6_2);
    ("tab6.3", "design-space definition", tab6_3);
    ("fig6.5", "design-space CPI accuracy", fig6_5);
    ("fig6.7", "power stacks", fig6_7);
    ("fig6.9", "design-space power accuracy", fig6_9);
    ("fig6.14", "phase tracking", fig6_14);
    ("fig6.15", "MLP models without prefetch", fig6_15);
    ("fig6.18", "MLP models with prefetch", fig6_18);
    ("tab7.1", "power-constrained optimization", tab7_1);
    ("tab7.2", "DVFS ED2P", tab7_2);
    ("fig7.4", "Pareto frontiers", fig7_4);
    ("fig7.7", "pruning quality metrics", fig7_7);
    ("fig7.10", "empirical model comparison", fig7_10);
    ("ablation", "model-component ablation", ablation);
    ("multicore", "multi-core sharing extension", multicore);
    ("prefetchers", "next-line vs stride prefetcher (sim)", prefetchers);
    ("speedup", "model vs simulation throughput", speedup);
    ("dse_sweep", "parallel sweep engine + StatStack memoization", dse_sweep);
    ("profile_shards", "sharded profiling + fast-path histograms", profile_shards);
    ("sweep_faults", "fault isolation + checkpointed sweep overhead", sweep_faults);
    ("calibrate", "grey-box calibration: held-out MAPE + determinism gates",
     calibrate_bench);
    ("serve", "serving daemon: qps, tail latency, fault drills", serve_bench);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let rec find_only = function
    | "--only" :: id :: _ -> Some id
    | _ :: rest -> find_only rest
    | [] -> None
  in
  if List.mem "--list" args then
    List.iter (fun (id, doc, _) -> Printf.printf "%-8s %s\n" id doc) experiments
  else begin
    let selected =
      match find_only args with
      | Some id -> (
        match List.filter (fun (eid, _, _) -> eid = id) experiments with
        | [] ->
          Printf.eprintf "unknown experiment %s (try --list)\n" id;
          exit 2
        | l -> l)
      | None -> experiments
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (id, _, f) ->
        let t = Unix.gettimeofday () in
        f ();
        Printf.printf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t))
      selected;
    Printf.printf "\nAll experiments completed in %.1fs\n" (Unix.gettimeofday () -. t0)
  end
