(* Chapter 4 of the thesis: the memory subsystem (Figs 4.2-4.9). *)

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
         Harness.benchmarks);
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
           Harness.row_of_floats b [ sim_cpi; with_mlp; without ])
         Harness.benchmarks);
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
         Harness.benchmarks);
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
  let model_cpi_at series instr =
    Harness.mean_cpi_between series (instr - 30_000) instr
  in
  Table.print
    ~header:[ "instructions"; "sim CPI"; "model CPI"; "model CPI (no chaining)" ]
    ~rows:
      (Array.to_list sim.r_time_series
      |> List.map (fun (instr, cpi) ->
             [
               string_of_int instr;
               Table.fmt_f cpi;
               Table.fmt_f (model_cpi_at pred.pr_time_series instr);
               Table.fmt_f (model_cpi_at no_chain.pr_time_series instr);
             ]));
  Printf.printf "total CPI: sim %.3f, model %.3f, model w/o chaining %.3f\n"
    (Sim_result.cpi sim) (Interval_model.cpi pred) (Interval_model.cpi no_chain)
