(* Experiment harness: one entry per table/figure of the paper's
   evaluation, the extensions and the CI-gated reports.  This file is the
   registry and the driver; each experiment lives in the module named
   beside it (see DESIGN.md §4 for the index).

     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- --list       list experiment ids
     dune exec bench/main.exe -- --only ID    run one experiment *)

let experiments =
  [
    ("tab6.1", "reference architecture", Ch6.tab6_1);
    ("fig3.1", "uops per instruction", Ch3.fig3_1);
    ("fig3.4", "dependence chains", Ch3.fig3_4);
    ("fig3.6", "dispatch-rate limiters", Ch3.fig3_6);
    ("fig3.7", "base-component refinements", Ch3.fig3_7);
    ("fig3.9", "branch entropy fit", Ch3.fig3_9);
    ("fig3.10", "entropy model per predictor", Ch3.fig3_10);
    ("fig4.2", "StatStack MPKI", Ch4.fig4_2);
    ("fig4.3", "MLP impact", Ch4.fig4_3);
    ("fig4.4", "cold vs capacity misses", Ch4.fig4_4);
    ("fig4.7", "stride categories", Ch4.fig4_7);
    ("fig4.9", "LLC-hit chaining over time", Ch4.fig4_9);
    ("fig5.2", "instruction-mix sampling", Ch5.fig5_2);
    ("fig5.3", "chain interpolation", Ch5.fig5_3);
    ("fig5.5", "chain sampling", Ch5.fig5_5);
    ("fig5.6", "branch component share", Ch5.fig5_6);
    ("fig6.1", "CPI stacks + reference accuracy", Ch6.fig6_1);
    ("fig6.3", "error vs profiled instructions", Ch6.fig6_3);
    ("tab6.2", "input-substitution ablation", Ch6.tab6_2);
    ("tab6.3", "design-space definition", Ch6.tab6_3);
    ("fig6.5", "design-space CPI accuracy", Ch6.fig6_5);
    ("fig6.7", "power stacks", Ch6.fig6_7);
    ("fig6.9", "design-space power accuracy", Ch6.fig6_9);
    ("fig6.14", "phase tracking", Ch6.fig6_14);
    ("fig6.15", "MLP models without prefetch", Ch6.fig6_15);
    ("fig6.18", "MLP models with prefetch", Ch6.fig6_18);
    ("tab7.1", "power-constrained optimization", Ch7.tab7_1);
    ("tab7.2", "DVFS ED2P", Ch7.tab7_2);
    ("fig7.4", "Pareto frontiers", Ch7.fig7_4);
    ("fig7.7", "pruning quality metrics", Ch7.fig7_7);
    ("fig7.10", "empirical model comparison", Ch7.fig7_10);
    ("ablation", "model-component ablation", Extensions.ablation);
    ("multicore", "multi-core sharing extension", Extensions.multicore);
    ("prefetchers", "next-line vs stride prefetcher (sim)", Extensions.prefetchers);
    ("speedup", "model vs simulation throughput", Extensions.speedup);
    ("dse_sweep", "parallel sweep engine + StatStack memoization", Bench_sweep.dse_sweep);
    ("profile_shards", "sharded profiling with warm-up windows", Bench_profile.profile_shards);
    ("sweep_faults", "fault isolation + checkpointed sweep overhead", Bench_sweep.sweep_faults);
    ("calibrate", "grey-box calibration: held-out MAPE + determinism gates",
     Bench_calibrate.calibrate);
    ("serve", "serving daemon: qps, tail latency, fault drills", Bench_serve.serve);
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
    let (), total_s =
      Harness.time @@ fun () ->
      List.iter
        (fun (id, _, f) ->
          let (), s = Harness.time f in
          Printf.printf "[%s done in %.1fs]\n%!" id s)
        selected
    in
    Printf.printf "\nAll experiments completed in %.1fs\n" total_s
  end
