(* Design-space exploration (§7.1/§7.2/§7.4): profile a workload once,
   sweep the 243-point design space analytically, extract the Pareto
   frontier, and pick the best core under a power budget.

     dune exec examples/design_space_exploration.exe -- [benchmark] [watts]

   This is the paper's headline use case: the same sweep via detailed
   simulation would take hundreds of times longer. *)

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "bzip2" in
  let budget = if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 18.0 in
  let workload =
    try Benchmarks.find bench
    with Not_found ->
      Printf.eprintf "unknown benchmark %s; try one of: %s\n" bench
        (String.concat " " Benchmarks.names);
      exit 1
  in
  Printf.printf "Profiling %s...\n%!" bench;
  let t0 = Clock.now () in
  let profile = Profiler.profile workload ~seed:7 ~n_instructions:200_000 in
  let t_profile = Clock.now () -. t0 in

  Printf.printf "Sweeping %d design points analytically...\n%!"
    (List.length Uarch.design_space);
  let t1 = Clock.now () in
  let evals = Sweep.model_sweep ~profile Uarch.design_space in
  let t_sweep = Clock.now () -. t1 in
  Printf.printf "  profile %.2fs + sweep %.2fs for %d points (%.1f ms/point)\n"
    t_profile t_sweep (List.length evals)
    (1000.0 *. t_sweep /. float_of_int (List.length evals));

  (* Pareto frontier of the performance/power trade-off. *)
  let points = Sweep.pareto_points evals in
  let front = Pareto.frontier points in
  Printf.printf "\nPredicted Pareto frontier (%d of %d designs):\n"
    (List.length front) (List.length evals);
  Table.print
    ~header:[ "design"; "time (ms)"; "power (W)"; "CPI" ]
    ~rows:
      (List.map
         (fun (p : Pareto.point) ->
           let e = List.nth evals p.pt_id in
           [
             e.Sweep.sw_config.name;
             Table.fmt_f ~decimals:2 (1000.0 *. e.sw_seconds);
             Table.fmt_f ~decimals:1 e.sw_watts;
             Table.fmt_f e.sw_cpi;
           ])
         front);

  (* Best design under a power constraint (Table 7.1's question). *)
  let best_under budget_watts =
    Option.map
      (fun (p : Pareto.point) -> List.nth evals p.pt_id)
      (Sweep.best_under_power points ~budget_watts)
  in
  (match best_under budget with
  | Some best ->
    Printf.printf "\nFastest design under %.1f W: %s (%.2f ms, %.1f W)\n" budget
      best.sw_config.name
      (1000.0 *. best.sw_seconds)
      best.sw_watts
  | None -> Printf.printf "\nNo design fits a %.1f W budget.\n" budget);

  (* What would the general-purpose reference core cost us? (§7.1) *)
  let ref_eval =
    List.find
      (fun (e : Sweep.eval) ->
        e.sw_config.core.dispatch_width = 4
        && e.sw_config.core.rob_size = 128
        && e.sw_config.caches.l3.size_bytes = 8 * 1024 * 1024
        && e.sw_config.caches.l2.size_bytes = 256 * 1024
        && e.sw_config.caches.l1d.size_bytes = 32 * 1024)
      evals
  in
  let best_overall = Option.get (best_under infinity) in
  Printf.printf
    "Application-specific pick is %.1f%% faster than the general-purpose core.\n"
    (100.0 *. (ref_eval.sw_seconds -. best_overall.sw_seconds) /. ref_eval.sw_seconds)
