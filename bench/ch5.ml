(* Chapter 5 of the thesis: sampling (Figs 5.2-5.6). *)

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
      Harness.benchmarks
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
      Harness.benchmarks
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
      Harness.benchmarks
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
         Harness.benchmarks)
