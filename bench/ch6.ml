(* Chapter 6 of the thesis: evaluation (Tables 6.1-6.3, Figs 6.1-6.18). *)

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
         Harness.benchmarks);
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
          Float.abs
            (Harness.cpi_error
               ~options:{ (Harness.model_options ()) with overrides } b))
        Harness.benchmarks
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

(* [f] of every sim-backed design point of every benchmark. *)
let space_points f =
  List.concat_map
    (fun b -> List.map f (Harness.space_result b))
    Harness.benchmarks

let design_space_errors () =
  space_points (fun p ->
      (Validate.signed_error p, Validate.power_signed_error p))

let fig6_5 () =
  Table.section
    "Fig 6.4-6.6 — CPI error across the design space (27 sim-backed points x 29 \
     benchmarks)";
  (* Fig 6.4: separate vs combined micro-trace evaluation. *)
  let combined_opts = { (Harness.model_options ()) with combine = `Combined } in
  let sep_errors = space_points Validate.abs_error in
  let comb_errors =
    List.concat_map
      (fun b ->
        let profile =
          Profiler.profile (Benchmarks.find b) ~seed:Harness.seed
            ~n_instructions:Harness.n_space
        in
        List.map2
          (fun (m : Sweep.eval) (p : Validate.point) ->
            Float.abs
              (Stats.relative_error ~predicted:m.sw_cpi ~reference:p.vp_sim_cpi))
          (Sweep.model_sweep ~options:combined_opts ~profile Harness.sim_subspace)
          (Harness.space_result b))
      Harness.benchmarks
  in
  Printf.printf "Fig 6.4 cumulative error distribution (separate vs combined):\n";
  List.iter
    (fun pct ->
      Printf.printf "  p%.0f: separate %s, combined %s\n" pct
        (Table.fmt_pct (Stats.percentile sep_errors pct))
        (Table.fmt_pct (Stats.percentile comb_errors pct)))
    [ 50.0; 75.0; 90.0 ];
  Printf.printf
    "mean |CPI err|: separate (per micro-trace) %s vs combined (averaged) %s\n"
    (Table.fmt_pct (Stats.mean sep_errors))
    (Table.fmt_pct (Stats.mean comb_errors));
  (* Fig 6.5: box plot; Fig 6.6: scatter correlation. *)
  let errs = design_space_errors () in
  Harness.print_box "Fig 6.5 CPI error box" (List.map fst errs);
  let model_cpis, sim_cpis =
    List.split
      (space_points (fun (p : Validate.point) -> (p.vp_model_cpi, p.vp_sim_cpi)))
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
         Harness.benchmarks);
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
      (space_points (fun (p : Validate.point) ->
           (p.vp_model_watts, p.vp_sim_watts)))
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
      let pairs =
        Array.to_list sim.r_time_series
        |> List.map (fun (i, c) ->
               (c, Harness.mean_cpi_between pred.pr_time_series (i - 30_000) i))
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
    Harness.benchmarks;
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
