(* Beyond the paper's figures: a prefetcher design-choice comparison,
   the multi-core extension, an ablation of model components and the
   §6.2 model-vs-simulation speedup. *)

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
               (fun b -> Float.abs (Harness.cpi_error ~options b))
               Harness.benchmarks
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
    (* Full design-space extrapolation (Table 6.3 space, 29 Harness.benchmarks). *)
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
