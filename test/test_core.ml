(* Tests for the analytical model: dispatch model (incl. the Table 3.1
   worked examples), leaky bucket, MLP models, LLC chaining, and the
   interval model's structure, ablations, and overrides. *)

let mix entries =
  let c = Isa.Class_counts.create () in
  List.iter (fun (cls, n) -> Isa.Class_counts.add c cls n) entries;
  c

(* A Nehalem-like core where the Table 3.1 examples apply: width 4, ROB 64,
   CP 8, unit-latency view. *)
let example_core () = Uarch.with_rob Uarch.reference 64

(* ---- Dispatch model: Table 3.1 ---- *)

let table_3_1_first =
  (* 40 loads, 20 stores, 20 ALU, 10 FP-mul, 10 branches. *)
  mix [ (Isa.Load, 40); (Isa.Store, 20); (Isa.Int_alu, 20); (Isa.Fp_mul, 10);
        (Isa.Branch, 10) ]

let table_3_1_second =
  mix [ (Isa.Load, 40); (Isa.Store, 20); (Isa.Int_alu, 20); (Isa.Int_div, 10);
        (Isa.Branch, 10) ]

let test_table_3_1_port_limit () =
  (* First mix: the single load port (40 of 100 micro-ops) limits the
     rate to 100/40 = 2.5 (Eq 3.11). *)
  let u = example_core () in
  let limits =
    Dispatch_model.compute u ~mix:table_3_1_first ~critical_path:8.0 ~load_latency:2.0
  in
  Alcotest.(check (float 1e-6)) "port limit 2.5" 2.5 limits.lim_ports;
  Alcotest.(check (float 1e-6)) "width 4" 4.0 limits.lim_width;
  let avg_lat =
    Dispatch_model.average_latency u ~mix:table_3_1_first ~load_latency:2.0
  in
  Alcotest.(check (float 1e-6)) "dependence limit 64/(lat*8)" (64.0 /. (avg_lat *. 8.0))
    limits.lim_dependences;
  Alcotest.(check (float 1e-6)) "effective rate 2.5" 2.5
    (Dispatch_model.effective_rate limits);
  Alcotest.(check string) "ports bind" "ports" (Dispatch_model.limiting_factor limits)

let test_table_3_1_nonpipelined_divider () =
  (* Second mix: the non-pipelined divider (10 divides x 20-cycle latency
     on 1 unit) limits the rate to 100*1/(10*20) = 0.5 in our core (the
     thesis' example used a 5-cycle divider giving 2.0; the structure —
     units bind tighter than ports — is what matters). *)
  let u = example_core () in
  let limits =
    Dispatch_model.compute u ~mix:table_3_1_second ~critical_path:8.0
      ~load_latency:2.0
  in
  let div = Uarch.functional_unit_for u.core Isa.Int_div in
  let expected = 100.0 *. float_of_int div.unit_count
                 /. (10.0 *. float_of_int div.unit_latency) in
  Alcotest.(check (float 1e-6)) "divider limit" expected limits.lim_units;
  Alcotest.(check bool) "units bind tighter than ports" true
    (limits.lim_units < limits.lim_ports);
  Alcotest.(check string) "units bind" "units" (Dispatch_model.limiting_factor limits)

let test_eq_3_8_dependence_bound () =
  (* Eq 3.8: width-4 machine, ROB 16, unit latency, CP 6 -> Deff 2.67. *)
  let u = Uarch.with_rob Uarch.reference 16 in
  let compute_only = mix [ (Isa.Int_alu, 16) ] in
  let limits =
    Dispatch_model.compute u ~mix:compute_only ~critical_path:6.0 ~load_latency:4.0
  in
  Alcotest.(check (float 1e-4)) "16/(1*6)" (16.0 /. 6.0) limits.lim_dependences

let test_port_schedule_waterfills () =
  let u = Uarch.reference in
  (* Only ALU micro-ops: spread across the three ALU-capable ports. *)
  let activity = Dispatch_model.port_schedule u ~mix:(mix [ (Isa.Int_alu, 90) ]) in
  let alu = Uarch.functional_unit_for u.core Isa.Int_alu in
  List.iter
    (fun p -> Alcotest.(check (float 1e-6)) "balanced" 30.0 activity.(p))
    alu.usable_ports

let test_port_schedule_respects_pinned () =
  let u = Uarch.reference in
  (* Branches pin port 5; ALUs then prefer ports 0/1. *)
  let activity =
    Dispatch_model.port_schedule u ~mix:(mix [ (Isa.Branch, 30); (Isa.Int_alu, 60) ])
  in
  Alcotest.(check (float 1e-6)) "port 5 = branches + alu share" 30.0 activity.(5);
  Alcotest.(check (float 1e-6)) "port 0" 30.0 activity.(0);
  Alcotest.(check (float 1e-6)) "port 1" 30.0 activity.(1)

let test_average_latency () =
  let u = Uarch.reference in
  let lat =
    Dispatch_model.average_latency u ~mix:(mix [ (Isa.Int_alu, 50); (Isa.Load, 50) ])
      ~load_latency:5.0
  in
  Alcotest.(check (float 1e-6)) "mean of 1 and 5" 3.0 lat;
  Alcotest.(check (float 1e-6)) "empty mix" 1.0
    (Dispatch_model.average_latency u ~mix:(mix []) ~load_latency:5.0)

let prop_effective_rate_bounded =
  QCheck.Test.make ~name:"0 < Deff <= D" ~count:100
    QCheck.(pair (int_range 1 400) (float_range 1.0 64.0))
    (fun (alu, cp) ->
      let u = Uarch.reference in
      let m = mix [ (Isa.Int_alu, alu); (Isa.Load, alu / 2); (Isa.Branch, 5) ] in
      let l = Dispatch_model.compute u ~mix:m ~critical_path:cp ~load_latency:4.0 in
      let d = Dispatch_model.effective_rate l in
      d > 0.0 && d <= float_of_int u.core.dispatch_width +. 1e-9)

(* ---- Branch model ---- *)

let chains_fixture =
  {
    Profile.rob_sizes = [| 16; 64; 128; 256 |];
    ap = [| 2.0; 2.5; 2.8; 3.1 |];
    abp = [| 2.2; 2.8; 3.2; 3.5 |];
    cp = [| 4.0; 6.0; 7.5; 9.0 |];
    abp_windows = [| 1; 1; 1; 1 |];
  }

let test_leaky_bucket_monotone_in_interval () =
  (* Longer mispredict-free intervals fill the ROB more: resolution time
     should not decrease. *)
  let core = Uarch.reference.core in
  let res n =
    Branch_model.resolution_time ~chains:chains_fixture ~avg_latency:2.0
      ~dispatch_width:core.dispatch_width ~rob_size:core.rob_size
      ~uops_between_mispredicts:n
  in
  Alcotest.(check bool) "longer interval, deeper ROB" true (res 2000.0 >= res 20.0);
  Alcotest.(check bool) "positive" true (res 50.0 > 0.0)

let test_branch_penalty_includes_frontend () =
  let core = Uarch.reference.core in
  let p =
    Branch_model.penalty ~chains:chains_fixture ~avg_latency:2.0 ~core
      ~uops_between_mispredicts:500.0
  in
  Alcotest.(check bool) "at least the refill time" true
    (p >= float_of_int core.frontend_depth)

let test_leaky_bucket_terminates_on_deep_chains () =
  (* Pathological chains that fill the ROB must still terminate. *)
  let deep =
    { chains_fixture with cp = [| 160.0; 640.0; 1280.0; 2560.0 |] }
  in
  let p =
    Branch_model.penalty ~chains:deep ~avg_latency:3.0 ~core:Uarch.reference.core
      ~uops_between_mispredicts:100_000.0
  in
  Alcotest.(check bool) "finite" true (Float.is_finite p)

(* ---- MLP models ---- *)

let profile_of name n = Profiler.profile (Benchmarks.find name) ~seed:1 ~n_instructions:n

let test_mshr_cap () =
  Alcotest.(check (float 1e-9)) "below cap unchanged" 5.0
    (Mlp_model.mshr_cap ~mlp:5.0 ~mshr_entries:10 ~dram_latency:200);
  let capped = Mlp_model.mshr_cap ~mlp:30.0 ~mshr_entries:10 ~dram_latency:200 in
  Alcotest.(check bool) "soft cap between entries and raw" true
    (capped > 10.0 && capped < 30.0)

let test_bus_queue () =
  Alcotest.(check (float 1e-9)) "no misses, no queue" 0.0
    (Mlp_model.bus_queue_cycles ~mlp:4.0 ~load_misses:0.0 ~store_misses:0.0
       ~bus_transfer:8);
  (* Eq 4.5: MLP' = 4 -> (4+1)/2 * 8 = 20 *)
  Alcotest.(check (float 1e-9)) "eq 4.5" 20.0
    (Mlp_model.bus_queue_cycles ~mlp:4.0 ~load_misses:10.0 ~store_misses:0.0
       ~bus_transfer:8);
  (* Eq 4.6: stores double the traffic -> MLP' = 8 -> 36 *)
  Alcotest.(check (float 1e-9)) "eq 4.6" 36.0
    (Mlp_model.bus_queue_cycles ~mlp:4.0 ~load_misses:10.0 ~store_misses:10.0
       ~bus_transfer:8)

let test_mlp_models_in_bounds () =
  let p = profile_of "milc" 30_000 in
  Array.iter
    (fun mt ->
      let cold =
        Mlp_model.cold_miss ~mt ~cold_scale:1.0 ~rob_size:128
          ~llc_load_miss_rate:0.2 ~load_fraction:0.25
      in
      let stride =
        Mlp_model.stride ~mt ~uarch:Uarch.reference ~llc_lines:131072
          ~llc_load_miss_rate:0.2 ~model_prefetch:false
      in
      Alcotest.(check bool) "cold MLP >= 1" true (cold.mlp >= 1.0);
      Alcotest.(check bool) "stride MLP >= 1" true (stride.mlp >= 1.0);
      Alcotest.(check bool) "stride MLP bounded by ROB loads" true
        (stride.mlp <= 128.0);
      Alcotest.(check (float 1e-9)) "no prefetch coverage when off" 0.0
        stride.prefetch_coverage)
    p.p_microtraces

let test_stride_mlp_prefetch_coverage () =
  let p = profile_of "libquantum" 30_000 in
  let pf = Uarch.with_prefetcher Uarch.reference true in
  let covered = ref 0.0 and n = ref 0 in
  Array.iter
    (fun mt ->
      let r =
        Mlp_model.stride ~mt ~uarch:pf ~llc_lines:131072 ~llc_load_miss_rate:0.25
          ~model_prefetch:true
      in
      covered := !covered +. r.prefetch_coverage;
      incr n)
    p.p_microtraces;
  let avg = !covered /. float_of_int !n in
  Alcotest.(check bool)
    (Printf.sprintf "libquantum coverage %.2f > 0.3" avg)
    true (avg > 0.3)

let test_no_mlp_constant () =
  Alcotest.(check (float 1e-9)) "serialized" 1.0 Mlp_model.no_mlp.mlp

(* ---- LLC chain ---- *)

let test_llc_chain_zero_without_hits () =
  let p = profile_of "gamess" 20_000 in
  let mt = p.p_microtraces.(0) in
  Alcotest.(check (float 1e-9)) "no LLC hits, no penalty" 0.0
    (Llc_chain.penalty ~mt ~uarch:Uarch.reference ~llc_hit_rate:0.0
       ~load_fraction:0.25 ~effective_dispatch_rate:2.0)

let test_llc_chain_grows_with_hit_rate () =
  let p = profile_of "mcf" 20_000 in
  let mt = p.p_microtraces.(1) in
  let pen rate =
    Llc_chain.penalty ~mt ~uarch:Uarch.reference ~llc_hit_rate:rate
      ~load_fraction:0.3 ~effective_dispatch_rate:2.0
  in
  Alcotest.(check bool) "monotone in hit rate" true (pen 0.8 >= pen 0.2);
  Alcotest.(check bool) "non-negative" true (pen 0.2 >= 0.0)

(* ---- Interval model ---- *)

let test_prediction_structure () =
  let p = profile_of "astar" 30_000 in
  let pred = Interval_model.predict Uarch.reference p in
  Alcotest.(check bool) "cycles positive" true (pred.pr_cycles > 0.0);
  Alcotest.(check (float 1e-6)) "components sum to cycles" pred.pr_cycles
    (Interval_model.components_total pred.pr_components);
  Alcotest.(check bool) "cpi sane" true
    (Interval_model.cpi pred > 0.1 && Interval_model.cpi pred < 50.0);
  let l1, l2, l3 = pred.pr_load_misses in
  Alcotest.(check bool) "miss monotonicity" true (l1 >= l2 && l2 >= l3 && l3 >= 0.0);
  Alcotest.(check bool) "mlp >= 1" true (pred.pr_mlp >= 1.0);
  Alcotest.(check int) "per-microtrace time series"
    (Array.length p.p_microtraces)
    (Array.length pred.pr_time_series)

let test_base_bounded_by_width () =
  let p = profile_of "gamess" 30_000 in
  let pred = Interval_model.predict Uarch.reference p in
  let min_base = pred.pr_uops /. float_of_int Uarch.reference.core.dispatch_width in
  Alcotest.(check bool) "base >= N/D" true
    (pred.pr_components.c_base >= min_base -. 1e-6)

let test_ablation_ordering () =
  (* Each modeled component adds cycles: the full model predicts more than
     the stripped one on a workload that exercises everything. *)
  let p = profile_of "mcf" 30_000 in
  let opts = Interval_model.default_options in
  let full = Interval_model.predict ~options:opts Uarch.reference p in
  let no_mlp =
    Interval_model.predict ~options:{ opts with model_mlp = false } Uarch.reference p
  in
  Alcotest.(check bool) "no MLP serializes DRAM (Fig 4.3)" true
    (no_mlp.pr_components.c_dram > full.pr_components.c_dram);
  let no_ports =
    Interval_model.predict
      ~options:{ opts with use_port_contention = false }
      Uarch.reference p
  in
  Alcotest.(check bool) "port contention adds base cycles" true
    (no_ports.pr_components.c_base <= full.pr_components.c_base +. 1e-6);
  let insn =
    Interval_model.predict ~options:{ opts with use_uops = false } Uarch.reference p
  in
  Alcotest.(check bool) "instruction counting underestimates" true
    (insn.pr_components.c_base < full.pr_components.c_base)

let test_overrides_replace_inputs () =
  let p = profile_of "bzip2" 30_000 in
  let opts = Interval_model.default_options in
  let with_or =
    Interval_model.predict
      ~options:
        {
          opts with
          overrides =
            {
              Interval_model.no_overrides with
              ov_branch_missrate = Some 0.0;
              ov_load_miss_ratios = Some (0.0, 0.0, 0.0);
              ov_store_miss_ratios = Some (0.0, 0.0, 0.0);
              ov_inst_miss_ratios = Some (0.0, 0.0, 0.0);
            };
        }
      Uarch.reference p
  in
  Alcotest.(check (float 1e-9)) "no branch cycles" 0.0
    with_or.pr_components.c_branch;
  Alcotest.(check (float 1e-9)) "no dram cycles" 0.0 with_or.pr_components.c_dram;
  Alcotest.(check (float 1e-9)) "no icache cycles" 0.0
    with_or.pr_components.c_icache

let test_combined_mode_close_but_different () =
  let p = profile_of "gcc" 50_000 in
  let separate = Interval_model.predict Uarch.reference p in
  let combined =
    Interval_model.predict
      ~options:{ Interval_model.default_options with combine = `Combined }
      Uarch.reference p
  in
  let c1 = Interval_model.cpi separate and c2 = Interval_model.cpi combined in
  Alcotest.(check bool) "same ballpark" true (Float.abs (c1 -. c2) /. c1 < 0.5);
  Alcotest.(check int) "combined has one evaluation" 1
    (Array.length combined.pr_time_series)

let test_cold_vs_stride_mlp_selectable () =
  let p = profile_of "milc" 30_000 in
  let run m =
    Interval_model.predict
      ~options:{ Interval_model.default_options with mlp_model = m }
      Uarch.reference p
  in
  let cold = run `Cold and stride = run `Stride in
  Alcotest.(check bool) "both in range" true
    (cold.pr_mlp >= 1.0 && stride.pr_mlp >= 1.0)

let test_bigger_caches_fewer_misses () =
  let p = profile_of "astar" 30_000 in
  let small = List.nth Uarch.design_space 0 in
  let big = List.nth Uarch.design_space 242 in
  let ps = Interval_model.predict small p in
  let pb = Interval_model.predict big p in
  let _, _, l3s = ps.pr_load_misses in
  let _, _, l3b = pb.pr_load_misses in
  Alcotest.(check bool) "bigger hierarchy, fewer LLC misses" true (l3b <= l3s)

let test_activity_consistency () =
  let p = profile_of "wrf" 30_000 in
  let pred = Interval_model.predict Uarch.reference p in
  let a = pred.pr_activity in
  Alcotest.(check (float 1e-6)) "activity cycles = predicted" pred.pr_cycles
    a.a_cycles;
  Alcotest.(check bool) "uop classes sum to uops" true
    (Float.abs (Array.fold_left ( +. ) 0.0 a.a_uops_by_class -. pred.pr_uops) < 1.0);
  Alcotest.(check bool) "l2 accesses below l1" true
    (a.a_l2_accesses <= a.a_l1d_accesses +. a.a_l1i_accesses)

(* Memo keys hold every input their function reads: a prediction does
   not depend on what was predicted on the same profile before.  Two
   configs that differ only in the DRAM page size give different stride
   prefetch coverage; predicting one first must not leak into the other. *)
let test_predictions_independent_of_order () =
  let with_page (u : Uarch.t) page =
    { u with name = Printf.sprintf "page%d" page;
             memory = { u.memory with dram_page_bytes = page } }
  in
  let pf = Uarch.with_prefetcher_kind Uarch.reference Uarch.Pf_stride in
  let a = with_page pf 4096 and b = with_page pf 64 in
  let bits p = Marshal.to_string (p : Interval_model.prediction) [ Marshal.No_sharing ] in
  List.iter
    (fun (bench, n) ->
      let bytes =
        Profile_io.to_binary_string
          (Profiler.profile (Benchmarks.find bench) ~seed:1 ~n_instructions:n)
      in
      let fresh () =
        match Profile_io.of_string bytes with
        | Ok p -> p
        | Error ft -> Alcotest.fail (Fault.to_string ft)
      in
      let shared = fresh () in
      ignore (Interval_model.predict a shared);
      let after_a = Interval_model.predict b shared in
      let alone = Interval_model.predict b (fresh ()) in
      Alcotest.(check bool)
        (bench ^ ": B after A equals B alone, bit for bit")
        true
        (bits after_a = bits alone))
    [ ("milc", 100_000); ("mcf", 50_000); ("bzip2", 50_000) ]

let test_prefetch_model_reduces_dram () =
  let p = profile_of "libquantum" 30_000 in
  let pf = Uarch.with_prefetcher Uarch.reference true in
  let without = Interval_model.predict Uarch.reference p in
  let with_pf = Interval_model.predict pf p in
  Alcotest.(check bool) "prefetcher lowers predicted DRAM time" true
    (with_pf.pr_components.c_dram < without.pr_components.c_dram)

let test_icache_component_formula () =
  (* With overridden per-instruction I-miss ratios the icache component is
     exactly (i1-i2)*cL2 + (i2-i3)*cL3 + i3*(cmem + transfer). *)
  let p = profile_of "gamess" 20_000 in
  let opts =
    {
      Interval_model.default_options with
      overrides =
        {
          Interval_model.no_overrides with
          ov_inst_miss_ratios = Some (0.02, 0.01, 0.001);
          ov_branch_missrate = Some 0.0;
          ov_load_miss_ratios = Some (0.0, 0.0, 0.0);
          ov_store_miss_ratios = Some (0.0, 0.0, 0.0);
        };
    }
  in
  let pred = Interval_model.predict ~options:opts Uarch.reference p in
  let u = Uarch.reference in
  let expected_per_instr =
    ((0.02 -. 0.01) *. float_of_int u.caches.l2.latency)
    +. ((0.01 -. 0.001) *. float_of_int u.caches.l3.latency)
    +. (0.001 *. float_of_int (u.memory.dram_latency + u.memory.bus_transfer))
  in
  Alcotest.(check (float 1e-6)) "Eq 3.1 icache term"
    expected_per_instr
    (pred.pr_components.c_icache /. pred.pr_instructions)

let test_icache_shadow_reduces_dram () =
  (* The same data-side misses cost fewer DRAM cycles when an I-cache
     stall component shadows them. *)
  let p = profile_of "soplex" 20_000 in
  let with_inst ir =
    let opts =
      {
        Interval_model.default_options with
        overrides =
          { Interval_model.no_overrides with ov_inst_miss_ratios = Some ir };
      }
    in
    (Interval_model.predict ~options:opts Uarch.reference p).pr_components
  in
  let quiet = with_inst (0.0, 0.0, 0.0) in
  let noisy = with_inst (0.2, 0.1, 0.01) in
  Alcotest.(check bool) "icache grows" true (noisy.c_icache > quiet.c_icache);
  Alcotest.(check bool) "dram shrinks under the shadow" true
    (noisy.c_dram < quiet.c_dram)

let test_measured_mlp_skips_double_penalties () =
  (* With ov_mlp the MSHR cap and bus queue must not re-apply: the DRAM
     term becomes miss_count * cmem / mlp bounded below by the floor. *)
  let p = profile_of "milc" 20_000 in
  let dram mlp =
    let opts =
      {
        Interval_model.default_options with
        overrides = { Interval_model.no_overrides with ov_mlp = Some mlp };
      }
    in
    (Interval_model.predict ~options:opts Uarch.reference p).pr_components.c_dram
  in
  (* doubling the measured MLP at most halves the (floor-bounded) term *)
  Alcotest.(check bool) "monotone in measured MLP" true (dram 8.0 <= dram 4.0);
  Alcotest.(check bool) "floor keeps it positive" true (dram 1000.0 > 0.0)

(* ---- Multi-core model ---- *)

let test_multicore_single_is_identity () =
  let p = profile_of "wrf" 20_000 in
  match Multicore_model.predict Uarch.reference [ ("wrf", p) ] with
  | [ r ] ->
    Alcotest.(check (float 1e-9)) "share 1" 1.0 r.mc_l3_share;
    Alcotest.(check (float 1e-9)) "slowdown 1" 1.0 r.mc_slowdown;
    Alcotest.(check (float 1e-9)) "same cycles as solo"
      r.mc_solo.pr_cycles r.mc_prediction.pr_cycles
  | _ -> Alcotest.fail "expected one prediction"

let test_multicore_shares_sum_to_one () =
  let profs =
    List.map (fun n -> (n, profile_of n 20_000)) [ "milc"; "gamess"; "astar" ]
  in
  let rs = Multicore_model.predict Uarch.reference profs in
  let total = List.fold_left (fun a r -> a +. r.Multicore_model.mc_l3_share) 0.0 rs in
  Alcotest.(check (float 1e-6)) "shares sum to 1" 1.0 total;
  List.iter
    (fun (r : Multicore_model.core_prediction) ->
      Alcotest.(check bool) "share above floor" true
        (r.mc_l3_share >= Multicore_model.min_share -. 1e-9);
      Alcotest.(check bool) "slowdown >= 1" true (r.mc_slowdown >= 1.0))
    rs

let test_multicore_heavy_core_gets_more_llc () =
  let profs = [ ("milc", profile_of "milc" 20_000);
                ("gamess", profile_of "gamess" 20_000) ] in
  match Multicore_model.predict Uarch.reference profs with
  | [ milc; gamess ] ->
    Alcotest.(check bool) "memory-bound core wins the LLC" true
      (milc.mc_l3_share > gamess.mc_l3_share)
  | _ -> Alcotest.fail "expected two predictions"

let test_multicore_bandwidth_pair_slows_most () =
  let pair a b =
    let profs = [ (a, profile_of a 20_000); (b, profile_of b 20_000) ] in
    match Multicore_model.predict Uarch.reference profs with
    | [ x; y ] -> Float.max x.mc_slowdown y.mc_slowdown
    | _ -> Alcotest.fail "expected two predictions"
  in
  Alcotest.(check bool) "milc pair slower than gamess pair" true
    (pair "milc" "milc" > pair "gamess" "gamess")

let test_multicore_rejects_empty () =
  Alcotest.check_raises "no workloads"
    (Invalid_argument "Multicore_model.predict: no workloads") (fun () ->
      ignore (Multicore_model.predict Uarch.reference []))

let prop_prediction_deterministic =
  QCheck.Test.make ~name:"predict is deterministic" ~count:5
    QCheck.(int_range 0 28)
    (fun i ->
      let name = List.nth Benchmarks.names i in
      let p = profile_of name 10_000 in
      let a = Interval_model.predict Uarch.reference p in
      let b = Interval_model.predict Uarch.reference p in
      a.pr_cycles = b.pr_cycles)

let () =
  Alcotest.run "core"
    [
      ( "dispatch_model",
        [
          Alcotest.test_case "Table 3.1 port limit" `Quick test_table_3_1_port_limit;
          Alcotest.test_case "Table 3.1 divider" `Quick
            test_table_3_1_nonpipelined_divider;
          Alcotest.test_case "Eq 3.8 dependence bound" `Quick
            test_eq_3_8_dependence_bound;
          Alcotest.test_case "waterfill" `Quick test_port_schedule_waterfills;
          Alcotest.test_case "pinned ports" `Quick test_port_schedule_respects_pinned;
          Alcotest.test_case "average latency" `Quick test_average_latency;
          QCheck_alcotest.to_alcotest prop_effective_rate_bounded;
        ] );
      ( "branch_model",
        [
          Alcotest.test_case "leaky bucket monotone" `Quick
            test_leaky_bucket_monotone_in_interval;
          Alcotest.test_case "includes frontend refill" `Quick
            test_branch_penalty_includes_frontend;
          Alcotest.test_case "terminates on deep chains" `Quick
            test_leaky_bucket_terminates_on_deep_chains;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "mshr cap" `Quick test_mshr_cap;
          Alcotest.test_case "bus queue Eq 4.5/4.6" `Quick test_bus_queue;
          Alcotest.test_case "models in bounds" `Quick test_mlp_models_in_bounds;
          Alcotest.test_case "prefetch coverage" `Quick
            test_stride_mlp_prefetch_coverage;
          Alcotest.test_case "no_mlp" `Quick test_no_mlp_constant;
        ] );
      ( "llc_chain",
        [
          Alcotest.test_case "zero without hits" `Quick test_llc_chain_zero_without_hits;
          Alcotest.test_case "grows with hit rate" `Quick
            test_llc_chain_grows_with_hit_rate;
        ] );
      ( "interval_model",
        [
          Alcotest.test_case "prediction structure" `Quick test_prediction_structure;
          Alcotest.test_case "base bounded by width" `Quick test_base_bounded_by_width;
          Alcotest.test_case "ablations" `Quick test_ablation_ordering;
          Alcotest.test_case "overrides" `Quick test_overrides_replace_inputs;
          Alcotest.test_case "combined mode" `Quick
            test_combined_mode_close_but_different;
          Alcotest.test_case "cold vs stride" `Quick test_cold_vs_stride_mlp_selectable;
          Alcotest.test_case "cache scaling" `Quick test_bigger_caches_fewer_misses;
          Alcotest.test_case "activity consistency" `Quick test_activity_consistency;
          Alcotest.test_case "prefetch model" `Quick test_prefetch_model_reduces_dram;
          Alcotest.test_case "predictions independent of order" `Quick
            test_predictions_independent_of_order;
          QCheck_alcotest.to_alcotest prop_prediction_deterministic;
        ] );
      ( "components",
        [
          Alcotest.test_case "icache formula" `Quick test_icache_component_formula;
          Alcotest.test_case "icache shadow" `Quick test_icache_shadow_reduces_dram;
          Alcotest.test_case "measured MLP" `Quick
            test_measured_mlp_skips_double_penalties;
        ] );
      ( "multicore_model",
        [
          Alcotest.test_case "single core identity" `Quick
            test_multicore_single_is_identity;
          Alcotest.test_case "shares sum to one" `Quick
            test_multicore_shares_sum_to_one;
          Alcotest.test_case "heavy core gets LLC" `Quick
            test_multicore_heavy_core_gets_more_llc;
          Alcotest.test_case "bandwidth pair slows most" `Quick
            test_multicore_bandwidth_pair_slows_most;
          Alcotest.test_case "rejects empty" `Quick test_multicore_rejects_empty;
        ] );
    ]
