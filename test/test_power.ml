(* Tests for the analytical power model. *)

let activity ?(cycles = 1e6) ?(uops = 2e6) () =
  {
    Power.a_cycles = cycles;
    a_uops = uops;
    a_uops_by_class =
      (let a = Array.make Isa.n_classes 0.0 in
       a.(Isa.class_index Isa.Int_alu) <- uops *. 0.5;
       a.(Isa.class_index Isa.Load) <- uops *. 0.3;
       a.(Isa.class_index Isa.Store) <- uops *. 0.1;
       a.(Isa.class_index Isa.Branch) <- uops *. 0.1;
       a);
    a_l1i_accesses = uops /. 1.2;
    a_l1d_accesses = uops *. 0.4;
    a_l2_accesses = uops *. 0.02;
    a_l3_accesses = uops *. 0.005;
    a_dram_accesses = uops *. 0.001;
    a_branch_lookups = uops *. 0.1;
  }

let test_reference_power_band () =
  let b = Power.estimate Uarch.reference (activity ()) in
  Alcotest.(check bool)
    (Printf.sprintf "total %.1f W in [5, 60]" b.total_watts)
    true
    (b.total_watts > 5.0 && b.total_watts < 60.0);
  Alcotest.(check bool) "static share 20-60%" true
    (b.static_watts /. b.total_watts > 0.2 && b.static_watts /. b.total_watts < 0.6)

let test_breakdown_sums () =
  let b = Power.estimate Uarch.reference (activity ()) in
  let sum = List.fold_left (fun a (_, w) -> a +. w) 0.0 b.components in
  Alcotest.(check (float 1e-9)) "components sum to total" b.total_watts sum;
  Alcotest.(check (float 1e-9)) "static+dynamic = total" b.total_watts
    (b.static_watts +. b.dynamic_watts);
  Alcotest.(check int) "all components present" (List.length Power.all_components)
    (List.length b.components)

let test_zero_activity_is_static_only () =
  let b = Power.estimate Uarch.reference Power.zero_activity in
  Alcotest.(check (float 1e-9)) "dynamic zero" 0.0 b.dynamic_watts;
  Alcotest.(check bool) "static positive" true (b.static_watts > 0.0)

let test_more_activity_more_power () =
  let low = Power.estimate Uarch.reference (activity ~uops:1e6 ()) in
  let high = Power.estimate Uarch.reference (activity ~uops:4e6 ()) in
  Alcotest.(check bool) "dynamic scales with activity" true
    (high.dynamic_watts > low.dynamic_watts)

let test_vdd_scaling () =
  let hi = Uarch.with_dvfs Uarch.reference ~freq_ghz:2.66 ~vdd:1.1 in
  let lo = Uarch.with_dvfs Uarch.reference ~freq_ghz:2.66 ~vdd:0.7 in
  let bh = Power.estimate hi (activity ()) in
  let bl = Power.estimate lo (activity ()) in
  Alcotest.(check bool) "higher Vdd, more static" true (bh.static_watts > bl.static_watts);
  Alcotest.(check bool) "higher Vdd, more dynamic" true
    (bh.dynamic_watts > bl.dynamic_watts)

let test_bigger_structures_leak_more () =
  let small = List.nth Uarch.design_space 0 in
  let big = List.nth Uarch.design_space 242 in
  let bs = Power.estimate small Power.zero_activity in
  let bb = Power.estimate big Power.zero_activity in
  Alcotest.(check bool) "bigger design leaks more" true
    (bb.static_watts > bs.static_watts)

let test_frequency_raises_dynamic_power () =
  (* Same work in fewer seconds: average dynamic power rises. *)
  let slow = Uarch.with_dvfs Uarch.reference ~freq_ghz:1.33 ~vdd:0.9 in
  let fast = Uarch.with_dvfs Uarch.reference ~freq_ghz:2.66 ~vdd:0.9 in
  let a = activity () in
  let bs = Power.estimate slow a and bf = Power.estimate fast a in
  Alcotest.(check bool) "2x frequency ~2x dynamic" true
    (Float.abs ((bf.dynamic_watts /. bs.dynamic_watts) -. 2.0) < 0.01)

let test_energy_and_ed2p () =
  let u = Uarch.reference in
  let b = Power.estimate u (activity ()) in
  let cycles = 1e6 in
  let seconds = Power.seconds_of_cycles u cycles in
  Alcotest.(check (float 1e-12)) "seconds" (1e6 /. 2.66e9) seconds;
  let e = Power.energy_joules u b ~cycles in
  Alcotest.(check (float 1e-9)) "E = P*t" (b.total_watts *. seconds) e;
  let ed2p = Power.ed2p u b ~cycles in
  Alcotest.(check (float 1e-15)) "ED2P = E*t^2" (e *. seconds *. seconds) ed2p

let test_component_names_unique () =
  let names = List.map Power.component_to_string Power.all_components in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let prop_power_positive =
  QCheck.Test.make ~name:"power positive across design space" ~count:50
    QCheck.(int_range 0 242)
    (fun i ->
      let u = List.nth Uarch.design_space i in
      let b = Power.estimate u (activity ()) in
      b.total_watts > 0.0 && b.static_watts > 0.0
      && List.for_all (fun (_, w) -> w >= 0.0) b.components)

(* ---- Property suite: monotonicity and conservation laws ---- *)

(* Same work at a higher frequency is the same energy in less time:
   average dynamic power — and with static untouched by frequency,
   total power — can only go up. *)
let prop_power_monotone_in_frequency =
  QCheck.Test.make ~name:"power monotone in frequency"
    ~count:100
    QCheck.(pair (float_range 0.5 4.0) (float_range 0.01 2.0))
    (fun (f_lo, df) ->
      let at f = Uarch.with_dvfs Uarch.reference ~freq_ghz:f ~vdd:0.9 in
      let a = activity () in
      let lo = Power.estimate (at f_lo) a in
      let hi = Power.estimate (at (f_lo +. df)) a in
      hi.dynamic_watts >= lo.dynamic_watts
      && hi.total_watts >= lo.total_watts
      && Float.abs (hi.static_watts -. lo.static_watts)
         <= 1e-9 *. Float.max 1.0 lo.static_watts)

let prop_power_monotone_in_vdd =
  QCheck.Test.make ~name:"power monotone in Vdd"
    ~count:100
    QCheck.(pair (float_range 0.5 1.2) (float_range 0.01 0.4))
    (fun (v_lo, dv) ->
      let at v = Uarch.with_dvfs Uarch.reference ~freq_ghz:2.66 ~vdd:v in
      let a = activity () in
      let lo = Power.estimate (at v_lo) a in
      let hi = Power.estimate (at (v_lo +. dv)) a in
      hi.static_watts >= lo.static_watts
      && hi.dynamic_watts >= lo.dynamic_watts
      && hi.total_watts >= lo.total_watts)

let prop_breakdown_sums_everywhere =
  QCheck.Test.make
    ~name:"component stack sums to total" ~count:100
    QCheck.(pair (int_range 0 242) (float_range 0.1 10.0))
    (fun (i, scale) ->
      let u = List.nth Uarch.design_space i in
      let b = Power.estimate u (activity ~uops:(2e6 *. scale) ()) in
      let sum = List.fold_left (fun a (_, w) -> a +. w) 0.0 b.components in
      Float.abs (sum -. b.total_watts) <= 1e-9 *. Float.max 1.0 b.total_watts
      && Float.abs ((b.static_watts +. b.dynamic_watts) -. b.total_watts)
         <= 1e-9 *. Float.max 1.0 b.total_watts)

(* The model's predicted activity must be physical: per-level access
   ratios (the activity factors feeding the cache/DRAM energies) in
   [0, 1] down the hierarchy, and dispatched micro-ops bounded by the
   dispatch width every cycle. *)
let model_activity =
  let profile =
    lazy
      (Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:20_000)
  in
  fun i ->
    let u = List.nth Uarch.design_space i in
    (u, (Interval_model.predict u (Lazy.force profile)).pr_activity)

let prop_predicted_activity_factors_physical =
  QCheck.Test.make
    ~name:"activity factors lie in [0,1]"
    ~count:30
    QCheck.(int_range 0 242)
    (fun i ->
      let u, a = model_activity i in
      let ratio num den = if den <= 0.0 then 0.0 else num /. den in
      let in_unit r = r >= 0.0 && r <= 1.0 +. 1e-9 in
      a.a_cycles > 0.0 && a.a_uops > 0.0
      && in_unit (ratio a.a_l2_accesses (a.a_l1d_accesses +. a.a_l1i_accesses))
      && in_unit (ratio a.a_l3_accesses a.a_l2_accesses)
      && in_unit (ratio a.a_dram_accesses a.a_l3_accesses)
      && in_unit (ratio a.a_branch_lookups a.a_uops)
      && ratio a.a_uops a.a_cycles
         <= float_of_int u.Uarch.core.dispatch_width +. 1e-9)

let () =
  Alcotest.run "power"
    [
      ( "power",
        [
          Alcotest.test_case "reference band" `Quick test_reference_power_band;
          Alcotest.test_case "breakdown sums" `Quick test_breakdown_sums;
          Alcotest.test_case "zero activity" `Quick test_zero_activity_is_static_only;
          Alcotest.test_case "activity scaling" `Quick test_more_activity_more_power;
          Alcotest.test_case "vdd scaling" `Quick test_vdd_scaling;
          Alcotest.test_case "structure leakage" `Quick test_bigger_structures_leak_more;
          Alcotest.test_case "frequency scaling" `Quick
            test_frequency_raises_dynamic_power;
          Alcotest.test_case "energy and ED2P" `Quick test_energy_and_ed2p;
          Alcotest.test_case "component names" `Quick test_component_names_unique;
          QCheck_alcotest.to_alcotest prop_power_positive;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_power_monotone_in_frequency;
          QCheck_alcotest.to_alcotest prop_power_monotone_in_vdd;
          QCheck_alcotest.to_alcotest prop_breakdown_sums_everywhere;
          QCheck_alcotest.to_alcotest prop_predicted_activity_factors_physical;
        ] );
    ]
