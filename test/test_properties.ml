(* Cross-cutting property tests: conservation laws and monotonicities the
   model and its substrates must satisfy on arbitrary inputs. *)

let mix entries =
  let c = Isa.Class_counts.create () in
  List.iter (fun (cls, n) -> Isa.Class_counts.add c cls n) entries;
  c

(* ---- Port schedule conservation ---- *)

let prop_port_schedule_conserves_activity =
  QCheck.Test.make ~name:"greedy port schedule conserves total activity" ~count:200
    QCheck.(
      quad (int_range 0 200) (int_range 0 200) (int_range 0 100) (int_range 0 100))
    (fun (alu, load, store, branch) ->
      let m =
        mix
          [ (Isa.Int_alu, alu); (Isa.Load, load); (Isa.Store, store);
            (Isa.Branch, branch) ]
      in
      let activity = Dispatch_model.port_schedule Uarch.reference ~mix:m in
      let scheduled = Array.fold_left ( +. ) 0.0 activity in
      Float.abs (scheduled -. float_of_int (alu + load + store + branch)) < 1e-6)

let prop_port_schedule_nonnegative =
  QCheck.Test.make ~name:"port activity never negative" ~count:200
    QCheck.(pair (int_range 0 500) (int_range 0 500))
    (fun (a, b) ->
      let m = mix [ (Isa.Fp_mul, a); (Isa.Move, b) ] in
      let activity = Dispatch_model.port_schedule Uarch.reference ~mix:m in
      Array.for_all (fun v -> v >= -1e-9) activity)

(* ---- Histogram replay ---- *)

let prop_replayer_reproduces_counts =
  QCheck.Test.make ~name:"histogram replayer reproduces exact counts per cycle"
    ~count:100
    QCheck.(small_list (pair (int_range (-50) 50) (int_range 1 10)))
    (fun entries ->
      QCheck.assume (entries <> []);
      let h = Histogram.create () in
      List.iter (fun (k, c) -> Histogram.add h ~count:c k) entries;
      let total = Histogram.total h in
      let replay = Mlp_model.histogram_replayer h in
      let seen = Histogram.create () in
      for _ = 1 to total do
        Histogram.add seen (replay ())
      done;
      Histogram.to_sorted_list seen = Histogram.to_sorted_list h)

(* ---- Model monotonicities ---- *)

let shared_profile =
  lazy (Profiler.profile (Benchmarks.find "sphinx3") ~seed:3 ~n_instructions:40_000)

let predict config =
  Interval_model.predict config (Lazy.force shared_profile)

let prop_wider_dispatch_never_hurts =
  QCheck.Test.make ~name:"model: wider dispatch does not increase cycles" ~count:20
    QCheck.(int_range 1 3)
    (fun w ->
      let narrow =
        { Uarch.reference with
          core = { Uarch.reference.core with dispatch_width = w } }
      in
      let wide =
        { Uarch.reference with
          core = { Uarch.reference.core with dispatch_width = w + 1 } }
      in
      (predict wide).pr_cycles <= (predict narrow).pr_cycles +. 1.0)

let prop_larger_llc_never_more_misses =
  QCheck.Test.make ~name:"model: larger LLC never predicts more LLC misses"
    ~count:20
    QCheck.(int_range 1 6)
    (fun mb ->
      let with_l3 size_mb =
        { Uarch.reference with
          caches =
            { Uarch.reference.caches with
              l3 = { Uarch.reference.caches.l3 with
                     size_bytes = size_mb * 1024 * 1024 } } }
      in
      let _, _, small = (predict (with_l3 mb)).pr_load_misses in
      let _, _, big = (predict (with_l3 (2 * mb))).pr_load_misses in
      big <= small +. 1e-6)

let prop_faster_memory_never_slower =
  QCheck.Test.make ~name:"model: lower DRAM latency does not increase cycles"
    ~count:20
    QCheck.(int_range 50 300)
    (fun lat ->
      let with_lat dram_latency =
        { Uarch.reference with
          memory = { Uarch.reference.memory with dram_latency } }
      in
      (predict (with_lat lat)).pr_cycles
      <= (predict (with_lat (lat + 100))).pr_cycles +. 1.0)

let prop_component_toggles_only_reduce =
  QCheck.Test.make
    ~name:"model: disabling a penalty component never increases cycles" ~count:10
    QCheck.(int_range 0 3)
    (fun which ->
      let base = Interval_model.default_options in
      let toggled =
        match which with
        | 0 -> { base with model_mlp = false }
        | 1 -> { base with model_bus = false }
        | 2 -> { base with model_llc_chain = false }
        | _ -> { base with model_mshr = false }
      in
      let full = Interval_model.predict ~options:base Uarch.reference
          (Lazy.force shared_profile) in
      let off = Interval_model.predict ~options:toggled Uarch.reference
          (Lazy.force shared_profile) in
      match which with
      (* dropping MLP serializes misses: cycles can only grow *)
      | 0 -> off.pr_cycles >= full.pr_cycles -. 1.0
      (* dropping MSHR cap raises MLP: cycles can only shrink *)
      | 3 -> off.pr_cycles <= full.pr_cycles +. 1.0
      (* dropping bus/chaining removes penalties: cycles can only shrink *)
      | _ -> off.pr_cycles <= full.pr_cycles +. 1.0)

(* ---- Operating-point invariance over the large space ---- *)

(* The sweep engines reuse one prediction across configs with equal
   [Interval_model.timing_key]; that is exact only while [predict] never
   reads the name or the DVFS operating point.  Marshalling without
   sharing compares every float by its bit pattern. *)
let same_bits_except_uarch (a : Interval_model.prediction)
    (b : Interval_model.prediction) =
  let bits (p : Interval_model.prediction) =
    Marshal.to_string { p with pr_uarch = "" } [ Marshal.No_sharing ]
  in
  bits a = bits b

let finite_prediction (p : Interval_model.prediction) =
  let c = p.pr_components in
  let l1, l2, l3 = p.pr_load_misses in
  let a = p.pr_activity in
  List.for_all Float.is_finite
    ([ p.pr_cycles; p.pr_instructions; p.pr_uops; c.c_base; c.c_branch;
       c.c_icache; c.c_llc_hit; c.c_dram; p.pr_mlp; p.pr_branch_mispredicts;
       l1; l2; l3; p.pr_dram_loads; a.a_cycles; a.a_uops; a.a_l1i_accesses;
       a.a_l1d_accesses; a.a_l2_accesses; a.a_l3_accesses; a.a_dram_accesses;
       a.a_branch_lookups; p.pr_limits.lim_width; p.pr_limits.lim_dependences;
       p.pr_limits.lim_ports; p.pr_limits.lim_units ]
    @ Array.to_list a.a_uops_by_class
    @ Array.to_list (Array.map snd p.pr_time_series))

let prop_operating_point_invariance =
  let space = Config_space.large in
  let n_dvfs = List.length Uarch.dvfs_points in
  QCheck.Test.make
    ~name:
      "model: prediction bit-identical across operating points; finite, \
       stack sums to cycles, MLP >= 1 (large space)" ~count:40
    QCheck.(pair (int_range 0 (Config_space.size space - 1)) (int_range 1 (n_dvfs - 1)))
    (fun (index, shift) ->
      let digits = Config_space.digits_of_index space index in
      let last = Array.length digits - 1 in
      let other = Array.copy digits in
      other.(last) <- (digits.(last) + shift) mod n_dvfs;
      let u = Config_space.config_of_digits space digits in
      let v = Config_space.config_of_digits space other in
      let pu = predict u and pv = predict v in
      let cycles = pu.pr_cycles in
      u.operating_point <> v.operating_point
      && u.name <> v.name
      && Interval_model.timing_key u = Interval_model.timing_key v
      && same_bits_except_uarch pu pv
      && pu.pr_uarch = u.name && pv.pr_uarch = v.name
      && finite_prediction pu
      && Float.abs (Interval_model.components_total pu.pr_components -. cycles)
         <= 1e-9 *. Float.max 1.0 cycles
      && pu.pr_mlp >= 1.0)

(* ---- Simulator conservation ---- *)

let prop_sim_uops_conserved =
  QCheck.Test.make ~name:"simulator commits exactly the generated micro-ops"
    ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let spec = Benchmarks.find "calculix" in
      let n = 5_000 in
      let gen = Workload_gen.create spec ~seed in
      Workload_gen.skip gen ~n_instructions:n;
      let expected = Workload_gen.uops_emitted gen in
      let r = Simulator.run Uarch.reference spec ~seed ~n_instructions:n in
      r.r_uops = expected && r.r_instructions = n)

let prop_sim_misses_bounded_by_accesses =
  QCheck.Test.make ~name:"simulator misses bounded by accesses at each level"
    ~count:8
    QCheck.(int_range 1 50)
    (fun seed ->
      let r =
        Simulator.run Uarch.reference (Benchmarks.find "soplex") ~seed
          ~n_instructions:5_000
      in
      r.r_l1d.load_misses + r.r_l1d.store_misses <= r.r_l1d.accesses
      && r.r_l2.load_misses + r.r_l2.store_misses <= r.r_l2.accesses
      && r.r_l3.load_misses + r.r_l3.store_misses <= r.r_l3.accesses
      && r.r_branch_mispredicts <= r.r_branches)

(* ---- Pareto hypervolume ---- *)

let point_gen =
  QCheck.Gen.(
    map2
      (fun d p -> (d, p))
      (float_range 0.1 10.0) (float_range 0.1 10.0))

let prop_hypervolume_monotone_under_points =
  QCheck.Test.make ~name:"adding a point never shrinks the hypervolume" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 15) (make point_gen))
        (make point_gen))
    (fun (coords, (d, p)) ->
      let mk i (dd, pp) = { Pareto.pt_id = i; pt_delay = dd; pt_power = pp } in
      let points = List.mapi mk coords in
      let extra = mk 999 (d, p) in
      let reference = (11.0, 11.0) in
      Pareto.hypervolume ~reference (extra :: points)
      >= Pareto.hypervolume ~reference points -. 1e-9)

let prop_frontier_hypervolume_equals_full_set =
  QCheck.Test.make ~name:"frontier carries the whole hypervolume" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 15) (make point_gen))
    (fun coords ->
      let points =
        List.mapi
          (fun i (d, p) -> { Pareto.pt_id = i; pt_delay = d; pt_power = p })
          coords
      in
      let reference = (11.0, 11.0) in
      Float.abs
        (Pareto.hypervolume ~reference points
        -. Pareto.hypervolume ~reference (Pareto.frontier points))
      < 1e-9)

(* ---- Power model ---- *)

let prop_energy_scales_with_time =
  QCheck.Test.make ~name:"energy = power x time exactly" ~count:100
    QCheck.(float_range 1e3 1e9)
    (fun cycles ->
      let a = { Power.zero_activity with a_cycles = cycles; a_uops = cycles } in
      let b = Power.estimate Uarch.reference a in
      let e = Power.energy_joules Uarch.reference b ~cycles in
      let t = Power.seconds_of_cycles Uarch.reference cycles in
      Float.abs (e -. (b.total_watts *. t)) < 1e-9 *. Float.max 1.0 e)

(* ---- Checkpoint log corruption ----

   Damage a real log — truncate it at a random byte or flip a random
   byte — and reopen it.  Reopening never raises: it restores an
   in-order prefix of the records written, restarts a log cut inside its
   header, and refuses (as bad input) a header whose bytes changed.
   Re-running on the damaged log reproduces the uninterrupted run bit
   for bit. *)

let fuzz_profile =
  lazy (Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:20_000)

let damage_gen =
  QCheck.(triple bool (float_range 0.0 1.0) (int_range 1 255))

(* Damage [path]; true when the damage reaches into the header line. *)
let damage path (truncate, at, mask) =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let k = min (String.length s - 1) (int_of_float (at *. float_of_int (String.length s))) in
  let damaged =
    if truncate then String.sub s 0 k
    else
      String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor mask) else c) s
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc damaged);
  (not truncate) && k <= String.index s '\n'

(* The record payloads of an undamaged log, in file order. *)
let payloads path =
  List.tl (In_channel.with_open_bin path In_channel.input_lines)
  |> List.map (fun l -> String.sub l 9 (String.length l - 9))

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let with_log_file f =
  let path = Filename.temp_file "fuzz" ".ckpt" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* The run name in a log's header: its last field, OCaml-quoted. *)
let run_name path =
  let line = Option.get (In_channel.with_open_bin path In_channel.input_line) in
  let q = String.index line '"' in
  Scanf.sscanf (String.sub line q (String.length line - q)) "%S" Fun.id

(* [reopen ~workload path] opens the damaged log with the engine's own
   header (run name [workload]) and codec, returning the re-encoded
   records it restores. *)
let fuzz_engine ~run ~reopen ~same dmg =
  with_log_file (fun path ->
      let whole = run ~jobs:1 path in
      let written = payloads path in
      let workload = run_name path in
      let in_header = damage path dmg in
      match reopen ~workload path with
      | exception e -> QCheck.Test.fail_reportf "reopen raised %s" (Printexc.to_string e)
      | Error (Fault.Bad_input _) when in_header -> true
      | Error ft -> QCheck.Test.fail_reportf "reopen refused: %s" (Fault.to_string ft)
      | Ok restored ->
        if not (is_prefix restored written) then
          QCheck.Test.fail_report "restored records are not a prefix of the log"
        else same whole (run ~jobs:2 path))

let prop_point_log_corruption =
  QCheck.Test.make ~name:"per-point checkpoint: any damage restores a prefix, resume bit-identical"
    ~count:60 damage_gen
    (fun dmg ->
      let profile = Lazy.force fuzz_profile in
      let configs = List.filteri (fun i _ -> i mod 9 = 0) Uarch.design_space in
      let n = List.length configs in
      fuzz_engine dmg
        ~run:(fun ~jobs path ->
          Fault.or_raise
            (Sweep.model_sweep_result ~jobs ~checkpoint:path ~block_size:4
               ~profile configs))
        ~reopen:(fun ~workload path ->
          Result.map
            (fun (t, records) ->
              Checkpoint.close t;
              List.map (fun (i, r) -> Checkpoint.encode_point ~width:6 i r) records)
            (Checkpoint.open_ path
               ~header:(Checkpoint.point_header ~workload ~n_points:n ~width:6)
               ~decode:(Checkpoint.decode_point ~n_points:n ~width:6)))
        ~same:(fun (a : Sweep.outcome) (b : Sweep.outcome) ->
          compare a.o_results b.o_results = 0))

let prop_block_log_corruption =
  QCheck.Test.make ~name:"block checkpoint: any damage restores a prefix, resume bit-identical"
    ~count:60 damage_gen
    (fun dmg ->
      let profile = Lazy.force fuzz_profile in
      let space = Config_space.default in
      let n = Config_space.size space and block_size = 16 in
      let strip (s : Sweep.stream_summary) =
        Marshal.to_string
          { s with ss_resumed_blocks = 0; ss_evaluated_blocks = 0 }
          [ Marshal.No_sharing ]
      in
      fuzz_engine dmg
        ~run:(fun ~jobs path ->
          Fault.or_raise
            (Sweep.model_sweep_stream ~jobs ~checkpoint:path ~block_size ~profile
               space))
        ~reopen:(fun ~workload path ->
          Result.map
            (fun (t, blocks) ->
              Checkpoint.close t;
              List.map Checkpoint.encode_block blocks)
            (Checkpoint.open_ path
               ~header:
                 (Checkpoint.block_header ~workload ~n_points:n
                    ~width:Sweep.stream_stats_width ~block_size
                    ~offset:0 ~length:n)
               ~decode:
                 (Checkpoint.decode_block
                    ~n_blocks:((n + block_size - 1) / block_size)
                    ~width:Sweep.stream_stats_width)))
        ~same:(fun a b -> strip a = strip b))

let () =
  Alcotest.run "properties"
    [
      ( "dispatch",
        [
          QCheck_alcotest.to_alcotest prop_port_schedule_conserves_activity;
          QCheck_alcotest.to_alcotest prop_port_schedule_nonnegative;
        ] );
      ("replay", [ QCheck_alcotest.to_alcotest prop_replayer_reproduces_counts ]);
      ( "model_monotonicity",
        [
          QCheck_alcotest.to_alcotest prop_wider_dispatch_never_hurts;
          QCheck_alcotest.to_alcotest prop_larger_llc_never_more_misses;
          QCheck_alcotest.to_alcotest prop_faster_memory_never_slower;
          QCheck_alcotest.to_alcotest prop_component_toggles_only_reduce;
          QCheck_alcotest.to_alcotest prop_operating_point_invariance;
        ] );
      ( "simulator",
        [
          QCheck_alcotest.to_alcotest prop_sim_uops_conserved;
          QCheck_alcotest.to_alcotest prop_sim_misses_bounded_by_accesses;
        ] );
      ( "pareto",
        [
          QCheck_alcotest.to_alcotest prop_hypervolume_monotone_under_points;
          QCheck_alcotest.to_alcotest prop_frontier_hypervolume_equals_full_set;
        ] );
      ("power", [ QCheck_alcotest.to_alcotest prop_energy_scales_with_time ]);
      ( "checkpoint",
        [
          QCheck_alcotest.to_alcotest prop_point_log_corruption;
          QCheck_alcotest.to_alcotest prop_block_log_corruption;
        ] );
    ]
