(* Bit-identity snapshot of the interval model and the design-point
   evaluator.

   Each row is one (profile, config, options) prediction: its cycles and
   MLP as hex floats, then the MD5 of every field of the prediction
   (CPI-stack components, activity factors, limits and time series
   included) and of the sweep evaluator's (stack, eval) for the same
   point, all rendered with [%h].  The configs are a strided sample of
   [Config_space.large] that hits every value of every axis; extra rows
   turn on the stride prefetcher, the [`Combined] and [`Cold] modes,
   ablations, measured overrides and an adjusted evaluation, and walk a
   run of DVFS siblings through the reusing evaluator.  A stream row
   pins a streamed sub-range's sums.  A faster model or evaluator must
   reproduce this file byte for byte. *)

let seed = 1
let n_instructions = 200_000
let n_sample = 64
let stride = 19_201
let pf = Printf.printf
let hex = Printf.sprintf "%h"

let hex_list xs = String.concat " " (List.map hex xs)

(* Every field of a prediction but the names, in [%h]. *)
let render_prediction (p : Interval_model.prediction) =
  let c = p.pr_components in
  let l1, l2, l3 = p.pr_load_misses in
  let lim = p.pr_limits in
  let a = p.pr_activity in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (hex_list
       [ p.pr_cycles; p.pr_instructions; p.pr_uops; c.c_base; c.c_branch;
         c.c_icache; c.c_llc_hit; c.c_dram; p.pr_mlp; p.pr_branch_mispredicts;
         l1; l2; l3; p.pr_dram_loads; lim.lim_width; lim.lim_dependences;
         lim.lim_ports; lim.lim_units; a.a_cycles; a.a_uops; a.a_l1i_accesses;
         a.a_l1d_accesses; a.a_l2_accesses; a.a_l3_accesses; a.a_dram_accesses;
         a.a_branch_lookups ]);
  Array.iter (fun v -> Buffer.add_string b (" " ^ hex v)) a.a_uops_by_class;
  Array.iter
    (fun (i, v) -> Buffer.add_string b (Printf.sprintf " %d:%h" i v))
    p.pr_time_series;
  Buffer.contents b

let render_eval ((stack, e) : Cpi_stack.t * Sweep.eval) =
  Printf.sprintf "%d %s %s | %s" e.sw_index e.sw_config.Uarch.name
    (hex_list
       [ e.sw_cpi; e.sw_cycles; e.sw_watts; e.sw_seconds; e.sw_energy_j;
         e.sw_ed2p ])
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ hex v) (Cpi_stack.labeled_alist stack)))

let row ~label ?(options = Interval_model.default_options) ?adjust profile u
    ~index =
  let p = Interval_model.predict ~options u profile in
  let ev = Sweep.model_eval ~options ?adjust profile u ~index in
  pf "%s cycles=%h mlp=%h %s\n" label p.pr_cycles p.pr_mlp
    (Digest.to_hex
       (Digest.string (render_prediction p ^ "\n" ^ render_eval ev)))

let space = Config_space.large

(* Indices [k * stride mod size]: checked below to hit every axis value. *)
let sample =
  List.init n_sample (fun k -> k * stride mod Config_space.size space)

let () =
  let axes = Config_space.axes space in
  let seen =
    Array.map (fun (ax : Config_space.axis) -> Array.map (fun _ -> false) ax.ax_values) axes
  in
  List.iter
    (fun i ->
      Array.iteri
        (fun k d -> seen.(k).(d) <- true)
        (Config_space.digits_of_index space i))
    sample;
  Array.iteri
    (fun k hit ->
      if not (Array.for_all Fun.id hit) then
        failwith
          (Printf.sprintf "sample misses a value of axis %s"
             axes.(k).Config_space.ax_name))
    seen

let options_rows =
  let d = Interval_model.default_options in
  [
    ("combined", { d with combine = `Combined });
    ("cold-mlp", { d with mlp_model = `Cold });
    ("no-uops", { d with use_uops = false });
    ("no-cp", { d with use_critical_path = false });
    ("no-ports", { d with use_port_contention = false });
    ("no-mlp", { d with model_mlp = false });
    ("no-mshr", { d with model_mshr = false });
    ("no-bus", { d with model_bus = false });
    ("no-chain", { d with model_llc_chain = false });
    ("no-prefetch", { d with model_prefetch = false });
    ( "overrides",
      {
        d with
        overrides =
          {
            ov_branch_missrate = Some 0.031;
            ov_load_miss_ratios = Some (0.2, 0.08, 0.03);
            ov_store_miss_ratios = Some (0.1, 0.05, 0.01);
            ov_inst_miss_ratios = Some (0.02, 0.004, 0.001);
            ov_mlp = Some 2.5;
          };
      } );
    ( "override-loads",
      {
        d with
        overrides =
          {
            Interval_model.no_overrides with
            ov_load_miss_ratios = Some (0.5, 0.6, 0.1);
          };
      } );
    ( "combined-cold",
      { d with combine = `Combined; mlp_model = `Cold } );
  ]

let adjust =
  ( "golden",
    fun (_ : Profile.t) (_ : Uarch.t) (p : Interval_model.prediction) ->
      (Interval_model.cpi_stack p, (Interval_model.cpi p *. 1.125) +. 0.01) )

let () =
  List.iter
    (fun name ->
      let profile =
        Profiler.profile (Benchmarks.find name) ~seed ~n_instructions
      in
      Profile.prepare profile;
      pf "profile %s seed=%d n=%d microtraces=%d\n" name seed n_instructions
        (Array.length profile.p_microtraces);
      List.iter
        (fun i ->
          row ~label:(Printf.sprintf "%s i=%d" name i) profile
            (Config_space.config_of_index space i) ~index:i)
        sample;
      let with_pf kind u = Uarch.with_prefetcher_kind u kind in
      List.iteri
        (fun k i ->
          let u = Config_space.config_of_index space i in
          if k mod 8 = 0 then begin
            row ~label:(Printf.sprintf "%s i=%d stride-pf" name i) profile
              (with_pf Uarch.Pf_stride u) ~index:i;
            row ~label:(Printf.sprintf "%s i=%d next-line-pf" name i) profile
              (with_pf Uarch.Pf_next_line u) ~index:i;
            List.iter
              (fun (label, options) ->
                row ~label:(Printf.sprintf "%s i=%d %s" name i label) ~options
                  profile u ~index:i)
              options_rows;
            row ~label:(Printf.sprintf "%s i=%d adjusted" name i) ~adjust profile
              u ~index:i
          end)
        sample;
      (* One run of DVFS siblings, then a config of another timing key and
         back: the evaluator reuses predictions across siblings. *)
      let base = 7 * stride * 6 in
      List.iter
        (fun i ->
          row ~label:(Printf.sprintf "%s i=%d dvfs" name i) profile
            (Config_space.config_of_index space i) ~index:i)
        (List.init 6 (fun k -> base + k) @ [ base + 600; base + 3; base + 601 ]);
      let s =
        Fault.or_raise
          (Sweep.model_sweep_stream ~block_size:128 ~offset:(3 * stride)
             ~length:768 ~profile space)
      in
      pf "%s stream ok=%d failed=%d sums=%s best=%s front=%s\n" name s.ss_ok
        s.ss_failed
        (hex_list
           [ s.ss_sum_cpi; s.ss_sum_cycles; s.ss_sum_watts; s.ss_sum_seconds;
             s.ss_sum_energy_j; s.ss_sum_ed2p ])
        (String.concat ","
           (List.map
              (function Some (i, v) -> Printf.sprintf "%d:%h" i v | None -> "-")
              [ s.ss_best_seconds; s.ss_best_energy; s.ss_best_ed2p ]))
        (String.concat ","
           (List.map
              (fun (q : Pareto.point) -> string_of_int q.pt_id)
              s.ss_front)))
    [ "mcf"; "gcc" ]
