(* Shared state for the experiment harness: per-benchmark profiles and
   reference simulations are computed once and reused by every experiment
   that needs them, mirroring the paper's "profile once" workflow. *)

let seed = 1
let n_ref = 200_000
(* Design-space experiments simulate every (config, benchmark) pair, so
   they use shorter runs. *)
let n_space = 60_000

let benchmarks = Benchmarks.names

(* Worker domains for the design-space sweeps below. *)
let jobs = Parallel.default_jobs ()

(* Clamp a requested parallelism to what the machine can actually run:
   asking for more domains than cores only adds spawn/sync overhead and
   makes "parallel speedup" numbers report scheduling noise. *)
let effective_jobs requested = max 1 (min requested (Parallel.default_jobs ()))

(* ---- Trained entropy model (Fig 3.8 workflow) ---- *)

let entropy_model_for =
  let cache : (Uarch.predictor_kind, Entropy_model.t) Hashtbl.t = Hashtbl.create 5 in
  fun kind ->
    match Hashtbl.find_opt cache kind with
    | Some m -> m
    | None ->
      let cfg = { Uarch.reference.predictor with kind } in
      let m =
        Entropy_model.train cfg ~workloads:Benchmarks.all ~samples_per_workload:4
          ~instructions_per_sample:50_000 ~seed:1234 ()
      in
      Hashtbl.replace cache kind m;
      m

let model_options () =
  let em = entropy_model_for Uarch.reference.predictor.kind in
  {
    Interval_model.default_options with
    branch_missrate = (fun ~entropy -> Entropy_model.miss_rate em ~entropy);
  }

(* ---- Per-benchmark cached artifacts (reference runs) ---- *)

type cached = {
  spec : Workload_spec.t;
  profile : Profile.t Lazy.t;
  sim : Sim_result.t Lazy.t;
  prediction : Interval_model.prediction Lazy.t;
}

let cache : (string, cached) Hashtbl.t = Hashtbl.create 32

let get name =
  match Hashtbl.find_opt cache name with
  | Some c -> c
  | None ->
    let spec = Benchmarks.find name in
    let profile = lazy (Profiler.profile spec ~seed ~n_instructions:n_ref) in
    let c =
      {
        spec;
        profile;
        sim = lazy (Simulator.run Uarch.reference spec ~seed ~n_instructions:n_ref);
        prediction =
          lazy
            (Interval_model.predict ~options:(model_options ()) Uarch.reference
               (Lazy.force profile));
      }
    in
    Hashtbl.replace cache name c;
    c

let profile name = Lazy.force (get name).profile
let sim name = Lazy.force (get name).sim
let prediction name = Lazy.force (get name).prediction

(* ---- Design-space results (model + sim), shared by the Ch. 6/7
   experiments ---- *)

(* The 27-point sub-space used for simulation-backed comparisons: the
   width / ROB / L3 axes of Table 6.3 at the reference L1/L2 sizes, the
   same matrix `mipp validate` simulates by default.  The full 243-point
   space would need 243 x 29 detailed simulations — exactly the cost the
   paper's model exists to avoid. *)
let sim_subspace = Validate.matrix_configs `Sim

let space_cache : (string, Validate.point list) Hashtbl.t = Hashtbl.create 32

(* Both engines at every point of [sim_subspace], in config order: one
   validation run of the benchmark, which records its stream once.  A
   faulted point fails the experiment. *)
let space_result name =
  match Hashtbl.find_opt space_cache name with
  | Some r -> r
  | None ->
    let wr =
      Fault.or_raise
        (Validate.run_workload ~options:(model_options ()) ~jobs ~seed
           ~n_instructions:n_space ~spec:(Benchmarks.find name) sim_subspace)
    in
    List.iter (fun (_, ft) -> Fault.raise_error ft) wr.wr_faults;
    Hashtbl.replace space_cache name wr.wr_points;
    wr.wr_points

(* Pareto coordinates of a design point from one engine's CPI and watts:
   the delay is that CPI over the run's [n_space] instructions at the
   point's clock. *)
let space_pareto_point (u : Uarch.t) ~index ~cpi ~watts =
  let freq = u.operating_point.freq_ghz *. 1e9 in
  {
    Pareto.pt_id = index;
    pt_delay = cpi *. float_of_int n_space /. freq;
    pt_power = watts;
  }

let model_pareto_points =
  List.map (fun (p : Validate.point) ->
      space_pareto_point p.vp_uarch ~index:p.vp_index ~cpi:p.vp_model_cpi
        ~watts:p.vp_model_watts)

let sim_pareto_points =
  List.map (fun (p : Validate.point) ->
      space_pareto_point p.vp_uarch ~index:p.vp_index ~cpi:p.vp_sim_cpi
        ~watts:p.vp_sim_watts)

(* ---- Small helpers ---- *)

let row_of_floats name values = name :: List.map Table.fmt_f values

(* The reference-config CPI error against the reference simulation, of
   the cached prediction or of one made with [options]. *)
let cpi_error ?options name =
  let pred =
    match options with
    | None -> prediction name
    | Some options -> Interval_model.predict ~options Uarch.reference (profile name)
  in
  Stats.relative_error ~predicted:(Interval_model.cpi pred)
    ~reference:(Sim_result.cpi (sim name))

let fmt_err e = Printf.sprintf "%+.1f%%" (100.0 *. e)

(* Mean of a model CPI time series over the micro-traces starting in
   [lo, hi): lines the model's per-window series up with one simulator
   interval. *)
let mean_cpi_between series lo hi =
  Array.to_list series
  |> List.filter_map (fun (i, c) -> if i >= lo && i < hi then Some c else None)
  |> Stats.mean

let print_box label (values : float list) =
  let b = Stats.box_summary values in
  Printf.printf "%s: q1 %s | median %s | mean %s | q3 %s | whiskers [%s, %s]%s\n"
    label (Table.fmt_pct b.q1) (Table.fmt_pct b.median) (Table.fmt_pct b.mean)
    (Table.fmt_pct b.q3) (Table.fmt_pct b.whisker_lo) (Table.fmt_pct b.whisker_hi)
    (if b.outliers = [] then ""
     else Printf.sprintf " | %d outliers" (List.length b.outliers))

let pearson xs ys =
  let n = float_of_int (List.length xs) in
  let mx = Stats.mean xs and my = Stats.mean ys in
  let cov =
    List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 xs ys /. n
  in
  let sx = Stats.stdev xs and sy = Stats.stdev ys in
  if sx = 0.0 || sy = 0.0 then 1.0 else cov /. (sx *. sy)

(* ---- Timing and machine-readable reports ---- *)

(* Timed on the monotonic clock, so an interval cannot come out negative
   or absorb an NTP jump. *)
let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* The process's peak resident set in MB (Linux VmHWM).  Elsewhere, or
   unreadable, the peak is unmeasured: None, reported as null. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
          | None -> None
        in
        scan ())
  with _ -> None

(* A number that may not exist on this run (e.g. a parallel timing with one
   core): [null] rather than a stand-in value. *)
let num_opt = function Some v -> Minijson.Num v | None -> Minijson.Null

(* Write one BENCH_*.json report to the current directory, led by the
   machine it was measured on. *)
let write_report path members =
  let machine =
    ("cores_available", Minijson.int (Domain.recommended_domain_count ()))
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Minijson.print (Minijson.Obj (machine :: members))));
  print_endline ("wrote " ^ path)
