(* Model-vs-simulator differential validation.

   One workload is profiled once and its micro-op stream recorded once;
   then every micro-architecture in the matrix is evaluated by both
   engines — the interval model on the profile, the cycle simulator
   replaying the stream — and the two keyed CPI stacks are diffed per
   Cpi_stack.component.  The matrix evaluation is an instance of
   Sweep.run_points, so it inherits the sweep engine's parallel fan-out,
   per-point fault isolation and bit-identical checkpoint/resume.

   Error conventions: CPI errors are (model - sim) / sim, signed, so a
   positive error is model over-prediction.  Component errors are
   normalized by the *total* simulated CPI, not the component's own
   share — a 0.01-CPI discrepancy in a 0.02-CPI component is a small
   model error, not a 50% one — and therefore sum (over components, up
   to the simulator's stack-vs-cycles accounting slack) to the total
   signed CPI error, which makes "worst component" attribution mean
   something.  Power errors are (model - sim) / sim watts, each engine's
   watts being Power.estimate of its own activity at the point's
   config. *)

type point = {
  vp_index : int;
  vp_uarch : Uarch.t;
  vp_model_stack : Cpi_stack.t;
  vp_model_cpi : float;
  vp_sim_stack : Cpi_stack.t;
  vp_sim_cpi : float;
  vp_model_watts : float;
  vp_sim_watts : float;
}

let point ~index u (pred : Interval_model.prediction) (sim : Sim_result.t) =
  let watts activity = (Power.estimate u activity).Power.total_watts in
  {
    vp_index = index;
    vp_uarch = u;
    vp_model_stack = Interval_model.cpi_stack pred;
    vp_model_cpi = Interval_model.cpi pred;
    vp_sim_stack = Sim_result.cpi_stack sim;
    vp_sim_cpi = Sim_result.cpi sim;
    vp_model_watts = watts pred.Interval_model.pr_activity;
    vp_sim_watts = watts sim.Sim_result.r_activity;
  }

let signed_error p =
  Stats.relative_error ~predicted:p.vp_model_cpi ~reference:p.vp_sim_cpi

let abs_error p = Float.abs (signed_error p)

let power_signed_error p =
  Stats.relative_error ~predicted:p.vp_model_watts ~reference:p.vp_sim_watts

let component_signed_error p c =
  if p.vp_sim_cpi = 0.0 then 0.0
  else
    (Cpi_stack.get p.vp_model_stack c -. Cpi_stack.get p.vp_sim_stack c)
    /. p.vp_sim_cpi

(* ---- Checkpoint payload ---- *)

(* Both stacks, both totals and both watts; the totals are stored
   rather than recomputed so a resumed run is bit-identical to an
   uninterrupted one (the simulator's stack total and its cycle count
   differ by accounting slack). *)
let payload_width = (2 * Cpi_stack.n_components) + 4

let encode p =
  Array.of_list
    (List.map snd (Cpi_stack.to_alist p.vp_model_stack)
    @ (p.vp_model_cpi :: List.map snd (Cpi_stack.to_alist p.vp_sim_stack))
    @ [ p.vp_sim_cpi; p.vp_model_watts; p.vp_sim_watts ])

let decode configs ~index v =
  let n = Cpi_stack.n_components in
  let stack off = Cpi_stack.make (fun c -> v.(off + Cpi_stack.index c)) in
  {
    vp_index = index;
    vp_uarch = configs.(index);
    vp_model_stack = stack 0;
    vp_model_cpi = v.(n);
    vp_sim_stack = stack (n + 1);
    vp_sim_cpi = v.((2 * n) + 1);
    vp_model_watts = v.((2 * n) + 2);
    vp_sim_watts = v.((2 * n) + 3);
  }

let check p =
  let values = Array.to_list (encode p) in
  if not (List.for_all Float.is_finite values) then
    Error
      (Fault.numeric
         (Printf.sprintf "validation point %d: non-finite CPI or watts"
            p.vp_index))
  else if p.vp_sim_cpi <= 0.0 then
    Error
      (Fault.numeric
         (Printf.sprintf "validation point %d: simulated CPI %h is not positive"
            p.vp_index p.vp_sim_cpi))
  else Ok p

(* ---- Workload statistics ---- *)

(* The micro-architecture independent summary of a profile that the
   grey-box calibrator uses as features, in a fixed named order so a
   serialized model stays aligned with freshly computed statistics. *)
let stat_names =
  [
    "uops_per_instruction";
    "branch_entropy";
    "branch_fraction";
    "cold_miss_rate";
    "inst_cold_fraction";
    "ap_rob128";
    "abp_rob128";
    "cp_rob128";
    "data_accesses_per_instruction";
  ]

let profile_stats (p : Profile.t) =
  let total = float_of_int p.Profile.p_total_instructions in
  [
    ("uops_per_instruction", p.Profile.p_uops_per_instruction);
    ("branch_entropy", p.Profile.p_entropy);
    ("branch_fraction", p.Profile.p_branch_fraction);
    ("cold_miss_rate", Profile.cold_miss_rate p);
    ("inst_cold_fraction", p.Profile.p_inst_cold_fraction);
    ("ap_rob128", Profile.mean_chain p ~which:`Ap ~rob:128);
    ("abp_rob128", Profile.mean_chain p ~which:`Abp ~rob:128);
    ("cp_rob128", Profile.mean_chain p ~which:`Cp ~rob:128);
    ( "data_accesses_per_instruction",
      if total = 0.0 then 0.0
      else float_of_int p.Profile.p_data_accesses /. total );
  ]

(* ---- Reports ---- *)

type component_error = {
  ce_component : Cpi_stack.component;
  ce_model_cpi : float;
  ce_sim_cpi : float;
  ce_signed : float;
  ce_abs : float;
}

type workload_report = {
  wr_workload : string;
  wr_stats : (string * float) list;
  wr_n_points : int;
  wr_points : point list;
  wr_faults : (int * Fault.t) list;
  wr_resumed : int;
  wr_mean_signed : float;
  wr_mape : float;
  wr_max_abs : float;
  wr_power_mean_signed : float;
  wr_power_mape : float;
  wr_power_max_abs : float;
  wr_components : component_error list;
  wr_worst : component_error option;
  wr_rob_trend : (int * float) list;
  wr_l3_trend : (int * float) list;
}

type report = {
  rp_workloads : workload_report list;
  rp_total_points : int;
  rp_total_ok : int;
  rp_mean_signed : float;
  rp_mape : float;
  rp_power_mean_signed : float;
  rp_power_mape : float;
  rp_power_max_abs : float;
}

(* Mean signed CPI error per distinct value of an integer design axis,
   in ascending axis order — the error-vs-ROB / error-vs-cache-size
   trend rows of the report. *)
let trend axis points =
  let keys = List.sort_uniq compare (List.map axis points) in
  List.map
    (fun k ->
      let errs =
        List.filter_map
          (fun p -> if axis p = k then Some (signed_error p) else None)
          points
      in
      (k, Stats.mean errs))
    keys

let component_errors points =
  List.map
    (fun c ->
      let per_point f = List.map f points in
      {
        ce_component = c;
        ce_model_cpi =
          Stats.mean (per_point (fun p -> Cpi_stack.get p.vp_model_stack c));
        ce_sim_cpi =
          Stats.mean (per_point (fun p -> Cpi_stack.get p.vp_sim_stack c));
        ce_signed =
          Stats.mean (per_point (fun p -> component_signed_error p c));
        ce_abs =
          Stats.mean_abs (per_point (fun p -> component_signed_error p c));
      })
    Cpi_stack.all

let max_abs errors = if errors = [] then 0.0 else Stats.max_abs errors

let workload_report ?(stats = []) ~workload (r : point Sweep.run) =
  let points = List.filter_map Result.to_option r.run_results in
  let faults =
    List.filter_map
      (fun (i, res) ->
        match res with Error ft -> Some (i, ft) | Ok _ -> None)
      (List.mapi (fun i res -> (i, res)) r.run_results)
  in
  let errors = List.map signed_error points in
  let power_errors = List.map power_signed_error points in
  let components = component_errors points in
  let worst =
    List.fold_left
      (fun acc ce ->
        match acc with
        | Some best when best.ce_abs >= ce.ce_abs -> acc
        | _ -> Some ce)
      None
      (if points = [] then [] else components)
  in
  {
    wr_workload = workload;
    wr_stats = stats;
    wr_n_points = List.length r.run_results;
    wr_points = points;
    wr_faults = faults;
    wr_resumed = r.run_resumed;
    wr_mean_signed = Stats.mean errors;
    wr_mape = Stats.mean_abs errors;
    wr_max_abs = max_abs errors;
    wr_power_mean_signed = Stats.mean power_errors;
    wr_power_mape = Stats.mean_abs power_errors;
    wr_power_max_abs = max_abs power_errors;
    wr_components = components;
    wr_worst = worst;
    wr_rob_trend = trend (fun p -> p.vp_uarch.Uarch.core.rob_size) points;
    wr_l3_trend =
      trend (fun p -> p.vp_uarch.Uarch.caches.l3.size_bytes) points;
  }

let summarize workloads =
  let all f = List.concat_map (fun wr -> List.map f wr.wr_points) workloads in
  let all_errors = all signed_error in
  let power_errors = all power_signed_error in
  {
    rp_workloads = workloads;
    rp_total_points =
      List.fold_left (fun a wr -> a + wr.wr_n_points) 0 workloads;
    rp_total_ok =
      List.fold_left (fun a wr -> a + List.length wr.wr_points) 0 workloads;
    rp_mean_signed = Stats.mean all_errors;
    rp_mape = Stats.mean_abs all_errors;
    rp_power_mean_signed = Stats.mean power_errors;
    rp_power_mape = Stats.mean_abs power_errors;
    rp_power_max_abs = max_abs power_errors;
  }

(* ---- Evaluation matrices ---- *)

type matrix = [ `Quick | `Sim | `Full ]

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* All matrices are slices of Uarch.design_space, so point names and
   parameters stay consistent with the sweep experiments.  Every point
   of a validation matrix is *simulated*, which is what makes size
   matter: `Sim mirrors the bench harness's simulation subspace. *)
let matrix_configs = function
  | `Quick ->
    List.filter
      (fun (u : Uarch.t) ->
        u.caches.l1d.size_bytes = kb 32
        && u.caches.l2.size_bytes = kb 256
        && u.caches.l3.size_bytes = mb 8)
      Uarch.design_space
  | `Sim ->
    List.filter
      (fun (u : Uarch.t) ->
        u.caches.l1d.size_bytes = kb 32 && u.caches.l2.size_bytes = kb 256)
      Uarch.design_space
  | `Full -> Uarch.design_space

let matrix_to_string = function
  | `Quick -> "quick"
  | `Sim -> "sim"
  | `Full -> "full"

let matrix_of_string = function
  | "quick" -> Ok `Quick
  | "sim" -> Ok `Sim
  | "full" -> Ok `Full
  | s ->
    Error
      (Fault.bad_input ~context:"validate"
         (Printf.sprintf
            "unknown matrix %S (expected \"quick\", \"sim\" or \"full\")" s))

(* ---- Running ---- *)

let default_n_instructions = 60_000

(* The paper's headline claim is ~10% mean CPI error; the gate adds two
   points of headroom so ordinary drift (seeds, instruction budgets)
   does not flap CI, while a real model regression still trips it.
   Measured at introduction: 8.65% aggregate MAPE over the three
   checked-in workloads on the `Sim matrix. *)
let default_gate = 0.12

let run_workload ?(options = Interval_model.default_options) ?jobs ?checkpoint
    ?keep_going ?(seed = 1)
    ?(n_instructions = default_n_instructions) ?adjust ~spec configs =
  let configs_a = Array.of_list configs in
  (* A spec the generator refuses is bad input, not a crash. *)
  let ( let* ) = Result.bind in
  let* stream =
    Fault.protect ~context:"workload" (fun () ->
        Uop_stream.record spec ~seed ~n_instructions)
  in
  (* Profile the recorded stream the simulator replays, so the stream is
     generated once. *)
  let profile = Profiler.profile_stream stream in
  let stats = profile_stats profile in
  (* Build the config-independent structures before the fan-out, as the
     model sweep does: workers then only read them. *)
  Profile.prepare profile;
  let correct = Option.map (fun (_, f) -> f profile) adjust in
  let simulate = Simulator.replay stream configs_a in
  Result.map
    (workload_report ~stats ~workload:spec.Workload_spec.wname)
    (Sweep.run_points ?jobs ?checkpoint ?keep_going
       ~workload:
         (Checkpoint.run_id ~workload:spec.Workload_spec.wname
            [
              "validate";
              Marshal.to_string (spec, configs) [ Marshal.No_sharing ];
              string_of_int seed;
              string_of_int n_instructions;
              Interval_model.options_key options profile;
              (match adjust with
              | None -> "uncalibrated"
              | Some (key, _) -> "calibrated " ^ key);
            ])
       ~n_points:(Array.length configs_a) ~width:payload_width ~encode
       ~decode:(fun ~index v -> decode configs_a ~index v)
       ~check
       ~eval_point:(fun i ->
         let u = configs_a.(i) in
         let pred = Interval_model.predict ~options u profile in
         let sim = simulate i in
         let p = point ~index:i u pred sim in
         match correct with
         | None -> p
         | Some f ->
           (* The calibrated stack replaces the raw model stack, so every
              downstream error table, trend and gate measures the
              corrected prediction.  The checkpoint payload stores the
              calibrated values too; the header's calibrator key keeps a
              log from being resumed under another calibrator. *)
           let stack, cpi = f u pred in
           { p with vp_model_stack = stack; vp_model_cpi = cpi })
       ())

(* ---- Reporting ---- *)

let passes_gate rp ~gate = rp.rp_total_ok > 0 && rp.rp_mape <= gate

let report_json ~gate rp =
  let open Minijson in
  let trend rows = Arr (List.map (fun (k, e) -> Arr [ int k; Num e ]) rows) in
  let errors ?max_abs mean_signed mape =
    Obj
      (("mean_signed", Num mean_signed) :: ("mape", Num mape)
      :: (match max_abs with None -> [] | Some m -> [ ("max_abs", Num m) ]))
  in
  let workload wr =
    Obj
      [
        ("workload", Str wr.wr_workload);
        ("points_total", int wr.wr_n_points);
        ("points_ok", int (List.length wr.wr_points));
        ("points_resumed", int wr.wr_resumed);
        ("cpi_error", errors ~max_abs:wr.wr_max_abs wr.wr_mean_signed wr.wr_mape);
        ( "power_error",
          errors ~max_abs:wr.wr_power_max_abs wr.wr_power_mean_signed
            wr.wr_power_mape );
        ( "worst_component",
          match wr.wr_worst with
          | None -> Null
          | Some ce -> Str (Cpi_stack.to_string ce.ce_component) );
        ( "components",
          Arr
            (List.map
               (fun ce ->
                 Obj
                   [
                     ("component", Str (Cpi_stack.to_string ce.ce_component));
                     ("model_cpi", Num ce.ce_model_cpi);
                     ("sim_cpi", Num ce.ce_sim_cpi);
                     ("signed", Num ce.ce_signed);
                     ("abs", Num ce.ce_abs);
                   ])
               wr.wr_components) );
        ("rob_trend", trend wr.wr_rob_trend);
        ("l3_trend", trend wr.wr_l3_trend);
        ( "faults",
          Arr
            (List.map
               (fun (idx, ft) ->
                 Obj [ ("index", int idx); ("fault", Str (Fault.to_line ft)) ])
               wr.wr_faults) );
        ( "points",
          Arr
            (List.map
               (fun pt ->
                 Obj
                   [
                     ("index", int pt.vp_index);
                     ("uarch", Str pt.vp_uarch.Uarch.name);
                     ("model_cpi", Num pt.vp_model_cpi);
                     ("sim_cpi", Num pt.vp_sim_cpi);
                     ("signed_error", Num (signed_error pt));
                     ("model_watts", Num pt.vp_model_watts);
                     ("sim_watts", Num pt.vp_sim_watts);
                   ])
               wr.wr_points) );
      ]
  in
  Obj
    [
      ("schema", Str "mipp-accuracy-v1");
      ("gate_mape", Num gate);
      ("pass", Bool (passes_gate rp ~gate));
      ("points_total", int rp.rp_total_points);
      ("points_ok", int rp.rp_total_ok);
      ("cpi_error", errors rp.rp_mean_signed rp.rp_mape);
      ( "power_error",
        errors ~max_abs:rp.rp_power_max_abs rp.rp_power_mean_signed
          rp.rp_power_mape );
      ("workloads", Arr (List.map workload rp.rp_workloads));
    ]

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let save_json ?(gate = default_gate) path rp =
  Fault.protect ~context:("accuracy report " ^ path) (fun () ->
      write_file path (Minijson.print (report_json ~gate rp)))

let print_workload_report oc wr =
  let p fmt = Printf.fprintf oc fmt in
  p "%s: %d/%d points ok" wr.wr_workload
    (List.length wr.wr_points)
    wr.wr_n_points;
  if wr.wr_resumed > 0 then p " (%d resumed)" wr.wr_resumed;
  p "\n";
  p "  CPI error: mean %+.2f%%  |mean| %.2f%%  max %.2f%%\n"
    (100.0 *. wr.wr_mean_signed)
    (100.0 *. wr.wr_mape) (100.0 *. wr.wr_max_abs);
  p "  power error: mean %+.2f%%  |mean| %.2f%%  max %.2f%%\n"
    (100.0 *. wr.wr_power_mean_signed)
    (100.0 *. wr.wr_power_mape)
    (100.0 *. wr.wr_power_max_abs);
  p "  %-10s %12s %12s %10s %10s\n" "component" "model CPI" "sim CPI" "signed"
    "|err|";
  List.iter
    (fun ce ->
      p "  %-10s %12.4f %12.4f %+9.2f%% %9.2f%%\n"
        (Cpi_stack.to_string ce.ce_component)
        ce.ce_model_cpi ce.ce_sim_cpi
        (100.0 *. ce.ce_signed)
        (100.0 *. ce.ce_abs))
    wr.wr_components;
  (match wr.wr_worst with
  | Some ce ->
    p "  worst component: %s (mean |error| %.2f%% of CPI)\n"
      (Cpi_stack.to_string ce.ce_component)
      (100.0 *. ce.ce_abs)
  | None -> ());
  let print_trend name rows fmt_key =
    if List.length rows > 1 then begin
      p "  %s trend:" name;
      List.iter (fun (k, e) -> p "  %s %+.2f%%" (fmt_key k) (100.0 *. e)) rows;
      p "\n"
    end
  in
  print_trend "ROB" wr.wr_rob_trend (Printf.sprintf "%d:");
  print_trend "L3" wr.wr_l3_trend (fun b ->
      Printf.sprintf "%dMB:" (b / 1024 / 1024));
  List.iter
    (fun (idx, ft) -> p "  fault at point %d: %s\n" idx (Fault.to_string ft))
    wr.wr_faults

(* ---- Training matrix ---- *)

(* The typed export the calibrator trains on: one row per successfully
   validated point, carrying the workload statistics, the design point
   and both engines' CPI stacks and watts.  The JSON form keeps every
   float as a ["%h"] hex string — valid JSON, but bit-exact on the way
   back in, which is what makes retraining from a saved matrix
   byte-identical to training in-process. *)

type matrix_row = {
  mr_workload : string;
  mr_stats : (string * float) list;
  mr_point : point;
}

let matrix_of_report rp =
  List.concat_map
    (fun wr ->
      List.map
        (fun p ->
          { mr_workload = wr.wr_workload; mr_stats = wr.wr_stats; mr_point = p })
        wr.wr_points)
    rp.rp_workloads

let matrix_schema = "mipp-matrix-v2"

let matrix_to_json rows =
  let open Minijson in
  let row { mr_workload; mr_stats; mr_point = pt } =
    let stack s = Arr (List.map (fun (_, v) -> hex v) (Cpi_stack.to_alist s)) in
    Obj
      [
        ("workload", Str mr_workload);
        ("index", int pt.vp_index);
        ("uarch", Str pt.vp_uarch.Uarch.name);
        ("stats", Obj (List.map (fun (name, v) -> (name, hex v)) mr_stats));
        ("model_stack", stack pt.vp_model_stack);
        ("model_cpi", hex pt.vp_model_cpi);
        ("sim_stack", stack pt.vp_sim_stack);
        ("sim_cpi", hex pt.vp_sim_cpi);
        ("model_watts", hex pt.vp_model_watts);
        ("sim_watts", hex pt.vp_sim_watts);
      ]
  in
  print
    (Obj [ ("schema", Str matrix_schema); ("rows", Arr (List.map row rows)) ])

let matrix_context = "training matrix"

let matrix_of_json text =
  let open Minijson in
  decode ~context:matrix_context text (fun json ->
      let schema = field "schema" to_string json in
      if schema = "mipp-matrix-v1" then
        fail
          "schema \"mipp-matrix-v1\" carries no watts; regenerate the matrix \
           with `mipp validate --matrix-out`";
      if schema <> matrix_schema then
        fail (Printf.sprintf "unknown schema %S" schema);
      let row_of json_row =
        let field what conv = field what conv json_row in
        let stack what =
          let values =
            List.map
              (fun v -> need (what ^ " entry") (to_float v))
              (field what to_list)
          in
          if List.length values <> Cpi_stack.n_components then
            fail
              (Printf.sprintf "%s has %d entries, expected %d" what
                 (List.length values) Cpi_stack.n_components);
          let arr = Array.of_list values in
          Cpi_stack.make (fun c -> arr.(Cpi_stack.index c))
        in
        let workload = field "workload" to_string in
        let index = field "index" to_int in
        let uarch = Fault.or_raise (Uarch.of_name (field "uarch" to_string)) in
        let stats =
          List.map
            (fun (name, v) -> (name, need ("stat " ^ name) (to_float v)))
            (field "stats" (function Obj members -> Some members | _ -> None))
        in
        let model_stack = stack "model_stack" in
        let model_cpi = field "model_cpi" to_float in
        let sim_stack = stack "sim_stack" in
        let sim_cpi = field "sim_cpi" to_float in
        let model_watts = field "model_watts" to_float in
        let sim_watts = field "sim_watts" to_float in
        {
          mr_workload = workload;
          mr_stats = stats;
          mr_point =
            {
              vp_index = index;
              vp_uarch = uarch;
              vp_model_stack = model_stack;
              vp_model_cpi = model_cpi;
              vp_sim_stack = sim_stack;
              vp_sim_cpi = sim_cpi;
              vp_model_watts = model_watts;
              vp_sim_watts = sim_watts;
            };
        }
      in
      List.map row_of (field "rows" to_list json))

let save_matrix path rows =
  Fault.protect ~context:(matrix_context ^ " " ^ path) (fun () ->
      write_file path (matrix_to_json rows))

let load_matrix path =
  match
    Fault.protect ~context:(matrix_context ^ " " ^ path) (fun () ->
        In_channel.with_open_bin path In_channel.input_all)
  with
  | Error _ as e -> e
  | Ok text -> matrix_of_json text
