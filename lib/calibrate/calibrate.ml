(* The grey-box residual calibrator.  See calibrate.mli for the model;
   the invariants that matter here:

   - Training is a pure function of (matrix, options): the splits hash
     (workload, index) under a fixed seed, the ridge solve and stump
     scans have fixed accumulation order, and serialization prints
     floats as %h hex literals — so train-twice is byte-identical and
     apply is bit-exact everywhere.

   - Applying can never make a prediction invalid: corrections that
     come out non-finite degrade to zero and calibrated components and
     totals clamp at zero, so garbage in a model file degrades
     accuracy, never soundness (and the loader rejects structurally
     corrupt files outright via the model's CRC). *)

type component_model = {
  cm_ridge : float array;
  cm_stumps : Stumps.stump list;
}

type t = {
  c_lambda : float;
  c_shrinkage : float;
  c_rounds : int;
  c_folds : int;
  c_split_seed : int;
  c_holdout : float;
  c_stat_names : string list;
  c_feature_names : string list;
  c_holdout_names : string list;
  c_components : component_model array;
  c_fold_models : component_model array array;
}

type options = {
  opt_lambda : float;
  opt_shrinkage : float;
  opt_rounds : int;
  opt_folds : int;
  opt_split_seed : int;
  opt_holdout : float;
}

let default_options =
  {
    opt_lambda = 1e-4;
    opt_shrinkage = 0.3;
    opt_rounds = 40;
    opt_folds = 4;
    opt_split_seed = 9001;
    opt_holdout = 0.25;
  }

let zero_component = { cm_ridge = Array.make Features.n 0.0; cm_stumps = [] }

let identity =
  {
    c_lambda = default_options.opt_lambda;
    c_shrinkage = default_options.opt_shrinkage;
    c_rounds = 0;
    c_folds = 0;
    c_split_seed = default_options.opt_split_seed;
    c_holdout = 0.0;
    c_stat_names = Validate.stat_names;
    c_feature_names = Features.names;
    c_holdout_names = [];
    c_components = Array.make Cpi_stack.n_components zero_component;
    c_fold_models = [||];
  }

(* ---- Deterministic splits ---- *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  !h

let splitmix64 z =
  let open Int64 in
  let z = add z 0x9e3779b97f4a7c15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let row_hash ~seed ~workload ~index =
  let z =
    splitmix64
      (Int64.logxor
         (Int64.of_int seed)
         (Int64.logxor (fnv1a64 workload)
            (Int64.mul (Int64.of_int index) 0x9e3779b97f4a7c15L)))
  in
  Int64.to_int (Int64.logand z 0x3fff_ffff_ffff_ffffL)

let in_holdout options ~workload ~index =
  let h = row_hash ~seed:options.opt_split_seed ~workload ~index in
  h mod 1_000_000
  < int_of_float ((options.opt_holdout *. 1_000_000.0) +. 0.5)

let fold_of options ~workload ~index =
  if options.opt_folds <= 1 then 0
  else
    row_hash ~seed:options.opt_split_seed ~workload ~index
    / 1_000_000
    mod options.opt_folds

let split_rows options rows =
  List.partition
    (fun (r : Validate.matrix_row) ->
      not
        (in_holdout options ~workload:r.mr_workload
           ~index:r.mr_point.Validate.vp_index))
    rows

(* ---- Fitting ---- *)

let row_features (r : Validate.matrix_row) =
  Features.of_point ~stats:r.mr_stats r.mr_point.Validate.vp_uarch
    ~model_stack:r.mr_point.Validate.vp_model_stack
    ~model_cpi:r.mr_point.Validate.vp_model_cpi

let fit_component ~options xs targets =
  match Ridge.fit ~lambda:options.opt_lambda ~rows:xs ~targets with
  | Error _ as e -> e
  | Ok w ->
    let residual =
      Array.mapi (fun i x -> targets.(i) -. Ridge.predict w x) xs
    in
    let stumps =
      Stumps.fit ~rounds:options.opt_rounds ~shrinkage:options.opt_shrinkage
        ~rows:xs ~targets:residual
    in
    Ok { cm_ridge = w; cm_stumps = stumps }

let fit_components ~options rows =
  let xs = Array.of_list (List.map row_features rows) in
  let rows_a = Array.of_list rows in
  let components = Array.make Cpi_stack.n_components zero_component in
  let rec fit_all = function
    | [] -> Ok components
    | c :: rest -> (
      let targets =
        Array.map
          (fun (r : Validate.matrix_row) ->
            Cpi_stack.get r.mr_point.Validate.vp_sim_stack c
            -. Cpi_stack.get r.mr_point.Validate.vp_model_stack c)
          rows_a
      in
      match fit_component ~options xs targets with
      | Error _ as e -> e
      | Ok cm ->
        components.(Cpi_stack.index c) <- cm;
        fit_all rest)
  in
  fit_all Cpi_stack.all

(* ---- Applying ---- *)

let correction comps x c =
  let cm = comps.(Cpi_stack.index c) in
  let d = Ridge.predict cm.cm_ridge x +. Stumps.predict cm.cm_stumps x in
  if Float.is_finite d then d else 0.0

let apply_components comps x ~model_stack ~model_cpi =
  let corrected c =
    Float.max 0.0 (Cpi_stack.get model_stack c +. correction comps x c)
  in
  let stack = Cpi_stack.make corrected in
  (* The total moves by the corrections actually applied (after the
     per-component clamp), preserving whatever slack the engine keeps
     between its stack total and its CPI — and making the all-zero
     model exactly the identity. *)
  let delta =
    List.fold_left
      (fun acc c ->
        acc +. (Cpi_stack.get stack c -. Cpi_stack.get model_stack c))
      0.0 Cpi_stack.all
  in
  (stack, Float.max 0.0 (model_cpi +. delta))

let apply_stack m ~stats u (model_stack, model_cpi) =
  let x = Features.of_point ~stats u ~model_stack ~model_cpi in
  apply_components m.c_components x ~model_stack ~model_cpi

(* ---- Evaluation ---- *)

type set_error = {
  se_n : int;
  se_uncal_mape : float;
  se_cal_mape : float;
  se_max_abs : float;
}

type evaluation = {
  ev_train : set_error;
  ev_holdout : set_error;
  ev_workloads : (string * set_error) list;
}

let empty_set_error =
  { se_n = 0; se_uncal_mape = 0.0; se_cal_mape = 0.0; se_max_abs = 0.0 }

let set_error m rows =
  match rows with
  | [] -> empty_set_error
  | _ ->
    let errs =
      List.map
        (fun (r : Validate.matrix_row) ->
          let pt = r.mr_point in
          let sim = pt.Validate.vp_sim_cpi in
          let _, cal_cpi =
            apply_stack m ~stats:r.mr_stats pt.Validate.vp_uarch
              (pt.Validate.vp_model_stack, pt.Validate.vp_model_cpi)
          in
          ( Stats.relative_error ~predicted:pt.Validate.vp_model_cpi
              ~reference:sim,
            Stats.relative_error ~predicted:cal_cpi ~reference:sim ))
        rows
    in
    let uncal = List.map fst errs and cal = List.map snd errs in
    {
      se_n = List.length rows;
      se_uncal_mape = Stats.mean_abs uncal;
      se_cal_mape = Stats.mean_abs cal;
      se_max_abs = Stats.max_abs cal;
    }

let workload_order rows =
  List.fold_left
    (fun acc (r : Validate.matrix_row) ->
      if List.mem r.mr_workload acc then acc else acc @ [ r.mr_workload ])
    [] rows

let per_workload m rows =
  List.map
    (fun w ->
      ( w,
        set_error m
          (List.filter
             (fun (r : Validate.matrix_row) -> r.mr_workload = w)
             rows) ))
    (workload_order rows)

let evaluate m rows =
  {
    ev_train = empty_set_error;
    ev_holdout = set_error m rows;
    ev_workloads = per_workload m rows;
  }

let default_gate = 0.0433

let passes_gate ev ~gate =
  ev.ev_holdout.se_n > 0 && ev.ev_holdout.se_cal_mape <= gate

(* ---- Training ---- *)

let train ?(options = default_options) rows =
  if rows = [] then
    Error (Fault.bad_input ~context:"calibrator" "empty training matrix")
  else begin
    let train_rows, holdout_rows = split_rows options rows in
    if train_rows = [] then
      Error
        (Fault.bad_input ~context:"calibrator"
           (Printf.sprintf
              "holdout fraction %g left no training rows (matrix has %d)"
              options.opt_holdout (List.length rows)))
    else begin
      match fit_components ~options train_rows with
      | Error _ as e -> e
      | Ok components ->
        let fold_models =
          if options.opt_folds < 2 then Ok [||]
          else begin
            let subsets =
              List.init options.opt_folds (fun k ->
                  List.filter
                    (fun (r : Validate.matrix_row) ->
                      fold_of options ~workload:r.mr_workload
                        ~index:r.mr_point.Validate.vp_index
                      <> k)
                    train_rows)
            in
            (* A fold whose complement is empty (tiny matrices) leaves
               no ensemble: better no disagreement signal than one from
               degenerate refits. *)
            if List.exists (fun s -> s = []) subsets then Ok [||]
            else
              let rec fit_folds acc = function
                | [] -> Ok (Array.of_list (List.rev acc))
                | s :: rest -> (
                  match fit_components ~options s with
                  | Error _ as e -> e
                  | Ok comps -> fit_folds (comps :: acc) rest)
              in
              fit_folds [] subsets
          end
        in
        (match fold_models with
        | Error _ as e -> e
        | Ok folds ->
          let holdout_names =
            List.sort_uniq compare
              (List.map
                 (fun (r : Validate.matrix_row) ->
                   r.mr_point.Validate.vp_uarch.Uarch.name)
                 holdout_rows)
          in
          let m =
            {
              c_lambda = options.opt_lambda;
              c_shrinkage = options.opt_shrinkage;
              c_rounds = options.opt_rounds;
              c_folds = Array.length folds;
              c_split_seed = options.opt_split_seed;
              c_holdout = options.opt_holdout;
              c_stat_names = Validate.stat_names;
              c_feature_names = Features.names;
              c_holdout_names = holdout_names;
              c_components = components;
              c_fold_models = folds;
            }
          in
          let ev =
            {
              ev_train = set_error m train_rows;
              ev_holdout = set_error m holdout_rows;
              ev_workloads = per_workload m holdout_rows;
            }
          in
          Ok (m, ev))
    end
  end

(* ---- Active-learning sampler ---- *)

let disagreement m ~stats u (model_stack, model_cpi) =
  if Array.length m.c_fold_models < 2 then 0.0
  else begin
    let x = Features.of_point ~stats u ~model_stack ~model_cpi in
    let cpis =
      Array.to_list
        (Array.map
           (fun comps ->
             snd (apply_components comps x ~model_stack ~model_cpi))
           m.c_fold_models)
    in
    Stats.stdev cpis
  end

let suggest ?options m ~profile ~n candidates =
  let stats = Validate.profile_stats profile in
  let excluded = List.sort_uniq compare m.c_holdout_names in
  let scored =
    List.filter_map
      (fun (u : Uarch.t) ->
        if List.mem u.name excluded then None
        else
          match Interval_model.predict ?options u profile with
          | exception _ -> None
          | pred ->
            let stack = Interval_model.cpi_stack pred in
            let cpi = Interval_model.cpi pred in
            let score = disagreement m ~stats u (stack, cpi) in
            if Float.is_finite score then Some (u, score) else None)
      candidates
  in
  let ranked =
    List.sort
      (fun ((a : Uarch.t), sa) ((b : Uarch.t), sb) ->
        let c = Float.compare sb sa in
        if c <> 0 then c else compare a.name b.name)
      scored
  in
  List.filteri (fun i _ -> i < n) ranked

(* ---- Serialization: the mipp-calib-v2 document ---- *)

let context = "calibrator"
let model_schema = "mipp-calib-v2"

let component_json cm =
  let open Minijson in
  Obj
    [
      ("ridge", Arr (Array.to_list (Array.map hex cm.cm_ridge)));
      ( "stumps",
        Arr
          (List.map
             (fun (st : Stumps.stump) ->
               Obj
                 [
                   ("feature", int st.st_feature);
                   ("threshold", hex st.st_threshold);
                   ("left", hex st.st_left);
                   ("right", hex st.st_right);
                 ])
             cm.cm_stumps) );
    ]

let components_json comps =
  Minijson.Obj
    (List.map
       (fun c ->
         (Cpi_stack.to_string c, component_json comps.(Cpi_stack.index c)))
       Cpi_stack.all)

let model_json m =
  let open Minijson in
  let names l = Arr (List.map (fun s -> Str s) l) in
  Obj
    [
      ("lambda", hex m.c_lambda);
      ("shrinkage", hex m.c_shrinkage);
      ("rounds", int m.c_rounds);
      ("folds", int m.c_folds);
      ("split_seed", int m.c_split_seed);
      ("holdout", hex m.c_holdout);
      ("stats", names m.c_stat_names);
      ("features", names m.c_feature_names);
      ("holdout_points", names m.c_holdout_names);
      ("components", components_json m.c_components);
      ( "fold_models",
        Arr (Array.to_list (Array.map components_json m.c_fold_models)) );
    ]

(* The model holds no plain non-integral number, so parsing and
   printing it again gives back its bytes: any corruption that still
   parses changes this checksum. *)
let model_crc model = Crc32.to_hex (Crc32.string (Minijson.print model))

let to_string m =
  let model = model_json m in
  Minijson.(
    print
      (Obj
         [
           ("schema", Str model_schema);
           ("crc32", Str (model_crc model));
           ("model", model);
         ]))

let read_model json =
  let open Minijson in
  let schema = field "schema" to_string json in
  if schema <> model_schema then
    fail (Printf.sprintf "unknown schema %S (expected %S)" schema model_schema);
  let model = field "model" Option.some json in
  let stored = field "crc32" to_string json and computed = model_crc model in
  if stored <> computed then
    fail
      (Printf.sprintf
         "checksum mismatch (stored %s, computed %s): file corrupt"
         stored computed);
  let finite what v =
    let f = need what (to_float v) in
    if Float.is_finite f then f else fail ("non-finite " ^ what)
  in
  let float what json = finite what (field what Option.some json) in
  let count what =
    let n = field what to_int model in
    if n < 0 then fail (Printf.sprintf "negative %s %d" what n) else n
  in
  let names what =
    List.map
      (fun v -> need (what ^ " entry") (to_string v))
      (field what to_list model)
  in
  let stat_names = names "stats" and feature_names = names "features" in
  (* The feature contract is code-defined: a model trained against a
     different feature or statistic set cannot be applied meaningfully,
     so reject it here instead of silently misaligning vectors. *)
  if stat_names <> Validate.stat_names then
    fail "statistic set does not match this build";
  if feature_names <> Features.names then
    fail "feature set does not match this build";
  let n_features = List.length feature_names in
  let component label json =
    let ridge =
      Array.of_list
        (List.map (finite "ridge weight") (field "ridge" to_list json))
    in
    if Array.length ridge <> n_features then
      fail
        (Printf.sprintf "component %s has %d ridge weights, expected %d" label
           (Array.length ridge) n_features);
    let stump json =
      let feature = field "feature" to_int json in
      if feature < 0 || feature >= n_features then
        fail (Printf.sprintf "stump feature %d out of range" feature);
      {
        Stumps.st_feature = feature;
        st_threshold = float "threshold" json;
        st_left = float "left" json;
        st_right = float "right" json;
      }
    in
    {
      cm_ridge = ridge;
      cm_stumps = List.map stump (field "stumps" to_list json);
    }
  in
  let components json =
    Array.of_list
      (List.map
         (fun c ->
           let label = Cpi_stack.to_string c in
           component label (field label Option.some json))
         Cpi_stack.all)
  in
  let folds = count "folds" in
  let fold_models =
    Array.of_list (List.map components (field "fold_models" to_list model))
  in
  if Array.length fold_models <> folds then
    fail
      (Printf.sprintf "folds is %d but the model carries %d fold models" folds
         (Array.length fold_models));
  {
    c_lambda = float "lambda" model;
    c_shrinkage = float "shrinkage" model;
    c_rounds = count "rounds";
    c_folds = folds;
    c_split_seed = field "split_seed" to_int model;
    c_holdout = float "holdout" model;
    c_stat_names = stat_names;
    c_feature_names = feature_names;
    c_holdout_names = names "holdout_points";
    c_components = components (field "components" Option.some model);
    c_fold_models = fold_models;
  }

let of_string text =
  if String.starts_with ~prefix:"mipp-calib 1" text then
    Error
      (Fault.bad_input ~context
         "\"mipp-calib 1\" is the retired line format; retrain the model with \
          `mipp calibrate train`")
  else Minijson.decode ~context text read_model

let save path m =
  Fault.protect ~context:(context ^ " " ^ path) (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (to_string m)))

let load path =
  Result.bind
    (Fault.protect ~context:(context ^ " " ^ path) (fun () ->
         In_channel.with_open_bin path In_channel.input_all))
    of_string

(* ---- The engines' hook, keyed by the model's encoding ---- *)

let adjust m : Sweep.adjust =
  ( Digest.to_hex (Digest.string (to_string m)),
    fun profile ->
      let stats = Validate.profile_stats profile in
      fun u pred ->
        apply_stack m ~stats u
          (Interval_model.cpi_stack pred, Interval_model.cpi pred) )
