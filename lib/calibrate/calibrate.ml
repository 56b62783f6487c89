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
     corrupt files outright via the trailing CRC). *)

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

let calibrated_cycles m ~stats u (pred : Interval_model.prediction) =
  let model_stack = Interval_model.cpi_stack pred in
  let model_cpi = Interval_model.cpi pred in
  let _, cal_cpi = apply_stack m ~stats u (model_stack, model_cpi) in
  cal_cpi *. pred.pr_instructions

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

(* ---- Serialization: the mipp-calib-v1 format ---- *)

let context = "calibrator"

let write_component buf label cm =
  let p fmt = Printf.bprintf buf fmt in
  p "component %s\n" label;
  p "ridge %d" (Array.length cm.cm_ridge);
  Array.iter (fun w -> p " %h" w) cm.cm_ridge;
  p "\n";
  p "stumps %d\n" (List.length cm.cm_stumps);
  List.iter
    (fun (st : Stumps.stump) ->
      p "stump %d %h %h %h\n" st.st_feature st.st_threshold st.st_left
        st.st_right)
    cm.cm_stumps

let write_components buf comps =
  List.iter
    (fun c ->
      write_component buf (Cpi_stack.to_string c) comps.(Cpi_stack.index c))
    Cpi_stack.all

let to_string m =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.bprintf buf fmt in
  p "mipp-calib 1\n";
  p "lambda %h\n" m.c_lambda;
  p "shrinkage %h\n" m.c_shrinkage;
  p "rounds %d\n" m.c_rounds;
  p "folds %d\n" m.c_folds;
  p "split_seed %d\n" m.c_split_seed;
  p "holdout %h\n" m.c_holdout;
  p "stats %d\n" (List.length m.c_stat_names);
  List.iter (fun s -> p "stat %s\n" s) m.c_stat_names;
  p "features %d\n" (List.length m.c_feature_names);
  List.iter (fun s -> p "feature %s\n" s) m.c_feature_names;
  p "holdout_points %d\n" (List.length m.c_holdout_names);
  List.iter (fun s -> p "holdout_point %s\n" s) m.c_holdout_names;
  p "model main\n";
  write_components buf m.c_components;
  p "fold_models %d\n" (Array.length m.c_fold_models);
  Array.iteri
    (fun k comps ->
      p "fold %d\n" k;
      write_components buf comps)
    m.c_fold_models;
  p "end\n";
  let body = Buffer.contents buf in
  body ^ "checksum " ^ Crc32.to_hex (Crc32.string body) ^ "\n"

exception Parse of int * string (* 1-based line, message *)

type reader = { lines : string array; mutable pos : int }

let fail r msg = raise (Parse (r.pos + 1, msg))

let next r =
  if r.pos >= Array.length r.lines then fail r "unexpected end of file"
  else begin
    let l = r.lines.(r.pos) in
    r.pos <- r.pos + 1;
    l
  end

let words r l =
  let ws = String.split_on_char ' ' l in
  if List.exists (fun w -> w = "") ws then fail r "malformed line"
  else ws

let int_field r s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail r (Printf.sprintf "expected integer, found %S" s)

let count_field r s =
  let v = int_field r s in
  if v < 0 then fail r (Printf.sprintf "negative count %d" v) else v

let float_field r s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail r (Printf.sprintf "non-finite value %S" s)
  | None -> fail r (Printf.sprintf "expected float, found %S" s)

let keyed_line r key =
  match words r (next r) with
  | [ k; v ] when k = key -> v
  | _ -> fail r (Printf.sprintf "expected %S line" key)

let name_list r ~count_key ~item_key =
  let n = count_field r (keyed_line r count_key) in
  List.init n (fun _ -> keyed_line r item_key)

let read_component r ~label ~n_features =
  (match words r (next r) with
  | [ "component"; l ] when l = label -> ()
  | _ -> fail r (Printf.sprintf "expected component %s" label));
  let ridge =
    match words r (next r) with
    | "ridge" :: count :: values ->
      let n = count_field r count in
      if List.length values <> n then fail r "ridge weight count mismatch"
      else if n <> n_features then
        fail r
          (Printf.sprintf "component %s has %d ridge weights, expected %d"
             label n n_features)
      else Array.of_list (List.map (float_field r) values)
    | _ -> fail r "expected ridge line"
  in
  let n_stumps = count_field r (keyed_line r "stumps") in
  let stumps =
    List.init n_stumps (fun _ ->
        match words r (next r) with
        | [ "stump"; f; t; l; rt ] ->
          let feature = int_field r f in
          if feature < 0 || feature >= n_features then
            fail r (Printf.sprintf "stump feature %d out of range" feature);
          {
            Stumps.st_feature = feature;
            st_threshold = float_field r t;
            st_left = float_field r l;
            st_right = float_field r rt;
          }
        | _ -> fail r "malformed stump line")
  in
  { cm_ridge = ridge; cm_stumps = stumps }

let read_components r ~n_features =
  let comps = Array.make Cpi_stack.n_components zero_component in
  List.iter
    (fun c ->
      comps.(Cpi_stack.index c) <-
        read_component r ~label:(Cpi_stack.to_string c) ~n_features)
    Cpi_stack.all;
  comps

let verify_checksum lines =
  let n = Array.length lines in
  let malformed line msg = raise (Parse (line, msg)) in
  if n = 0 then malformed 1 "empty file";
  let last = lines.(n - 1) in
  if not (String.length last >= 9 && String.sub last 0 9 = "checksum ") then
    malformed n "missing trailing checksum (file truncated?)";
  let expected =
    match Crc32.of_hex (String.sub last 9 (String.length last - 9)) with
    | Some crc -> crc
    | None -> malformed n "malformed checksum line"
  in
  let body = Array.sub lines 0 (n - 1) in
  let crc =
    Array.fold_left
      (fun crc l ->
        Crc32.update
          (Crc32.update crc l ~pos:0 ~len:(String.length l))
          "\n" ~pos:0 ~len:1)
      0 body
  in
  if crc <> expected then
    malformed n
      (Printf.sprintf
         "checksum mismatch (stored %s, computed %s): file corrupt or \
          truncated"
         (Crc32.to_hex expected) (Crc32.to_hex crc));
  body

let parse r =
  (match words r (next r) with
  | [ "mipp-calib"; "1" ] -> ()
  | [ "mipp-calib"; v ] -> fail r (Printf.sprintf "unsupported version %s" v)
  | _ -> fail r "bad header (expected \"mipp-calib 1\")");
  let lambda = float_field r (keyed_line r "lambda") in
  let shrinkage = float_field r (keyed_line r "shrinkage") in
  let rounds = count_field r (keyed_line r "rounds") in
  let folds = count_field r (keyed_line r "folds") in
  let split_seed = int_field r (keyed_line r "split_seed") in
  let holdout = float_field r (keyed_line r "holdout") in
  let stat_names = name_list r ~count_key:"stats" ~item_key:"stat" in
  let feature_names = name_list r ~count_key:"features" ~item_key:"feature" in
  let holdout_names =
    name_list r ~count_key:"holdout_points" ~item_key:"holdout_point"
  in
  (* The feature contract is code-defined: a model trained against a
     different feature or statistic set cannot be applied meaningfully,
     so reject it here instead of silently misaligning vectors. *)
  if stat_names <> Validate.stat_names then
    fail r "statistic set does not match this build";
  if feature_names <> Features.names then
    fail r "feature set does not match this build";
  let n_features = List.length feature_names in
  (match next r with
  | "model main" -> ()
  | _ -> fail r "expected \"model main\"");
  let components = read_components r ~n_features in
  let n_folds = count_field r (keyed_line r "fold_models") in
  if n_folds <> folds then
    fail r
      (Printf.sprintf "header says %d folds but file carries %d" folds n_folds);
  let fold_models =
    Array.of_list
      (List.init n_folds (fun k ->
           (match words r (next r) with
           | [ "fold"; kk ] when int_field r kk = k -> ()
           | _ -> fail r (Printf.sprintf "expected fold %d" k));
           read_components r ~n_features))
  in
  (match next r with "end" -> () | _ -> fail r "expected \"end\"");
  if r.pos <> Array.length r.lines then fail r "trailing bytes after end";
  {
    c_lambda = lambda;
    c_shrinkage = shrinkage;
    c_rounds = rounds;
    c_folds = n_folds;
    c_split_seed = split_seed;
    c_holdout = holdout;
    c_stat_names = stat_names;
    c_feature_names = feature_names;
    c_holdout_names = holdout_names;
    c_components = components;
    c_fold_models = fold_models;
  }

let of_string text =
  match
    let raw = String.split_on_char '\n' text in
    (* A well-formed file ends with '\n': drop the final empty segment
       only.  Any other empty line is corruption and fails parsing. *)
    let raw =
      match List.rev raw with "" :: rest -> List.rev rest | _ -> raw
    in
    let body = verify_checksum (Array.of_list raw) in
    parse { lines = body; pos = 0 }
  with
  | m -> Ok m
  | exception Parse (line, msg) ->
    Error (Fault.bad_input ~line ~context msg)
  | exception Fault.Error ft -> Error ft
  | exception exn ->
    Error (Fault.bad_input ~context (Printexc.to_string exn))

let save path m =
  Fault.protect ~context:(context ^ " " ^ path) (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_string m)))

let load path =
  match
    Fault.protect ~context:(context ^ " " ^ path) (fun () ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  with
  | Error _ as e -> e
  | Ok text -> of_string text

(* ---- Engine hooks, keyed by the model's encoding ---- *)

let key m = Digest.to_hex (Digest.string (to_string m))

let calibrator m : Validate.calibrator =
  (key m, fun ~stats u model -> apply_stack m ~stats u model)

let sweep_adjust m ~profile : Sweep.adjust =
  let stats = Validate.profile_stats profile in
  (key m, fun u pred -> calibrated_cycles m ~stats u pred)
