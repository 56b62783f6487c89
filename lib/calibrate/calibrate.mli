(** The grey-box calibration layer.

    The analytical interval model is micro-architecture independent by
    design, and pays for it with a structured residual against the
    cycle simulator (~8.65% aggregate MAPE on the validation matrix).
    This module learns that residual: per CPI-stack component, a ridge
    term plus gradient-boosted stumps over {!Features} predict the
    correction [sim_c - model_c], and applying the model adds the
    predicted corrections back onto the analytical stack (clamped at
    zero per component).  The analytical model stays the backbone — its
    own prediction is a feature and the learner only moves it — so an
    all-zero model is exactly the identity.

    Everything is deterministic: the train/holdout and k-fold splits
    hash (workload, point index) under a fixed seed, ridge solves in
    closed form, stump fitting breaks ties by feature index — training
    twice from the same matrix produces byte-identical serialized
    models, and applying a model is bit-exact across job counts and
    process boundaries.

    Leakage rule: the holdout rows never influence training, and the
    design points they cover are remembered in the model
    ([c_holdout_names]) so the active-learning sampler ({!suggest})
    never proposes them either. *)

type component_model = {
  cm_ridge : float array;  (** one weight per {!Features.names} entry *)
  cm_stumps : Stumps.stump list;
}

type t = {
  c_lambda : float;
  c_shrinkage : float;
  c_rounds : int;
  c_folds : int;
  c_split_seed : int;
  c_holdout : float;  (** holdout fraction used at training time *)
  c_stat_names : string list;  (** {!Validate.stat_names} at train time *)
  c_feature_names : string list;  (** {!Features.names} at train time *)
  c_holdout_names : string list;
      (** design-point names covered by the holdout split — off-limits
          to the sampler *)
  c_components : component_model array;  (** per {!Cpi_stack.all}, main model *)
  c_fold_models : component_model array array;
      (** [c_folds] re-trainings, each on all-but-one fold — the
          ensemble behind {!disagreement}; empty when folds < 2 *)
}

type options = {
  opt_lambda : float;
  opt_shrinkage : float;
  opt_rounds : int;
  opt_folds : int;
  opt_split_seed : int;
  opt_holdout : float;
}

val default_options : options
(** lambda 1e-4, shrinkage 0.3, 40 rounds, 4 folds, split seed 9001,
    holdout 0.25. *)

val identity : t
(** Zero ridge weights, no stumps: {!apply_stack} returns its input
    unchanged — the "zero training rounds" baseline. *)

(** {1 Splitting} *)

val split_rows :
  options -> Validate.matrix_row list -> Validate.matrix_row list * Validate.matrix_row list
(** (train, holdout), preserving row order.  A row's side is a pure
    function of (split seed, workload name, point index) — independent
    of row order, matrix size, and everything else. *)

(** {1 Training and evaluation} *)

(** Aggregate CPI error of the raw and calibrated model over one row set. *)
type set_error = {
  se_n : int;
  se_uncal_mape : float;
  se_cal_mape : float;
  se_max_abs : float;  (** max absolute calibrated error *)
}

type evaluation = {
  ev_train : set_error;
  ev_holdout : set_error;
  ev_workloads : (string * set_error) list;
      (** per-workload errors on the holdout rows *)
}

val train :
  ?options:options ->
  Validate.matrix_row list ->
  (t * evaluation, Fault.t) result
(** Split the matrix, fit the main model on the training rows and one
    fold model per fold (each on all-but-that-fold), and report errors
    on both splits.  [Error] on an empty matrix, an empty training
    split, or a ridge solve failure. *)

val set_error : t -> Validate.matrix_row list -> set_error
val evaluate : t -> Validate.matrix_row list -> evaluation
(** Errors of an existing model over an externally supplied matrix: the
    whole list is treated as holdout ([ev_train] is empty). *)

val default_gate : float
(** 0.0433: half the 8.65% uncalibrated aggregate MAPE measured when
    the validation harness was introduced — the hard bench/CI gate on
    held-out calibrated error. *)

val passes_gate : evaluation -> gate:float -> bool
(** Held-out calibrated MAPE at or under the gate, with a non-empty
    holdout. *)

(** {1 Applying} *)

val apply_stack :
  t ->
  stats:(string * float) list ->
  Uarch.t ->
  Cpi_stack.t * float ->
  Cpi_stack.t * float
(** Calibrate one prediction: per component
    [max 0 (model_c + correction_c)], total CPI moved by the sum of
    applied corrections (and clamped at zero).  Non-finite corrections
    degrade to zero, so a calibrated CPI is finite and non-negative
    whenever the input is. *)

val adjust : t -> Sweep.adjust
(** {!apply_stack} as the engines' correction hook, keyed by the MD5
    digest of the model's {!to_string} encoding: per profile it computes
    {!Validate.profile_stats} once, per point it calibrates the
    prediction's (CPI stack, CPI).  Every surface takes it as [?adjust]:
    {!Sweep.model_eval} and the sweeps built on it,
    {!Refine.model_refine}, {!Validate.run_workload} and the daemon. *)

(** {1 Active-learning sampler} *)

val suggest :
  ?options:Interval_model.options ->
  t ->
  profile:Profile.t ->
  n:int ->
  Uarch.t list ->
  (Uarch.t * float) list
(** Rank candidate design points by disagreement on this profile — the
    population standard deviation of the calibrated CPI across the fold
    models, the expected-information score (0 when the model carries
    fewer than two fold models) — and return the top [n] as (point,
    score), ties broken by name.  Points
    named in [c_holdout_names] are silently excluded (the leakage
    rule); so are candidates whose analytical prediction faults. *)

(** {1 Serialization}

    A {!Minijson} document with schema [mipp-calib-v2]:
    [{"schema", "crc32", "model"}].  [model] holds every field of {!t},
    each float a ["%h"] hex string and the components keyed by
    {!Cpi_stack.to_string}; [crc32] is the CRC-32 of [Minijson.print]
    of [model].  The model holds no plain non-integral number, so
    parsing and printing it again gives back its bytes, and any
    corruption that still parses fails the CRC.  Loads check the
    schema, the CRC, the stat and feature names against this build, the
    ridge width, the stump feature range, finite floats and the fold
    count, each failure a structured [Fault.Bad_input]; a file in the
    retired [mipp-calib 1] line format is refused with a message to
    retrain.  save→load→save is byte-identical. *)

val to_string : t -> string
val of_string : string -> (t, Fault.t) result
val save : string -> t -> (unit, Fault.t) result
val load : string -> (t, Fault.t) result
