(** The calibrator's feature vector.

    One fixed, ordered vector per (workload, design point): an
    intercept, the design-space axes (width, log2 structure sizes, the
    ROB-per-width fill time), the micro-architecture independent
    workload statistics ({!Validate.profile_stats}), and — what makes
    the calibrator grey-box rather than black-box — the analytical
    model's own per-component CPI stack and total CPI.  The residual
    learners only ever see this vector, so feature order is part of the
    serialized model contract ({!names} is written into the
    [mipp-calib-v2] file and checked on load). *)

val names : string list
(** Feature names, in vector order.  Workload statistics appear as
    ["stat_" ^ name] for every {!Validate.stat_names} entry, model
    stack components as ["model_" ^ component]. *)

val n : int
(** [List.length names]. *)

val of_point :
  stats:(string * float) list ->
  Uarch.t ->
  model_stack:Cpi_stack.t ->
  model_cpi:float ->
  float array
(** Build the vector.  [stats] is looked up by {!Validate.stat_names}
    name (a missing statistic contributes 0 — the serialized-model
    guard against this is the stat-name list stored in the model
    file). *)
