(** Model-vs-simulator differential validation.

    The paper's credibility rests on the analytical interval model
    tracking detailed simulation within a few percent, per workload and
    per CPI-stack component (Fig 6.2/6.3-style comparisons).  This
    harness makes that claim machine-checkable: it runs
    {!Interval_model.predict} and {!Simulator.run} over the same
    (profile, micro-architecture) matrix, diffs the two keyed CPI stacks
    ({!Cpi_stack}) point by point, and aggregates per-workload and
    per-component error tables plus error-vs-parameter trends.

    Evaluation rides on {!Sweep.run_points}: points fan out over worker
    domains, a crashing or non-finite point degrades to a per-point
    {!Fault.t} instead of killing the run, and progress can be
    checkpointed and resumed bit-identically. *)

(** {1 Points} *)

(** One validated design point: both engines' per-instruction CPI stacks
    and totals, and both engines' average power, on the same workload and
    seed. *)
type point = {
  vp_index : int;  (** position in the config list *)
  vp_uarch : Uarch.t;
  vp_model_stack : Cpi_stack.t;  (** model CPI stack, per instruction *)
  vp_model_cpi : float;
  vp_sim_stack : Cpi_stack.t;  (** simulator CPI stack, per instruction *)
  vp_sim_cpi : float;
  vp_model_watts : float;
      (** [Power.estimate] total watts of the prediction's activity *)
  vp_sim_watts : float;
      (** [Power.estimate] total watts of the simulated activity *)
}

val point :
  index:int -> Uarch.t -> Interval_model.prediction -> Sim_result.t -> point
(** Pair one prediction with one simulation of the same design point. *)

val signed_error : point -> float
(** [(model_cpi - sim_cpi) / sim_cpi]: positive when the model
    over-predicts. *)

val abs_error : point -> float

val power_signed_error : point -> float
(** [(model_watts - sim_watts) / sim_watts]. *)

val component_signed_error : point -> Cpi_stack.component -> float
(** Per-component stack difference as a fraction of the {e total}
    simulated CPI — component errors are comparable across components
    and sum (over components) to {!signed_error}. *)

(** {1 Workload statistics} *)

val stat_names : string list
(** The fixed, ordered names of the micro-architecture independent
    workload statistics exported per profile — the calibrator's
    profile-side feature axis.  {!profile_stats} returns exactly these
    names in exactly this order. *)

val profile_stats : Profile.t -> (string * float) list
(** Summary statistics of one profile (µops/instruction, branch entropy
    and fraction, cold-miss rates, dependence-chain lengths at the
    reference ROB, data accesses per instruction), keyed by
    {!stat_names}. *)

(** {1 Error reports} *)

(** Aggregate error of one stack component over a point matrix. *)
type component_error = {
  ce_component : Cpi_stack.component;
  ce_model_cpi : float;  (** mean model CPI share over the matrix *)
  ce_sim_cpi : float;  (** mean simulated CPI share over the matrix *)
  ce_signed : float;  (** mean of {!component_signed_error} *)
  ce_abs : float;  (** mean absolute {!component_signed_error} *)
}

type workload_report = {
  wr_workload : string;
  wr_stats : (string * float) list;  (** {!profile_stats} of the profile *)
  wr_n_points : int;
  wr_points : point list;  (** successfully evaluated points, in order *)
  wr_faults : (int * Fault.t) list;  (** (index, fault) for the rest *)
  wr_resumed : int;
  wr_mean_signed : float;  (** mean signed CPI error *)
  wr_mape : float;  (** mean absolute CPI error *)
  wr_max_abs : float;
  wr_power_mean_signed : float;  (** mean signed power error *)
  wr_power_mape : float;  (** mean absolute power error *)
  wr_power_max_abs : float;
  wr_components : component_error list;  (** in {!Cpi_stack.all} order *)
  wr_worst : component_error option;  (** largest [ce_abs]; [None] iff
                                          no point succeeded *)
  wr_rob_trend : (int * float) list;
      (** (ROB entries, mean signed CPI error) per distinct ROB size *)
  wr_l3_trend : (int * float) list;
      (** (L3 bytes, mean signed CPI error) per distinct L3 size *)
}

type report = {
  rp_workloads : workload_report list;
  rp_total_points : int;
  rp_total_ok : int;
  rp_mean_signed : float;  (** over every successful point, all workloads *)
  rp_mape : float;  (** the gated aggregate: mean absolute CPI error *)
  rp_power_mean_signed : float;
  rp_power_mape : float;  (** mean absolute power error; reported, not gated *)
  rp_power_max_abs : float;
}

val summarize : workload_report list -> report

(** {1 Evaluation matrices} *)

type matrix = [ `Quick | `Sim | `Full ]
(** [`Quick]: dispatch width x ROB at reference caches (9 points).
    [`Sim]: the simulation subspace — width x ROB x L3 at reference
    L1D/L2 (27 points), the default.  [`Full]: all 243 design-space
    points (simulation-heavy; minutes, not seconds). *)

val matrix_configs : matrix -> Uarch.t list
val matrix_to_string : matrix -> string
val matrix_of_string : string -> (matrix, Fault.t) result

(** {1 Running} *)

val default_n_instructions : int
(** 60_000 — the design-space budget of the bench harness: small enough
    that simulating every matrix point stays interactive, long enough to
    exercise every stack component. *)

val default_gate : float
(** The CI gate on {!report.rp_mape} (fraction, not percent): 0.12 —
    the paper's ~10% headline accuracy plus two points of headroom so
    seed/budget drift does not flap CI. *)

val run_workload :
  ?options:Interval_model.options ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?keep_going:bool ->
  ?seed:int ->
  ?n_instructions:int ->
  ?adjust:Sweep.adjust ->
  spec:Workload_spec.t ->
  Uarch.t list ->
  (workload_report, Fault.t) result
(** Record the workload's micro-op stream once and profile it from the
    recording ({!Profiler.profile_stream}), then evaluate every config
    with both engines (the simulator replays the stream) under
    {!Sweep.run_points}:
    [jobs]-way parallel, fault-isolated per point, and [?checkpoint]
    doubles as resume via the same CRC-per-line log as the design sweeps.
    The log's header names the workload and digests everything the
    report depends on — [spec], [seed], [n_instructions], [options], the
    config list and the [adjust] key — so a log of any other run (a
    design sweep, another seed, another or no calibrator) is refused,
    never resumed.  The
    outer [Error] is reserved for whole-run failures: a [spec] the
    generator refuses ([Bad_input] in context ["workload"]), an
    unreadable or mismatched checkpoint.

    [?adjust] (the calibrator's {!Sweep.adjust} hook, its per-profile
    stage run once per workload) replaces each point's model stack and
    CPI with the corrected prediction before any error is computed, so
    the whole report (MAPE, component tables, trends, gate) measures the
    corrected model; checkpoints then store corrected values.  The
    hook corrects CPI only: model watts stay those of the raw
    prediction's activity.

    The stream is held for the whole fan-out: memory grows by 24 bytes
    per micro-op, linear in [n_instructions], on top of the profile. *)

(** {1 Reporting} *)

val passes_gate : report -> gate:float -> bool
(** [rp_mape <= gate], and at least one point succeeded. *)

val save_json : ?gate:float -> string -> report -> (unit, Fault.t) result
(** Write the machine-readable accuracy report (the [BENCH_accuracy.json]
    schema, ["mipp-accuracy-v1"]): aggregate MAPE, per-workload CPI- and
    power-error summaries, per-component signed/absolute error tables,
    trends, and per-point rows. *)

val print_workload_report : out_channel -> workload_report -> unit
(** Human-readable per-workload table (components, errors, trends). *)

(** {1 Training matrix}

    The typed export the grey-box calibrator consumes: one row per
    successfully validated point.  [matrix_to_json] emits valid JSON
    (schema ["mipp-matrix-v2"]) whose floats are ["%h"] hex strings, so
    [matrix_of_json] recovers every value bit-exactly —
    matrix→JSON→matrix is the identity for rows whose design point has
    a canonical {!Uarch.of_name} name (all matrix configs do). *)

type matrix_row = {
  mr_workload : string;
  mr_stats : (string * float) list;
  mr_point : point;
}

val matrix_of_report : report -> matrix_row list
(** Every successful point of every workload, in report order. *)

val matrix_to_json : matrix_row list -> string
val matrix_of_json : string -> (matrix_row list, Fault.t) result
(** Refuses any other schema, a ["mipp-matrix-v1"] file (it carries no
    watts) with a [Bad_input] that says to regenerate it. *)

val save_matrix : string -> matrix_row list -> (unit, Fault.t) result
val load_matrix : string -> (matrix_row list, Fault.t) result
