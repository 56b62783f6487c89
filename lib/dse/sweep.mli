(** Design-space sweeps (§6.2.4, §7).

    The whole point of the micro-architecture independent model: profile
    once, then evaluate every design point analytically.  [model_sweep]
    does exactly that.  This layer runs the model only: the
    model-vs-simulator comparison over a design matrix is
    [Validate.run_workload], built on {!run_points}.

    {!run_points} is the one sweep engine: a design point that crashes
    or produces non-finite numbers yields an [Error] for that point
    alone, every other point still evaluates, and progress can be
    checkpointed to disk and resumed bit-identically after a kill.  The
    [_result] sweep runs it over design points; a streaming sweep
    ({!run_stream}) runs it over fixed index blocks of a space, each
    block one of its points. *)

type eval = {
  sw_index : int;  (** position in the config list: the design-point id *)
  sw_config : Uarch.t;
  sw_cpi : float;
  sw_cycles : float;
  sw_watts : float;
  sw_seconds : float;
  sw_energy_j : float;
  sw_ed2p : float;
}

val of_prediction :
  ?cycles:float -> Uarch.t -> index:int -> Interval_model.prediction -> eval
(** [?cycles] overrides the prediction's cycle count — the hook the
    grey-box calibrator uses to correct a prediction: CPI, seconds,
    energy and ED²P are all re-derived from the corrected cycles, while
    the activity-based power estimate keeps the analytical activity
    factors. *)

type point_result = (eval, Fault.t) result

type outcome = {
  o_results : point_result list;
      (** one per config, in config order, independent of [jobs] *)
  o_ok : int;
  o_failed : int;  (** faulted plus (without keep-going) skipped points *)
  o_resumed : int;  (** points restored from the checkpoint *)
}

type adjust =
  string * (Profile.t -> Uarch.t -> Interval_model.prediction -> Cpi_stack.t * float)
(** A correction of the analytical prediction, [(key, f)] — the grey-box
    calibrator's hook, the one every surface applies through
    {!model_eval}.  [f] is staged: [f profile] does the per-profile work
    once (one sweep, one validated workload, one daemon request), and the
    function it returns maps a point's config and raw prediction to the
    corrected per-instruction (CPI stack, CPI).  The corrected cycles are
    that CPI times the prediction's instructions (see {!of_prediction}).
    [key] identifies the correction (a digest of the calibration model),
    so a checkpoint written under one correction is refused under
    another.  The per-point function must be deterministic and
    thread-safe — it runs on the worker domains — and must not mutate the
    prediction, which may be shared with the point's timing-equivalent
    neighbours. *)

val model_eval :
  ?options:Interval_model.options ->
  ?adjust:adjust ->
  Profile.t ->
  Uarch.t ->
  index:int ->
  Cpi_stack.t * eval
(** The one design-point evaluator of the analytical model, shared by
    the per-point and streaming sweeps, {!Refine.model_refine} and the
    daemon.
    [model_eval ?options ?adjust profile] runs [adjust]'s per-profile
    stage once; the function it returns evaluates one point: prediction
    (reused across timing-equivalent neighbours, see
    {!model_sweep_result}), then [adjust], then {!of_prediction}.  It
    returns the point's per-instruction CPI stack (the corrected one
    under [adjust]) beside its eval.  A profile evaluated on several
    domains must be {!Profile.prepare}d first. *)

val check_numeric : eval -> (eval, Fault.t) result
(** Reject an eval containing non-finite numbers as a per-point
    [Fault.numeric] — NaN silently corrupts Pareto fronts and argmin
    comparisons downstream. *)

val default_point_block_size : int
(** Points per block of {!run_points} (64): the unit of parallel fan-out
    and of checkpoint appends, so a killed process loses at most [jobs]
    blocks. *)

(** Outcome of a {!run_points} evaluation: one result per point, in
    point order, independent of [jobs]. *)
type 'a run = {
  run_results : ('a, Fault.t) result list;
  run_ok : int;
  run_failed : int;  (** faulted plus (without keep-going) skipped points *)
  run_resumed : int;  (** points restored from the checkpoint *)
}

val run_points :
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  workload:string ->
  n_points:int ->
  encode:('a -> float array) ->
  decode:(index:int -> float array -> 'a option) ->
  check:('a -> ('a, Fault.t) result) ->
  eval_point:(int -> 'a) ->
  unit ->
  ('a run, Fault.t) result
(** The fault-isolated, checkpointed, parallel sweep engine under
    {!model_sweep_result} and {!run_stream}, exposed for other
    point-matrix evaluations (the model-vs-simulator validation harness
    in [lib/validate] is built on it).

    [eval_point i] evaluates point [i] of [n_points] — a raised
    exception or a value rejected by [check] becomes a per-point
    [Error], never a dead run.  [encode]/[decode] round-trip a payload
    through a checkpoint record's float vector; anything config-shaped
    is reconstructed from the index by the caller's [decode], which
    returns [None] for a vector of the wrong shape (its length): such a
    record ends the log's trusted prefix like a torn one.
    [workload] names the run in the checkpoint header and must change
    with anything the results depend on: build it with
    {!Checkpoint.run_id}.

    Pending points are cut into blocks of
    [min block_size (ceil (pending / jobs))] consecutive indices, or of
    [ceil (pending / jobs)] when there is no checkpoint and [keep_going]
    holds (nothing for [block_size] to bound); [jobs] blocks evaluate at
    a time, each on one domain in index order.  Same checkpoint,
    keep-going and bit-identical resume semantics as
    {!model_sweep_result}. *)

val model_sweep_result :
  ?options:Interval_model.options ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  ?adjust:adjust ->
  profile:Profile.t ->
  Uarch.t list ->
  (outcome, Fault.t) result
(** Fault-isolated analytical sweep.  The profile is first run through
    {!Profile.validate} ([Error] on a corrupt profile, before any work);
    config-independent StatStack structures are built once before the
    evaluation fans out over [jobs] worker domains.

    [?checkpoint] doubles as resume: the {!Checkpoint} log is created if
    missing; if present, its header must match this sweep and every
    point it holds is restored instead of evaluated.  The header names
    the workload and digests everything the results depend on — the
    profile's bytes, [options], the config list and the [adjust] key —
    so a log of any other sweep is refused as [Bad_input].  Each group
    of [jobs] blocks (of at most [?block_size] points, default
    {!default_point_block_size}) is appended as it completes, one record
    per point.  A sweep killed mid-run and re-run with the same
    checkpoint produces results bit-identical to an uninterrupted run,
    under any [jobs]: floats round-trip through the log as raw IEEE-754
    bit patterns.

    [keep_going] (default [true]) evaluates every point regardless of
    individual faults.  With [~keep_going:false] the group containing
    the first fault finishes and the remaining points are marked as
    skipped ([Error], not written to the checkpoint, so a later run
    still evaluates them).

    Each worker domain calls {!Interval_model.predict} once per run of
    consecutive configs with equal {!Interval_model.timing_key} (configs
    differing only in name and operating point) and reuses that
    prediction, with [pr_uarch] set to each config's own name; the
    result is bit-identical to a predict per point.

    [?adjust] corrects each point (see {!adjust}); checkpoints store
    adjusted values under the adjustment's key.

    The outer [Error] is reserved for whole-sweep failures: invalid
    profile, unreadable/mismatched checkpoint. *)

(** {1 Streaming sweeps}

    A per-point sweep holds one result per point — fine at a few
    hundred points, fatal at a million.  A streaming sweep walks a
    (sub-)range of a generated {!Config_space.t} in fixed-size index
    blocks: it is {!run_points} over the blocks, each block a point that
    folds into a fixed-width accumulator vector plus a local Pareto
    front, logged as one record and dropped, so peak RSS and checkpoint
    size scale with the block count, never the point count.

    Points within a block evaluate sequentially in index order; blocks
    run [jobs]-wide but are merged in ascending block order, and every
    min/argmin tie resolves to the lowest index — the summary is a pure
    function of (range, block size), independent of [jobs] and
    bit-identical across a kill-and-resume. *)

val default_block_size : int
(** Points per streaming block (4096). *)

type stream_summary = {
  ss_n_points : int;  (** size of the whole space *)
  ss_offset : int;  (** first index of the swept sub-range *)
  ss_length : int;  (** points in the swept sub-range *)
  ss_block_size : int;
  ss_n_blocks : int;
  ss_resumed_blocks : int;  (** blocks restored from the checkpoint *)
  ss_evaluated_blocks : int;  (** blocks evaluated by this run *)
  ss_skipped_blocks : int;  (** blocks skipped after a [keep_going:false] stop *)
  ss_ok : int;
  ss_failed : int;
  ss_sum_cpi : float;  (** sums are over [ss_ok] successful points *)
  ss_sum_cycles : float;
  ss_sum_watts : float;
  ss_sum_seconds : float;
  ss_sum_energy_j : float;
  ss_sum_ed2p : float;
  ss_best_seconds : (int * float) option;  (** (point id, value); ties → lowest id *)
  ss_best_energy : (int * float) option;
  ss_best_ed2p : (int * float) option;
  ss_front : Pareto.point list;  (** global Pareto front of the swept range *)
  ss_front_evals : eval list;
      (** full evals of [ss_front], re-derived by re-evaluating the (few)
          front ids; a front point whose re-evaluation faults is omitted *)
  ss_sample_fault : Fault.t option;
      (** first fault seen by this run (resumed blocks only carry counts) *)
}

val run_stream :
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  ?on_point:(int -> point_result -> unit) ->
  workload:string ->
  n_points:int ->
  ?offset:int ->
  ?length:int ->
  eval_point:(int -> eval) ->
  unit ->
  (stream_summary, Fault.t) result
(** [run_stream ~workload ~n_points ~eval_point ()] streams over points
    [offset, offset + length) (default: the whole space) in
    [block_size]-point blocks.  [eval_point] must be deterministic; a
    raised exception or a non-finite eval faults that point alone.

    [?checkpoint] doubles as resume: the log is created if missing,
    validated (byte-identical header: [workload], the space size, the
    sub-range and the block size, all in the run's name) and its
    completed blocks restored if present, and each evaluated group of
    [jobs] blocks appended, one record per block — a killed run loses at
    most the in-flight group.  As in {!run_points},
    [workload] must name everything the results depend on.

    [?on_point] observes every freshly evaluated point (called from the
    worker domains, in index order within each block; resumed blocks do
    not replay).  [keep_going:false] lets the group containing the first
    fault finish, then skips (and does not checkpoint) later blocks.

    The outer [Error] is reserved for whole-sweep failures: a bad
    sub-range or block size, or an unreadable/mismatched checkpoint. *)

val model_sweep_stream :
  ?options:Interval_model.options ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  ?on_point:(int -> point_result -> unit) ->
  ?offset:int ->
  ?length:int ->
  ?adjust:adjust ->
  profile:Profile.t ->
  Config_space.t ->
  (stream_summary, Fault.t) result
(** {!run_stream} over a generated config space with the analytical
    model: configs are built per index ({!Config_space.config_of_index})
    and dropped after evaluation — no config list is ever allocated.
    Profile validation, StatStack preparation, prediction reuse,
    [?adjust] and the checkpoint header's digest (with the space's name
    and axes in place of the config list) as in {!model_sweep_result}. *)

val model_sweep :
  ?options:Interval_model.options ->
  ?jobs:int ->
  ?adjust:adjust ->
  profile:Profile.t ->
  Uarch.t list ->
  eval list
(** [model_sweep_result] without isolation: the first per-point fault is
    re-raised (a worker crash with its original exception and backtrace,
    other faults as [Fault.Error]).  Results are in config order and
    bit-identical for any [jobs].  Default [jobs = 1] (sequential). *)

val pareto_points : eval list -> Pareto.point list
(** (delay = seconds, power = watts) points for Pareto analysis. *)

val best_under_power :
  Pareto.point list -> budget_watts:float -> Pareto.point option
(** Fastest (least-delay) point within the power budget, the first of
    equally fast ones (Table 7.1). *)
