(** Pareto-guided hierarchical refinement: find the frontier of a huge
    generated space by evaluating a coarse axis-subgrid, then repeatedly
    refining (halving the stride) around the current front until the
    stride is one and a round adds no new points.  Evaluates a few
    thousand points where the exhaustive sweep evaluates millions; the
    test suite scores it against the exhaustive front of the enumerable
    243-point space ({!Pareto.subset_quality} sensitivity / specificity
    / HVR all >= 0.95). *)

type report = {
  rf_evaluated : int;  (** distinct design points evaluated *)
  rf_failed : int;  (** points whose evaluation faulted (excluded) *)
  rf_rounds : int;  (** refinement rounds run (after the coarse seed) *)
  rf_front : Pareto.point list;  (** frontier of everything evaluated *)
  rf_front_evals : Sweep.eval list;  (** full evals of [rf_front] *)
}

val model_refine :
  ?options:Interval_model.options ->
  ?initial_stride:int ->
  ?max_rounds:int ->
  ?jobs:int ->
  ?adjust:Sweep.adjust ->
  profile:Profile.t ->
  Config_space.t ->
  (report, Fault.t) result
(** Refine over [space] with {!Sweep.model_eval}, building each config
    from its index on demand: seed with every [initial_stride]-th digit
    per axis (endpoints always included; default stride 4), then refine.
    A point whose evaluation faults (a raised exception, non-finite
    numbers) is dropped alone.  [max_rounds] (default 12) bounds the
    loop even if the front keeps wandering.  [?adjust] corrects every
    point as in {!Sweep.model_sweep_result}. *)
