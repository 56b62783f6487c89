(** Gradient-boosted regression stumps (squared loss).

    The nonlinear half of the grey-box calibrator: depth-1 trees fitted
    greedily to the residual the ridge term leaves behind.  Each round
    picks the (feature, threshold) split minimizing the squared error of
    the two leaf means, applies the leaf values scaled by the shrinkage,
    and subtracts the fit from the working residual.

    Training is fully deterministic: features are scanned in index
    order, split candidates in ascending value order, and only a
    strictly better gain replaces the incumbent — so ties resolve to
    the lowest feature index and threshold, and refitting the same data
    reproduces the same ensemble bit for bit.  Fitting stops early when
    no split has positive gain, which is what makes the ensemble's
    training loss non-increasing per round (for shrinkage in (0, 2)). *)

type stump = {
  st_feature : int;
  st_threshold : float;
  st_left : float;  (** added when [x.(st_feature) <= st_threshold] *)
  st_right : float;  (** added otherwise *)
}

val fit :
  rounds:int ->
  shrinkage:float ->
  rows:float array array ->
  targets:float array ->
  stump list
(** At most [rounds] stumps, in boosting order; fewer when no positive-
    gain split remains (including: empty data, constant features, or a
    residual already at its mean everywhere per split side). *)

val predict : stump list -> float array -> float
(** Sum of the stumps' predictions for one row (0 for the empty list). *)

val training_loss : stump list -> rows:float array array -> targets:float array -> float
(** Mean squared error of the ensemble's prediction against [targets] —
    exposed so tests can check the per-round monotone-loss invariant on
    ensemble prefixes. *)
