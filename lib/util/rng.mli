(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the repository (workload synthesis, sampling,
    design-space noise) flows through this module so that every experiment is
    reproducible from a seed.  The generator is splitmix64, which is fast,
    has a 64-bit state and passes BigCrush. *)

type t
(** Mutable generator state, held unboxed: drawing an [int], a [bool] or
    a geometric sample allocates nothing. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  The two
    streams are statistically independent; used to give each benchmark
    phase or structure its own stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli([p]) process; mean [(1-p)/p].  [p] must be in (0, 1]. *)

val geometric_of_log : t -> float -> int
(** [geometric_of_log t (log (1. -. p))] is [geometric t p], drawn the
    same way, for [p] in (0, 1): a caller that draws often with one [p]
    computes the logarithm once. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal sample. *)

val choose_weighted : t -> (float * 'a) array -> 'a
(** [choose_weighted t arr] picks an element with probability proportional
    to its weight.  Weights must be non-negative with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
