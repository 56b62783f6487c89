(** Integer-keyed count histograms.

    The profiler summarizes every distribution it collects (reuse distances,
    strides, dependence-path lengths, load spacings, ...) as a histogram of
    occurrence counts.  Keys are arbitrary ints (strides may be negative).

    The backend is one hash table from key to count, so a histogram's
    size follows its number of distinct keys, not their magnitude: a
    profile holds thousands of histograms, nearly all with one or two
    keys.  Sorted views ([to_sorted_list], [iter], [fold],
    [quantile_key], ...) are computed once and cached until the next
    mutation, so analysis-phase quantile loops over frozen histograms stop
    re-sorting. *)

type t

val create : unit -> t

val copy : t -> t

val add : t -> ?count:int -> int -> unit
(** [add h k] increments the count of key [k] (by [count], default 1).
    [~count:0] is a no-op: it does not register [k] as a distinct key.
    Raises [Invalid_argument] on negative counts. *)

val count : t -> int -> int
(** Count recorded for a key (0 if absent). *)

val total : t -> int
(** Sum of all counts. *)

val distinct : t -> int
(** Number of distinct keys. *)

val is_empty : t -> bool

val iter : t -> (int -> int -> unit) -> unit
(** [iter h f] calls [f key count] in increasing key order. *)

val fold : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** Fold in increasing key order. *)

val to_sorted_list : t -> (int * int) list
(** Key/count pairs, keys increasing. *)

val mean : t -> float
(** Count-weighted mean of the keys; 0 when empty. *)

val frequency : t -> int -> float
(** [frequency h k] is [count h k / total h]; 0 when empty. *)

val fraction_above : t -> int -> float
(** [fraction_above h k] is the fraction of mass with key strictly greater
    than [k]; used e.g. for "stack distance > cache size ⇒ miss". *)

val quantile_key : t -> float -> int
(** [quantile_key h q] is the smallest key whose cumulative frequency
    reaches [q] (0 < q <= 1).  Raises [Invalid_argument] on empty
    histograms. *)

val merge : t -> t -> t
(** Count-wise sum of two histograms. *)

val scale : t -> int -> t
(** [scale h k] multiplies every count by [k]; used to extrapolate sampled
    micro-trace histograms to full-window weight. *)

val normalize : t -> (int * float) list
(** Key/probability pairs summing to 1, keys increasing; [] when empty. *)

val top_k : t -> int -> (int * int) list
(** [top_k h k] is the [k] keys with the largest counts, counts
    decreasing (ties broken by key). *)
