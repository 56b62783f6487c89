(** Domain-based deterministic parallel map.

    The design-space sweep engine's substrate: [map_array ~jobs f xs]
    evaluates [f] over [xs] on up to [jobs] worker domains and returns the
    results in input order, bit-identical to the sequential
    [Array.map f xs] whenever [f] is deterministic and domain-safe.  Work is split into
    [jobs] contiguous chunks (one per worker, balanced to within one
    element); the calling domain processes the first chunk itself, so
    [jobs = 2] spawns a single extra domain.

    Falls back to plain sequential evaluation when [jobs <= 1] or the
    input is too small to split.  If any worker raises, every chunk still
    runs to completion (no partial cancellation), and the exception of the
    lowest-numbered failing worker is re-raised with its backtrace. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the runtime's estimate of how
    many domains this machine runs without oversubscription. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f xs] is [Array.map f xs] evaluated on [jobs]
    domains (default 1 = sequential), preserving input order. *)

val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, Fault.t) result list
(** Fault-isolated [map_array], over a list: an exception raised while evaluating one item
    becomes [Error] for that item alone — [Fault.Error ft] is captured as
    [ft] itself, anything else as [Fault.Worker_crash] with its backtrace
    — and every other item still gets its [Ok] result.  Order and
    determinism are those of [map_array]: the verdict for each item is
    independent of [jobs]. *)

val capture : ('a -> 'b) -> 'a -> ('b, Fault.t) result
(** [capture f x] is one item of [map_result]: [Ok (f x)], or the fault
    an exception raised by [f x] becomes. *)

val map_result_array :
  ?jobs:int -> ('a -> 'b) -> 'a array -> ('b, Fault.t) result array
(** Array counterpart of [map_result]. *)
