(** Set-associative LRU cache (functional, no timing).

    The reference simulator and the functional cache experiments both use
    this structure.  Misses are classified as cold (first touch of the line
    since the cache was created — §4.1's application-dependent category) or
    capacity/conflict (the line was present earlier but has been evicted). *)

type t

type outcome = Hit | Miss_cold | Miss_capacity

val create : ?name:string -> Uarch.cache_level -> t
(** Raises [Invalid_argument], naming the level by [name], when the
    geometry gives a set count that is not a power of two (set selection
    masks the line hash with [n_sets - 1]). *)

val access : t -> int -> outcome
(** [access t addr] looks the line of [addr] up and updates LRU state;
    on a miss the line is filled (allocate-on-miss, for reads and writes
    alike). *)

val probe : t -> int -> bool
(** [probe t addr] checks presence without touching LRU state. *)

val fill : t -> int -> unit
(** Insert a line without classifying (prefetch fills). *)

val line_of : t -> int -> int
(** The line index an address maps to. *)

val accesses : t -> int
val misses : t -> int
val cold_misses : t -> int
val reset_stats : t -> unit
