(** Set-associative LRU cache (functional, no timing).

    The reference simulator and the functional cache experiments both use
    this structure.  It keeps no statistics: {!Hierarchy} counts accesses
    and tells cold misses from capacity/conflict ones. *)

type t

type outcome = Hit | Miss

val create : ?name:string -> Uarch.cache_level -> t
(** Raises [Invalid_argument], naming the level by [name], when the
    geometry gives a set count that is not a power of two (set selection
    masks the line hash with [n_sets - 1]). *)

val line_of : t -> int -> int
(** [line_of t addr]: the number of the line holding [addr]. *)

val access : t -> int -> outcome
(** [access t addr] looks the line of [addr] up and updates LRU state;
    on a miss the line is filled (allocate-on-miss, for reads and writes
    alike). *)

val probe : t -> int -> bool
(** [probe t addr] checks presence without touching LRU state. *)
