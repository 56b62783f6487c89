(** Open-addressed tables from int keys to non-negative int values.
    The profiler keeps the index of each line's last access in one (for
    reuse distances), and the simulator's cache hierarchy the levels
    each line has ever been filled into.

    Open addressing with linear probing, at most half full, doubling as
    it grows.  The slots live in 64-word pages rather than one flat
    array: blocks that small come from the major heap's size-classed
    pools, as hash-table cells do, while a flat array of a large table
    is a separate large allocation that stays resident until a major
    cycle frees it, after the profile that used it is done. *)

type t

val create : int -> t
(** [create n]: an empty table sized for about [n] keys before it first
    grows. *)

val exchange : t -> int -> int -> int
(** [exchange t key v] stores [v] (non-negative) as [key]'s value and
    returns the value it replaces, or [-1] when [key] was absent: one
    probe sequence for the lookup and the update.  Raises
    [Invalid_argument] for [key = min_int], the empty-slot mark. *)

val or_update : t -> int -> int -> int
(** [or_update t key bits] stores the old value [lor bits] ([bits]
    non-negative) as [key]'s value and returns the old value, or [0]
    when [key] was absent: one probe sequence, as for {!exchange}.
    Raises [Invalid_argument] for [key = min_int]. *)

val length : t -> int
(** Number of keys. *)
