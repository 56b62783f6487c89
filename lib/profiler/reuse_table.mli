(** Last-access tables for reuse distances: int key (a cache line) to
    the non-negative index of its last access.

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

val length : t -> int
(** Number of keys. *)
