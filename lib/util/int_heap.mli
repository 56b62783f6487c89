(** Binary min-heap of ints (event times in the simulator). *)

type t

val create : unit -> t
val size : t -> int
val is_empty : t -> bool
val push : t -> int -> unit
val min_elt : t -> int
(** Raises [Invalid_argument] when empty. *)

val pop : t -> int
(** Remove and return the minimum.  Raises [Invalid_argument] when empty. *)

val pop_while_le : t -> int -> int
(** [pop_while_le h v] pops every element [<= v]; returns how many were
    popped. *)

