(** Declarative design-space grids with a pure [index -> config]
    generator.

    A space is the cartesian product of integer axes; point [i] maps to a
    mixed-radix digit vector (axis 0 outermost, the last axis varying
    fastest) and is built on demand.  Streaming sweeps never allocate the
    config list, so peak RSS is independent of the point count. *)

type axis = {
  ax_name : string;
  ax_values : int array;
}

type t

val make : name:string -> axes:axis array -> build:(int array -> Uarch.t) -> t
(** [build] receives the axis {e values} (not indices), one per axis in
    declaration order.  Raises [Invalid_argument] on an empty axis list,
    an empty axis, or a product that overflows [max_int]. *)

val name : t -> string
val size : t -> int
val axes : t -> axis array

val digits_of_index : t -> int -> int array
(** Mixed-radix digits of a point index, axis 0 outermost.  Raises
    [Invalid_argument] outside [0, size). *)

val index_of_digits : t -> int array -> int
(** Inverse of [digits_of_index]. *)

val config_of_digits : t -> int array -> Uarch.t
val config_of_index : t -> int -> Uarch.t

val materialize : t -> Uarch.t array
(** Every config in index order — for tests and enumerable spaces only. *)

val default : t
(** The committed 243-point space: point-for-point identical (values,
    names, order) to [Uarch.design_space]. *)

val large : t
(** The generation-scale space (1,451,520 points): wider core and cache
    axes crossed with DRAM latency, bus transfer and DVFS axes. *)

val find : string -> (t, Fault.t) result
(** Look up a built-in space by name. *)
