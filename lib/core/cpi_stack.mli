(** The shared keyed CPI-stack representation.

    One enumeration of the interval-analysis cycle components, used by
    both the analytical model ({!Interval_model}) and the cycle-level
    simulator ([Sim_result]): stacks from the two engines diff by key,
    not by the accident of matching positional string lists.  The
    validation harness ([lib/validate]) is built on this type. *)

type component =
  | Base  (** cycles with forward progress: N / Deff *)
  | Branch  (** branch-misprediction penalties *)
  | Icache  (** instruction-fetch stalls beyond the L1I *)
  | Llc_hit  (** stalls on loads served by L2/L3 (chained LLC hits) *)
  | Dram  (** stalls on loads served by DRAM *)

val all : component list
(** Every component, in canonical (stack) order. *)

val n_components : int
val index : component -> int
(** Position in [all]; a dense [0, n_components) index. *)

val to_string : component -> string
(** Canonical label ("base", "branch", "icache", "llc-hit", "dram") —
    the single source for every printed stack. *)

type t
(** A CPI stack: one float (cycles, or cycles per instruction — the
    caller's choice of unit) per component. *)

val make : (component -> float) -> t
val of_values :
  base:float -> branch:float -> icache:float -> llc_hit:float ->
  dram:float -> t

val get : t -> component -> float
val total : t -> float
val scale : t -> float -> t
val map2 : (float -> float -> float) -> t -> t -> t
val to_alist : t -> (component * float) list
(** In [all] order. *)

val labeled_alist : t -> (string * float) list
(** [to_alist] with [to_string] applied to the keys. *)
