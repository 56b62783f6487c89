(** Output of one cycle-level simulation run. *)

(** Cycle accounting in the interval-model vocabulary: cycles with forward
    progress are [base]; stall cycles are attributed to the miss event that
    blocked dispatch or commit. *)
type stack = {
  s_base : float;
  s_branch : float;
  s_icache : float;
  s_llc_hit : float;  (** blocked on loads served by L2/L3 *)
  s_dram : float;  (** blocked on loads served by DRAM *)
}

val stack_total : stack -> float

val stack_components : stack -> (string * float) list
(** The stack's labelled components, keyed by the same
    {!Cpi_stack.component}s the analytical model emits — kept for
    printing. *)

type t = {
  r_name : string;
  r_cycles : int;
  r_instructions : int;
  r_uops : int;
  r_stack : stack;
  r_branches : int;
  r_branch_mispredicts : int;
  r_l1d : Hierarchy.level_stats;
  r_l2 : Hierarchy.level_stats;
  r_l3 : Hierarchy.level_stats;
  r_inst_misses : int * int * int;  (** L1I, L2, L3 instruction misses *)
  r_dram_loads : int;
  r_dram_stores : int;
  r_mlp : float;
      (** measured average outstanding DRAM loads while >= 1 outstanding *)
  r_prefetches_issued : int;
  r_time_series : (int * float) array;  (** (instruction count, interval CPI) *)
  r_activity : Power.activity;
}

val cpi : t -> float
(** Cycles per instruction. *)

val cpi_stack : t -> Cpi_stack.t
(** The measured CPI stack per instruction: [r_stack], keyed by
    {!Cpi_stack.component} so the two engines diff structurally, scaled
    by [1 / r_instructions] (all-zero when no instructions ran). *)

val mpki : t -> [ `L1 | `L2 | `L3 ] -> float
(** Data-load misses per kilo instruction at a cache level. *)

val branch_mpki : t -> float

val dram_wait_cpi : t -> float
(** The DRAM stack component per instruction — §6.6's "average time
    waiting on DRAM". *)
