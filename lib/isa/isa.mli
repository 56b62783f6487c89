(** Micro-operation ISA.

    The interval model works at the granularity of micro-operations derived
    from the dynamic x86 instruction stream (§3.2): a CISC instruction is
    decoded into one or more micro-ops before dispatch, and all model inputs
    (instruction mix, dependence chains, issue-port contention) are counted
    in micro-ops.  This module defines the micro-op vocabulary shared by the
    synthetic workload generator, the profiler and the cycle-level reference
    simulator. *)

type uop_class =
  | Int_alu
  | Int_mul
  | Int_div  (** served by a non-pipelined unit in the reference core *)
  | Fp_alu
  | Fp_mul
  | Fp_div  (** non-pipelined *)
  | Load
  | Store
  | Branch
  | Move  (** register-to-register data movement *)

val all_classes : uop_class list
val class_to_string : uop_class -> string
val class_index : uop_class -> int
val n_classes : int

type uop = {
  cls : uop_class;
  dep1 : int;
      (** distance (in micro-ops, backwards in the dynamic stream) to the
          first producing micro-op; 0 when the operand needs no producer.
          Streams are emitted register-renamed: only true (RAW)
          dependences appear (§2.1). *)
  dep2 : int;  (** second producer distance; 0 when absent *)
  addr : int;  (** byte address for [Load]/[Store]; 0 otherwise *)
  taken : bool;  (** branch outcome; [false] for non-branches *)
  static_id : int;
      (** identifier of the static instruction (the "PC"): keys branch
          prediction tables, stride profiles and the prefetcher *)
  begins_instruction : bool;
      (** [true] on the first micro-op of each x86 instruction, so
          instruction counts can be recovered from the micro-op stream *)
}

val is_memory : uop -> bool
val nop : uop
(** A dependence-free [Move] placeholder. *)

(** Per-class counters, used for instruction mixes and activity factors. *)
module Class_counts : sig
  type t

  val create : unit -> t
  val copy : t -> t
  val incr : t -> uop_class -> unit
  val add : t -> uop_class -> int -> unit
  val get : t -> uop_class -> int
  val total : t -> int
  val fraction : t -> uop_class -> float
  val merge : t -> t -> t
  val to_list : t -> (uop_class * int) list
end
