(** Synthetic workload specifications.

    The paper profiles SPEC CPU 2006 binaries through Pin.  Without dynamic
    binary instrumentation we substitute deterministic synthetic workloads:
    each specification describes the *statistical structure* of a dynamic
    micro-op stream — instruction mix, micro-op decomposition, dependence
    distances, accumulator chains, per-static-load memory access patterns
    (strided / random / unique), branch outcome processes and program
    phases — which is exactly the information the micro-architecture
    independent profile extracts.  A generator (see {!Workload_gen})
    expands a specification into a concrete stream. *)

(** Instruction templates.  Each dynamic instruction instantiates one
    template; multi-micro-op templates model CISC decomposition (§3.2). *)
type template =
  | T_alu  (** integer ALU op: 1 µop *)
  | T_alu_mem  (** load-op instruction: load µop + dependent ALU µop *)
  | T_mul  (** integer multiply: 1 µop *)
  | T_div  (** integer divide: 1 µop, non-pipelined unit *)
  | T_fp  (** FP add/sub: 1 µop *)
  | T_fp_mul
  | T_fp_div
  | T_load  (** plain load: 1 µop *)
  | T_store  (** plain store: 1 µop *)
  | T_store2  (** store with address computation: ALU µop + store µop *)
  | T_branch  (** conditional branch: 1 µop *)
  | T_branch_cmp  (** compare-and-branch: ALU µop + dependent branch µop *)
  | T_move  (** register move: 1 µop *)

(** Memory access pattern of a static load (§4.5's load categories). *)
type stride_pattern =
  | Fixed_strides of int list
      (** the load cycles through these byte strides, wrapping within its
          footprint: a 1-to-4-strided load *)
  | Random_in  (** uniformly random within the group's shared footprint *)
  | Unique  (** every access touches a fresh cache line: pure cold misses *)

type load_group = {
  lg_weight : float;  (** probability a static load belongs to this group *)
  lg_pattern : stride_pattern;
  lg_footprint_bytes : int;
      (** total footprint of the group: split across the group's static
          loads for [Fixed_strides], shared for [Random_in]; ignored for
          [Unique] *)
}

(** Branch outcome process of a static branch (drives entropy, §3.5). *)
type branch_kind =
  | Loop_every of int  (** taken except once every [k] executions *)
  | Biased of float  (** i.i.d. taken with this probability *)
  | Pattern of bool array  (** repeating outcome pattern *)

type branch_group = { bg_weight : float; bg_kind : branch_kind }

type phase = {
  ph_name : string;
  templates : (float * template) array;  (** weighted instruction mix *)
  dep_prob : float;
      (** probability a micro-op has a register producer at all; the rest
          read only immediate/long-dead values *)
  dep_mean : float;
      (** mean register-dependence distance in µops (geometric) for
          near producers; short distances create long dependence chains *)
  far_dep_frac : float;
      (** fraction of producers that sit hundreds of µops back — outside
          any realistic ROB window, so they never serialize execution *)
  dep2_prob : float;  (** probability of a second source operand *)
  load_dep_prob : float;
      (** probability a load's address depends on the previous load
          (pointer chasing): creates inter-load dependences and LLC-hit
          chains (§4.8) *)
  chain_prob : float;
      (** probability a compute µop joins one of the accumulator chains,
          extending the critical path *)
  n_chains : int;
  body_size : int;  (** static instructions per loop body (I-footprint) *)
  n_bodies : int;  (** distinct loop bodies; bodies execute in bursts *)
  body_burst : int;  (** dynamic instructions before switching bodies *)
  load_groups : load_group array;
  store_footprint_bytes : int;
  branch_groups : branch_group array;
}

type t = {
  wname : string;
  phase_length : int;
      (** dynamic instructions per phase before moving to the next
          (phases cycle) *)
  phases : phase array;
}

val default_phase : phase
(** A balanced general-purpose phase; benchmark definitions override
    fields of this record. *)

val validate : t -> (unit, string) result
(** Checks weights are positive, footprints sane, phases non-empty. *)
