(** The micro-architecture independent application profile.

    Everything the analytical model consumes, collected in one profiling
    pass (§2.6, Fig 2.6).  Statistics are kept per *micro-trace* — a short
    contiguous burst of instructions sampled once per window (Fig 5.1) —
    because contention and memory burstiness only show at small time
    scales; the model evaluates each micro-trace separately and combines
    the predictions (§6.2, Fig 6.4).

    A profile also owns the model state derived from it: the StatStack
    survival structures ([stacks], the per-static-load [sl_stack]s), built
    once by [prepare], and the model layer's memo of config-dependent
    results ([model_memo]).  Nothing of it is kept anywhere else, so it
    goes away with the profile. *)

type chain_stats = {
  rob_sizes : int array;  (** profiled ROB sizes, ascending *)
  ap : float array;  (** average dependence path per ROB size (Alg 3.1) *)
  abp : float array;  (** average branch path *)
  cp : float array;  (** critical path *)
  abp_windows : int array;  (** windows containing a branch, per ROB size *)
}

val chain_at : chain_stats -> which:[ `Ap | `Abp | `Cp ] -> int -> float
(** Chain length for an arbitrary ROB size by piecewise logarithmic
    interpolation between profiled sizes (Eq 5.2-5.4); clamps outside the
    profiled range using the two nearest sizes.  With two or more profiled
    sizes the result is at least 1.0: a path includes the µop itself. *)

type cold_stats = {
  cold_rob_sizes : int array;
  cold_windows : int array;  (** stepped windows examined, per ROB size *)
  cold_windows_hit : int array;  (** windows containing >= 1 cold miss *)
  cold_total : int array;  (** total cold misses across windows *)
}

(** Per-static-load distributions inside one micro-trace (§4.5). *)
type static_load = {
  sl_static_id : int;
  sl_first_pos : int;  (** micro-op position of the first occurrence *)
  sl_count : int;  (** dynamic occurrences in the micro-trace *)
  sl_spacing : Histogram.t;  (** micro-ops between recurrences *)
  sl_strides : Histogram.t;  (** address deltas between recurrences *)
  sl_reuse : Histogram.t;  (** reuse distances of its accesses *)
  sl_cold : int;  (** accesses that were first touches of their line *)
  sl_stack : Statstack.t Lazy.t;
      (** StatStack over [sl_reuse] with the load's own cold fraction;
          lazy and shared across design points, since the reuse
          distribution is micro-architecture independent *)
}

type microtrace = {
  mt_index : int;
  mt_start_instruction : int;  (** global instruction number at the start *)
  mt_instructions : int;
  mt_uops : int;
  mt_mix : Isa.Class_counts.t;
  mt_chains : chain_stats;
  mt_load_depth : Histogram.t;
      (** f(l): dynamic loads at depth l of a load-only dependence chain
          within a max-ROB window (Fig 4.5) *)
  mt_reuse_load : Histogram.t;  (** data reuse distances, load accesses *)
  mt_reuse_store : Histogram.t;
  mt_mem_samples : int;  (** memory accesses sampled for reuse distances *)
  mt_mem_cold : int;  (** of which first touches *)
  mt_store_cold : int;  (** first touches among stores *)
  mt_cold : cold_stats;
  mt_static_loads : static_load list;
  mt_branches : int;  (** dynamic branch micro-ops *)
}

type derived
(** The mutable home of a profile's derived model state (see [stacks] and
    [model_memo]).  A copy made with [{ t with ... }] shares it, so only
    copy a profile to change fields that state does not read. *)

val fresh_derived : unit -> derived
(** Empty derived state, for building a [t]. *)

type t = {
  p_workload : string;
  p_window_instructions : int;
  p_microtrace_instructions : int;
  p_total_instructions : int;  (** instructions spanned (incl. skipped) *)
  p_line_bytes : int;
  p_microtraces : microtrace array;
  p_entropy : float;  (** linear branch entropy, whole run (Eq 3.15) *)
  p_branch_fraction : float;  (** branch µops / all µops, whole-run sample *)
  p_uops_per_instruction : float;
  p_reuse_inst : Histogram.t;  (** I-stream reuse distances (line grain) *)
  p_inst_cold_fraction : float;
      (** exact whole-stream rate: first-touch instruction lines per
          instruction (cold I-misses are one-time events, so the sampled
          in-trace rate would overstate them by the sampling factor) *)
  p_inst_samples : int;
  p_data_accesses : int;  (** whole-stream memory accesses (not sampled) *)
  p_data_cold : int;  (** whole-stream first-touch data lines *)
  p_derived : derived;
}

val total_mix : t -> Isa.Class_counts.t
(** Aggregate micro-op mix over all micro-traces. *)

val mean_chain : t -> which:[ `Ap | `Abp | `Cp ] -> rob:int -> float
(** Micro-trace-weighted average chain length at one ROB size. *)

val combined_reuse_load : t -> Histogram.t * float
(** Aggregated load reuse histogram and cold fraction over the whole
    profile — the "combined" evaluation mode of Fig 6.4. *)

val combined_reuse_all : t -> Histogram.t * float
(** Loads and stores together (for the unified L2/L3 contents). *)

val combined_reuse_store : t -> Histogram.t * float

val cold_miss_rate : t -> float
(** Fraction of sampled memory accesses that were first touches. *)

val cold_correction : t -> float
(** Exact whole-stream cold rate divided by the sampled in-trace rate.
    Sampling can over-represent one-time cold bursts (they cluster at
    micro-trace starts); multiplying sampled cold counts by this factor
    restores the true totals. *)

val validate : t -> (unit, Fault.t) result
(** Invariant pass over a profile: counters non-negative and mutually
    consistent (cold counts bounded by samples, reuse-histogram mass plus
    cold touches equal to the sampled accesses), reuse distances
    non-negative, scalars finite and fractions in [0,1], chain/cold
    arrays shaped by their ROB-size axes, micro-trace indices contiguous
    from 0.  Run by [Profile_io] after
    every load and by the sweep engine before fanning out, so corrupt or
    hand-edited profiles are rejected with a structured [Fault.Bad_input]
    instead of poisoning an evaluation. *)

(** {2 Derived model state}

    Reuse histograms are micro-architecture independent and frozen after
    profiling, so the survival structures StatStack derives from them are
    per-profile artifacts: a design-space sweep over N configs builds each
    one once, not N times.  They are built on first use, or all at once by
    [prepare], and kept in the profile. *)

val load_cold_fraction : t -> microtrace -> float
(** Whole-stream-corrected fraction of the micro-trace's load accesses
    that were first touches of their line (cold). *)

val store_cold_fraction : t -> microtrace -> float

type stacks = {
  inst_stack : Statstack.t;  (** over [p_reuse_inst], [p_inst_cold_fraction] *)
  load_stacks : Statstack.t array;
      (** per micro-trace (by [mt_index]): over [mt_reuse_load] with
          [load_cold_fraction] *)
  store_stacks : Statstack.t array;  (** likewise for stores *)
}

val stacks : t -> stacks
(** The profile's StatStack structures, built once (the first caller
    builds them, racing domains wait) and read without a lock after. *)

type model_memo = ..
(** Config-dependent results the model layer memoizes for this profile
    ([Interval_model]); extensible because that layer is built on this
    one. *)

val model_memo : t -> (unit -> model_memo) -> model_memo
(** [model_memo t create] is the profile's memo, made by [create] on
    first use; lock-free after that. *)

val prepare : t -> unit
(** Build every config-independent structure of this profile — [stacks],
    the per-static-load [sl_stack] lazies and the sorted views of the
    static loads' spacing histograms that the stride-MLP stream replays —
    so that a subsequent Domain-parallel sweep only reads them.
    Idempotent; [Sweep.model_sweep] calls it before fanning out. *)

val clear_stack_memo : unit -> unit
(** Does nothing: derived state belongs to its profile and goes with it.
    Kept only because the benchmark harness in [perfbench/] still calls
    it; to be deleted with the next change to that harness. *)
