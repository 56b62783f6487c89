(** The micro-architecture independent application profile.

    Everything the analytical model consumes, collected in one profiling
    pass (§2.6, Fig 2.6).  Statistics are kept per *micro-trace* — a short
    contiguous burst of instructions sampled once per window (Fig 5.1) —
    because contention and memory burstiness only show at small time
    scales; the model evaluates each micro-trace separately and combines
    the predictions (§6.2, Fig 6.4). *)

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
    profiled range using the two nearest sizes. *)

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
    cold touches equal to the sampled accesses), scalars finite and
    fractions in [0,1], chain/cold arrays shaped by their ROB-size axes,
    micro-trace indices contiguous from 0.  Run by [Profile_io] after
    every load and by the sweep engine before fanning out, so corrupt or
    hand-edited profiles are rejected with a structured [Fault.Bad_input]
    instead of poisoning an evaluation. *)

(** {2 Memoized StatStack structures}

    Reuse histograms are micro-architecture independent and frozen after
    profiling, so the survival structures StatStack derives from them are
    per-profile artifacts: a design-space sweep over N configs builds each
    one once, not N times.  Entries are memoized by histogram identity
    ([Histogram.id]) and cold fraction, mirroring the per-static-load
    [sl_stack] lazies; the table is mutex-protected for Domain-parallel
    sweeps. *)

val memo_stack : ?cold_fraction:float -> Histogram.t -> Statstack.t
(** [memo_stack ~cold_fraction h] is
    [Statstack.of_reuse_histogram ~cold_fraction h], built at most once
    per (histogram, cold fraction): repeated calls return the physically
    identical structure. *)

val load_cold_fraction : t -> microtrace -> float
(** Whole-stream-corrected fraction of the micro-trace's load accesses
    that were first touches of their line (cold). *)

val store_cold_fraction : t -> microtrace -> float

val load_stack : t -> microtrace -> Statstack.t
(** Memoized StatStack over the micro-trace's load reuse distances with
    [load_cold_fraction]. *)

val store_stack : t -> microtrace -> Statstack.t

val inst_stack : t -> Statstack.t
(** Memoized StatStack over the instruction-stream reuse distances. *)

(** Per-domain resolved view of a profile's memoized stacks.  [memo_stack]
    takes a mutex per lookup; the sweep inner loop instead resolves every
    stack reference once per domain into this record and reads it
    mutex-free.  Arrays are indexed by [mt_index]. *)
type hot = {
  hot_inst : Statstack.t;
  hot_load : Statstack.t array;
  hot_store : Statstack.t array;
}

val hot : t -> hot
(** The calling domain's cached resolved view of [t]'s stacks, built
    through [memo_stack] on first use (so construction counts are
    unchanged) and invalidated by [clear_stack_memo]. *)

val prepare : t -> unit
(** Build every config-independent StatStack structure of this profile —
    the per-microtrace load/store stacks, the instruction stack, and the
    per-static-load lazies — so that a subsequent Domain-parallel sweep
    only reads them.  Idempotent; [Sweep.model_sweep] calls it before
    fanning out. *)

val clear_stack_memo : unit -> unit
(** Drop all memoized stacks (they are rebuilt on demand).  For tests,
    benchmarks, and long-lived processes cycling through many profiles. *)
