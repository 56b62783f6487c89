(** Cycle-level out-of-order reference simulator.

    The Sniper stand-in: the ground truth the analytical model is
    validated against (§6.1) and the slow tool it is meant to replace.
    Models: a front-end with branch-misprediction redirect and refill and
    I-cache stalls; dispatch of [D] micro-ops/cycle into ROB and issue
    queue; dependence-driven issue through issue ports and (non-)pipelined
    functional units (Fig 3.5); a three-level LRU hierarchy; L1D MSHRs
    bounding outstanding misses; a shared memory bus serializing DRAM line
    transfers; an optional per-PC stride prefetcher; in-order commit.

    Wrong-path work is not simulated: a mispredicted branch blocks
    dispatch until it resolves, then pays the front-end refill — the
    interval-analysis notion of an "effective IPC of zero" on the wrong
    path (§2.5.2). *)

type ideal = {
  no_branch_miss : bool;  (** oracle branch prediction *)
  no_icache_miss : bool;  (** instructions always hit the L1I *)
  no_dcache_miss : bool;  (** loads always hit the L1D *)
}

val real : ideal
(** No idealization. *)

val perfect : ideal
(** All three idealizations: the miss-free machine of Fig 3.7. *)

val run :
  ?ideal:ideal ->
  ?time_series_interval:int ->
  Uarch.t ->
  Workload_spec.t ->
  seed:int ->
  n_instructions:int ->
  Sim_result.t
(** Simulate [n_instructions] instructions of the workload from a fresh
    (cold) machine state.  [time_series_interval] (default 10_000
    instructions) sets the CPI-trace granularity.  Memory is bounded for
    any [n_instructions]: the stream is generated a chunk at a time. *)

val run_stream :
  ?ideal:ideal -> ?time_series_interval:int -> Uarch.t -> Uop_stream.t -> Sim_result.t
(** [run] over a recorded stream, bit-identical to it.  The stream is only
    read, so one recording serves any number of runs and domains. *)

val replay : Uop_stream.t -> Uarch.t array -> int -> Sim_result.t
(** [replay stream configs] is [fun i -> run_stream configs.(i) stream],
    field for field, for calls in any order from any domains.  Configs
    equal but for name and L3 size share one run, physically, when the
    smaller L3's run never re-fetched a line ({!Hierarchy.l3_refetched}). *)

val run_shared :
  ?ideal:ideal ->
  ?time_series_interval:int ->
  Uarch.t ->
  (Workload_spec.t * int) list ->
  n_instructions:int ->
  Sim_result.t list
(** Multi-core multiprogrammed simulation (the thesis' §8.2.1 extension):
    one core per [(workload, seed)] pair, each with the private L1/L2 of
    the configuration, all sharing one LLC and one memory bus, on a
    single clock.  Every core runs [n_instructions] instructions; a
    core's result reports the cycle at which {e it} finished (cores that
    finish early idle while the rest complete).  Comparing each result
    with a solo {!run} of the same workload gives the sharing slowdown. *)
