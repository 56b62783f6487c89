(** Inclusive three-level data/instruction cache hierarchy (functional).

    Accesses walk L1→L2→L3; on a miss at every level the line is filled
    everywhere on the way back (inclusive hierarchy, the configuration
    StatStack's per-level independence assumption models, §4.2). *)

type t

type level = L1 | L2 | L3 | Dram

type l3
(** An L3 with the record of the lines ever filled into it, which tells
    its cold misses from its capacity ones. *)

val create : ?shared_l3:l3 -> Uarch.caches -> t
(** [create caches] builds a private hierarchy; passing [shared_l3] makes
    this hierarchy use an existing L3 instead of its own — the multi-core
    configuration where cores share the LLC.  Per-level statistics stay
    per-hierarchy (i.e. per core) either way; an L3 miss is cold when no
    core sharing the L3 has filled the line before.  Raises
    [Invalid_argument] unless every level has the same line size. *)

val make_l3 : Uarch.caches -> l3
(** A standalone L3 suitable for [shared_l3]. *)

val access_data : t -> int -> write:bool -> level
(** Hit level of a data access ([Dram] = missed the LLC).  Updates LRU
    state and per-level, per-type (load/store) and cold/capacity miss
    counters. *)

val access_inst : t -> int -> level
(** Instruction-side access against the L1I, then the shared L2/L3. *)

val prefetch_fill : t -> int -> unit
(** Install a line into L2 and L3 (hardware prefetch; prefetches skip the
    L1 to avoid polluting it). *)

val probe_llc : t -> int -> bool
(** Would this address hit somewhere on-chip? ([true] unless it would go
    to DRAM.) *)

val l3_refetched : t -> bool
(** Whether the L3 missed on a line filled into it before, or
    {!probe_llc} found the L3 without the line.  Until then, by LRU
    inclusion, an L3 with more (power-of-two) sets and the same ways
    would have answered every lookup the same way. *)

val data_latency : Uarch.caches -> level -> int
(** Load-to-use latency for a data access that hits at [level]; for
    [Dram] this is only the LLC-lookup component — DRAM latency and bus
    time are the simulator's timing concern. *)

type level_stats = {
  accesses : int;
  load_misses : int;
  store_misses : int;
  cold_load_misses : int;
  cold_store_misses : int;
}

val data_stats : t -> level -> level_stats
(** Per-level demand statistics ([Dram] is not a level; querying it
    raises [Invalid_argument]). *)

val inst_misses : t -> level -> int
(** Instruction misses at L1I / L2 / L3. *)
