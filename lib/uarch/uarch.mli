(** Micro-architecture configuration.

    Everything the analytical model and the reference simulator need to know
    about a processor design point: pipeline widths and depths, issue ports
    and functional units (Fig 3.5), the cache hierarchy, MSHRs, the memory
    bus, the branch predictor, the stride prefetcher and the DVFS operating
    point.  [reference] reproduces the Nehalem-based configuration of
    Table 6.1 and [design_space] the 3^5 = 243-point space of Table 6.3. *)

type cache_level = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
  latency : int;  (** load-to-use latency in cycles when hitting here *)
}

type caches = {
  l1i : cache_level;
  l1d : cache_level;
  l2 : cache_level;
  l3 : cache_level;  (** the LLC *)
}

type predictor_kind = Gag | Gap | Pap | Gshare | Tournament

val predictor_kind_to_string : predictor_kind -> string
val all_predictor_kinds : predictor_kind list

type branch_predictor = {
  kind : predictor_kind;
  history_bits : int;  (** global/local history register length *)
  table_bits : int;  (** log2 of pattern-history-table entries *)
}

type functional_unit = {
  serves : Isa.uop_class;
  unit_count : int;
  unit_latency : int;  (** execution latency in cycles *)
  pipelined : bool;
  usable_ports : int list;  (** issue ports this unit class can issue from *)
}

type core = {
  dispatch_width : int;  (** D: micro-ops dispatched per cycle *)
  rob_size : int;
  issue_queue_size : int;
  frontend_depth : int;  (** front-end refill time c_fe in cycles (§2.5.2) *)
  n_ports : int;
  functional_units : functional_unit list;
  mshr_entries : int;  (** L1D miss-status handling registers (§4.6) *)
}

type memory = {
  dram_latency : int;  (** c_mem: LLC-miss to data-return, in core cycles *)
  bus_transfer : int;  (** c_transfer: cycles one line occupies the bus *)
  dram_page_bytes : int;  (** prefetches do not cross this boundary (§4.9) *)
}

type prefetcher_kind =
  | Pf_stride  (** per-PC stride detection (§4.9, the modeled prefetcher) *)
  | Pf_next_line  (** always fetch the adjacent line (baseline comparator) *)

type prefetcher = {
  pf_enabled : bool;
  pf_kind : prefetcher_kind;
  pf_table_entries : int;  (** static loads the stride table can track *)
}

type dvfs = {
  freq_ghz : float;
  vdd : float;  (** supply voltage in volts *)
}

type t = {
  name : string;
  core : core;
  caches : caches;
  predictor : branch_predictor;
  memory : memory;
  prefetcher : prefetcher;
  operating_point : dvfs;
}

val make_core : dispatch_width:int -> rob_size:int -> core
(** A core scaled to the given width and ROB: issue queue at ROB/2
    (min 16), 5-deep frontend, ports and functional units from the
    width (shared physical unit lists, so generated configs of equal
    width compare physically equal on [functional_units]). *)

val make_caches : l1_kb:int -> l2_kb:int -> l3_mb:int -> caches
(** The reference hierarchy's associativities and latencies with the
    given capacities (64-byte lines throughout). *)

val reference : t
(** Nehalem-like reference architecture (Table 6.1): 4-wide dispatch,
    128-entry ROB, 32 KB L1s, 256 KB L2, 8 MB L3, 6 issue ports, 10 MSHRs,
    2.66 GHz @ 0.9 V. *)

val low_power : t
(** A narrow, small-structure design used by the phase-analysis experiment
    (Fig 6.13): 2-wide, 32-entry ROB, halved caches, 1.33 GHz @ 0.75 V. *)

val design_space : t list
(** The 243-point design space of Table 6.3: dispatch width {2,4,6} x ROB
    {64,128,256} x L1 {16,32,64 KB} x L2 {128,256,512 KB} x L3 {2,4,8 MB}.
    Issue-queue size and port/functional-unit counts scale with the
    dispatch width; all other parameters follow [reference]. *)

val design_space_grid : (string * int list) list
(** Axis label and the three values per axis, in [design_space] order
    (width outermost, L3 fastest). *)

val design_space_axes : (string * string list) list
(** [design_space_grid] as text — the rows of Table 6.3. *)

val design_point : width:int -> rob:int -> l1_kb:int -> l2_kb:int -> l3_mb:int -> t
(** One Table 6.3 point, named like ["w4-rob128-l1_32k-l2_256k-l3_8m"]:
    [reference] with the given core and cache sizes. *)

val of_name : string -> (t, Fault.t) result
(** Look up a configuration by user-supplied name: ["reference"],
    ["low-power"], or a design-space point name like
    ["w4-rob128-l1_32k-l2_256k-l3_8m"].  Unknown names are a
    [Fault.Bad_input] listing the accepted forms. *)

val with_dvfs : t -> freq_ghz:float -> vdd:float -> t
val dvfs_points : (float * float) list
(** The (frequency GHz, Vdd) DVFS settings of Table 7.2. *)

val with_rob : t -> int -> t
val with_prefetcher : t -> bool -> t

val with_prefetcher_kind : t -> prefetcher_kind -> t
(** Enables the prefetcher and sets its kind. *)

val with_predictor : t -> predictor_kind -> t

val functional_unit_for : core -> Isa.uop_class -> functional_unit
(** Raises [Not_found] if the class has no unit — never happens for cores
    built by this module. *)

val uop_latency : t -> Isa.uop_class -> int
(** Execution latency of a class on this core; loads get the L1D hit
    latency. *)

val rob_fill_time : t -> float
(** ROB size / dispatch width: the latency an out-of-order core can hide
    (§4.8). *)

val describe : t -> (string * string) list
(** Human-readable parameter listing (used to print Table 6.1). *)
