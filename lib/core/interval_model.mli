(** The micro-architecture independent interval model (Eq 3.1).

    [predict] turns one application profile plus one micro-architecture
    into cycles, a CPI stack, and the activity factors the power model
    needs — in microseconds, which is what makes design-space exploration
    with a single profile possible (§2.6).

    Evaluation is per micro-trace by default (the TC'16 improvement:
    contention and memory burstiness only show at small time scales,
    §6.2.2/Fig 6.4); [`Combined] evaluates one averaged profile instead,
    reproducing the ISPASS'15 behaviour.

    The [options] record exposes every model component as a switch so the
    ablation experiments (Fig 3.7, Fig 4.3, Fig 4.9, Table 6.2) can
    enable them one at a time, and [overrides] lets measured
    (simulation-provided) inputs replace the statistical models — the
    "previously proposed interval model" baseline of §7.5. *)

type components = {
  c_base : float;  (** N / Deff cycles *)
  c_branch : float;
  c_icache : float;
  c_llc_hit : float;  (** chained-LLC-hit penalty *)
  c_dram : float;
}

val components_total : components -> float

val keyed_components : components -> Cpi_stack.t
(** The canonical keyed view; diffable against a simulator stack by
    {!Cpi_stack.component} instead of positional label lists. *)

val components_list : components -> (string * float) list
(** [Cpi_stack.labeled_alist] of [keyed_components] — kept for printing. *)

(** Measured inputs that replace the statistical models when present. *)
type overrides = {
  ov_branch_missrate : float option;  (** mispredictions per branch *)
  ov_load_miss_ratios : (float * float * float) option;
      (** per-load L1/L2/L3 miss probabilities *)
  ov_store_miss_ratios : (float * float * float) option;
  ov_inst_miss_ratios : (float * float * float) option;
      (** per-instruction I-side miss probabilities *)
  ov_mlp : float option;
}

val no_overrides : overrides

type options = {
  combine : [ `Separate | `Combined ];
  mlp_model : [ `Cold | `Stride ];
  branch_missrate : entropy:float -> float;
      (** the trained entropy model (§3.5); default 0.5 * entropy, the
          theoretical ideal-predictor limit *)
  use_uops : bool;  (** false: count instructions, not micro-ops (§3.2) *)
  use_critical_path : bool;  (** Little's-law dispatch limit (§3.3) *)
  use_port_contention : bool;  (** port/FU limits (§3.4) *)
  model_mlp : bool;  (** false: serialize DRAM accesses (Fig 4.3) *)
  model_mshr : bool;
  model_bus : bool;
  model_llc_chain : bool;
  model_prefetch : bool;  (** honoured only with the stride MLP model *)
  overrides : overrides;
}

val default_options : options

type prediction = {
  pr_workload : string;
  pr_uarch : string;
  pr_cycles : float;
  pr_instructions : float;
  pr_uops : float;
  pr_components : components;
  pr_mlp : float;  (** DRAM-miss-weighted average MLP *)
  pr_branch_mispredicts : float;
  pr_load_misses : float * float * float;  (** L1 / L2 / L3 counts *)
  pr_dram_loads : float;  (** after prefetch coverage *)
  pr_limits : Dispatch_model.limits;  (** micro-op-weighted averages *)
  pr_time_series : (int * float) array;  (** (instruction, micro-trace CPI) *)
  pr_activity : Power.activity;
}

val cpi : prediction -> float

val cpi_stack : prediction -> Cpi_stack.t
(** The predicted CPI stack per instruction: [keyed_components] scaled
    by [1 / pr_instructions] (all-zero when no instructions ran). *)

val dram_wait_cpi : prediction -> float

val predict : ?options:options -> Uarch.t -> Profile.t -> prediction
(** Safe to call from several domains on one profile once it is
    {!Profile.prepare}d.  Config-dependent partial results are memoized in
    the profile ({!Profile.model_memo}), so the result never depends on
    what was predicted before. *)

val timing_key : Uarch.t -> Uarch.t
(** The part of a config {!predict} depends on: the config with [name]
    and [operating_point] normalised.  Two configs with equal keys get
    predictions that are bit-identical in every field but [pr_uarch] —
    the model counts time in core cycles, so frequency and voltage only
    reach the power, seconds and energy terms.  The sweep engines reuse
    one prediction across a run of configs with equal keys. *)

val same_timing : Uarch.t -> Uarch.t -> bool
(** [same_timing u v] is [timing_key u = timing_key v], compared field by
    field (physically first) without building either key: the sweep
    engines' per-point reuse test. *)

val options_key : options -> Profile.t -> string
(** Everything {!predict} reads from [options] when predicting for this
    profile, as a string: every data field, and [branch_missrate] at the
    profile's branch entropy (the only point it is evaluated at).  Two
    option sets with equal keys predict alike on the profile; the sweep
    engines digest the key into their checkpoint headers. *)
