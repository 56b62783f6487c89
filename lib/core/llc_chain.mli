(** Chained LLC-hit penalty (§4.8, Eq 4.7–4.12).

    Out-of-order execution hides load latencies shorter than the ROB fill
    time — except when several LLC hits sit on one dependence path: their
    latencies serialize and can exceed what the ROB can hide. *)

val chain_heads : Profile.microtrace -> float
(** f(1) of the micro-trace's load-depth distribution: the fraction of
    loads that head a load dependence chain, at least 0.05, and 1 when
    no load was recorded.  A per-micro-trace constant, which the model
    works out once per profile. *)

val penalty :
  chain_heads:float ->
  mt:Profile.microtrace ->
  uarch:Uarch.t ->
  llc_hit_rate:float ->
  load_fraction:float ->
  effective_dispatch_rate:float ->
  float
(** Total chained-LLC-hit cycles for the micro-trace's [mt_uops]
    micro-ops, with [chain_heads] the micro-trace's {!chain_heads}.
    [llc_hit_rate] is the probability a load hits in the LLC
    after missing L2 (i.e. m_L2 - m_L3 per load). *)
