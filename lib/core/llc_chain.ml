let chain_heads (mt : Profile.microtrace) =
  if Histogram.is_empty mt.mt_load_depth then 1.0
  else Float.max 0.05 (Histogram.frequency mt.mt_load_depth 1)

let penalty ~chain_heads:f1 ~(mt : Profile.microtrace) ~(uarch : Uarch.t)
    ~llc_hit_rate ~load_fraction ~effective_dispatch_rate =
  if llc_hit_rate <= 0.0 || load_fraction <= 0.0 then 0.0
  else begin
    let rob = float_of_int uarch.core.rob_size in
    let l_bar = load_fraction *. rob in
    let h_llc = llc_hit_rate *. l_bar in
    let p_load = Float.max 1.0 (l_bar *. f1) in
    let lop = 1.0 /. f1 in
    (* Eq 4.7-4.9: expected longest chain of LLC hits on one path. *)
    let lhc_avg = h_llc /. p_load in
    let lhc_max = Float.min h_llc lop in
    let lhc_exp = lhc_avg +. ((lhc_max -. lhc_avg) /. p_load) in
    if lhc_exp <= 0.0 then 0.0
    else begin
      (* Eq 4.10-4.11: pay the chain latency beyond what the ROB hides. *)
      let c_llc = float_of_int uarch.caches.l3.latency in
      let p_window =
        Float.max 0.0
          ((c_llc *. lhc_exp) -. (rob /. Float.max 0.1 effective_dispatch_rate))
      in
      (* Eq 4.12: once per ROB-sized window. *)
      p_window *. (float_of_int mt.mt_uops /. rob)
    end
  end
