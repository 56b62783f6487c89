type chain_stats = {
  rob_sizes : int array;
  ap : float array;
  abp : float array;
  cp : float array;
  abp_windows : int array;
}

let chain_array cs ~which =
  match which with `Ap -> cs.ap | `Abp -> cs.abp | `Cp -> cs.cp

let chain_at cs ~which rob =
  if rob <= 0 then invalid_arg "Profile.chain_at: rob must be positive";
  let values = chain_array cs ~which in
  let sizes = cs.rob_sizes in
  let n = Array.length sizes in
  if n = 0 then 0.0
  else if n = 1 then values.(0)
  else begin
    (* Piecewise log interpolation between adjacent profiled sizes (§5.2);
       clamp to the end segments outside the profiled range.  Below the
       smallest profiled size the end segment's log fit can fall under 1
       (or below 0), but a dependence path includes at least the µop
       itself. *)
    let rec find i = if i >= n - 2 || sizes.(i + 1) >= rob then i else find (i + 1) in
    let i = if rob <= sizes.(0) then 0 else find 0 in
    Float.max 1.0
      (Fit.interpolate_log
         (float_of_int sizes.(i), values.(i))
         (float_of_int sizes.(i + 1), values.(i + 1))
         (float_of_int rob))
  end

type cold_stats = {
  cold_rob_sizes : int array;
  cold_windows : int array;
  cold_windows_hit : int array;
  cold_total : int array;
}

type static_load = {
  sl_static_id : int;
  sl_first_pos : int;
  sl_count : int;
  sl_spacing : Histogram.t;
  sl_strides : Histogram.t;
  sl_reuse : Histogram.t;
  sl_cold : int;
  sl_stack : Statstack.t Lazy.t;
}

type microtrace = {
  mt_index : int;
  mt_start_instruction : int;
  mt_instructions : int;
  mt_uops : int;
  mt_mix : Isa.Class_counts.t;
  mt_chains : chain_stats;
  mt_load_depth : Histogram.t;
  mt_reuse_load : Histogram.t;
  mt_reuse_store : Histogram.t;
  mt_mem_samples : int;
  mt_mem_cold : int;
  mt_store_cold : int;
  mt_cold : cold_stats;
  mt_static_loads : static_load list;
  mt_branches : int;
}

type stacks = {
  inst_stack : Statstack.t;
  load_stacks : Statstack.t array;
  store_stacks : Statstack.t array;
}

type model_memo = ..

(* Each cell is written once, under [lock]; readers take no lock. *)
type derived = {
  lock : Mutex.t;
  stacks : stacks option Atomic.t;
  memo : model_memo option Atomic.t;
}

let fresh_derived () =
  { lock = Mutex.create (); stacks = Atomic.make None; memo = Atomic.make None }

type t = {
  p_workload : string;
  p_window_instructions : int;
  p_microtrace_instructions : int;
  p_total_instructions : int;
  p_line_bytes : int;
  p_microtraces : microtrace array;
  p_entropy : float;
  p_branch_fraction : float;
  p_uops_per_instruction : float;
  p_reuse_inst : Histogram.t;
  p_inst_cold_fraction : float;
  p_inst_samples : int;
  p_data_accesses : int;
  p_data_cold : int;
  p_derived : derived;
}

let total_mix t =
  Array.fold_left
    (fun acc mt -> Isa.Class_counts.merge acc mt.mt_mix)
    (Isa.Class_counts.create ())
    t.p_microtraces

let mean_chain t ~which ~rob =
  let sum = ref 0.0 and weight = ref 0 in
  Array.iter
    (fun mt ->
      sum := !sum +. (float_of_int mt.mt_uops *. chain_at mt.mt_chains ~which rob);
      weight := !weight + mt.mt_uops)
    t.p_microtraces;
  if !weight = 0 then 0.0 else !sum /. float_of_int !weight

let combine select_hist select_cold t =
  let hist = Histogram.create () in
  let cold = ref 0 and samples = ref 0 in
  Array.iter
    (fun mt ->
      List.iter
        (fun h -> Histogram.iter h (fun k c -> Histogram.add hist ~count:c k))
        (select_hist mt);
      let c, s = select_cold mt in
      cold := !cold + c;
      samples := !samples + s)
    t.p_microtraces;
  let cold_fraction =
    if !samples = 0 then 0.0 else float_of_int !cold /. float_of_int !samples
  in
  (hist, cold_fraction)

let combined_reuse_load =
  combine
    (fun mt -> [ mt.mt_reuse_load ])
    (fun mt ->
      (* Load-side cold touches approximated by total cold minus store cold. *)
      (max 0 (mt.mt_mem_cold - mt.mt_store_cold),
       Histogram.total mt.mt_reuse_load + max 0 (mt.mt_mem_cold - mt.mt_store_cold)))

let combined_reuse_store =
  combine
    (fun mt -> [ mt.mt_reuse_store ])
    (fun mt -> (mt.mt_store_cold, Histogram.total mt.mt_reuse_store + mt.mt_store_cold))

let combined_reuse_all =
  combine
    (fun mt -> [ mt.mt_reuse_load; mt.mt_reuse_store ])
    (fun mt -> (mt.mt_mem_cold, mt.mt_mem_samples))

let cold_miss_rate t =
  let cold = ref 0 and samples = ref 0 in
  Array.iter
    (fun mt ->
      cold := !cold + mt.mt_mem_cold;
      samples := !samples + mt.mt_mem_samples)
    t.p_microtraces;
  if !samples = 0 then 0.0 else float_of_int !cold /. float_of_int !samples

let cold_correction t =
  let sampled = cold_miss_rate t in
  if sampled <= 0.0 || t.p_data_accesses = 0 then 1.0
  else begin
    let exact = float_of_int t.p_data_cold /. float_of_int t.p_data_accesses in
    Float.min 2.0 (exact /. sampled)
  end

(* ---- Invariant validation (run after load, before sweeps) ---- *)

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Some m) fmt in
  let check_finite name v =
    if Float.is_finite v then None else err "%s is not finite (%h)" name v
  in
  let check_nonneg name v = if v >= 0 then None else err "%s is negative (%d)" name v in
  let check_fraction name v =
    if Float.is_finite v && v >= 0.0 && v <= 1.0 then None
    else err "%s outside [0,1] (%h)" name v
  in
  let first_error checks = List.find_map (fun c -> c) checks in
  let chain_ok (mt : microtrace) =
    let cs = mt.mt_chains in
    let n = Array.length cs.rob_sizes in
    if Array.length cs.ap <> n || Array.length cs.abp <> n || Array.length cs.cp <> n
       || Array.length cs.abp_windows <> n
    then err "microtrace %d: chain arrays disagree with rob_sizes" mt.mt_index
    else if
      Array.exists (fun v -> not (Float.is_finite v) || v < 0.0) cs.ap
      || Array.exists (fun v -> not (Float.is_finite v) || v < 0.0) cs.abp
      || Array.exists (fun v -> not (Float.is_finite v) || v < 0.0) cs.cp
    then err "microtrace %d: non-finite or negative chain length" mt.mt_index
    else None
  in
  let cold_ok (mt : microtrace) =
    let c = mt.mt_cold in
    let n = Array.length c.cold_rob_sizes in
    if Array.length c.cold_windows <> n || Array.length c.cold_windows_hit <> n
       || Array.length c.cold_total <> n
    then err "microtrace %d: cold-stat arrays disagree with cold_rob_sizes" mt.mt_index
    else None
  in
  let static_ok (mt : microtrace) =
    List.find_map
      (fun sl ->
        if sl.sl_count < 0 || sl.sl_cold < 0 then
          err "microtrace %d: static load %d has negative counters" mt.mt_index
            sl.sl_static_id
        else if sl.sl_cold > sl.sl_count then
          err "microtrace %d: static load %d has more cold touches (%d) than accesses (%d)"
            mt.mt_index sl.sl_static_id sl.sl_cold sl.sl_count
        else None)
      mt.mt_static_loads
  in
  let microtrace_ok i (mt : microtrace) =
    if mt.mt_index <> i then
      err "microtrace index %d at position %d (indices must be contiguous)" mt.mt_index i
    else
      first_error
        [
          check_nonneg (Printf.sprintf "microtrace %d: instructions" i) mt.mt_instructions;
          check_nonneg (Printf.sprintf "microtrace %d: uops" i) mt.mt_uops;
          check_nonneg (Printf.sprintf "microtrace %d: branches" i) mt.mt_branches;
          check_nonneg (Printf.sprintf "microtrace %d: mem_samples" i) mt.mt_mem_samples;
          check_nonneg (Printf.sprintf "microtrace %d: mem_cold" i) mt.mt_mem_cold;
          check_nonneg (Printf.sprintf "microtrace %d: store_cold" i) mt.mt_store_cold;
          (if mt.mt_store_cold > mt.mt_mem_cold then
             err "microtrace %d: store_cold (%d) exceeds mem_cold (%d)" i
               mt.mt_store_cold mt.mt_mem_cold
           else None);
          (let mass =
             Histogram.total mt.mt_reuse_load + Histogram.total mt.mt_reuse_store
             + mt.mt_mem_cold
           in
           if mass <> mt.mt_mem_samples then
             err "microtrace %d: reuse mass %d + cold %d inconsistent with %d samples" i
               (mass - mt.mt_mem_cold) mt.mt_mem_cold mt.mt_mem_samples
           else None);
          chain_ok mt;
          cold_ok mt;
          static_ok mt;
        ]
  in
  let problem =
    first_error
      [
        (if t.p_window_instructions <= 0 then err "window_instructions must be positive"
         else None);
        (if t.p_microtrace_instructions <= 0 then
           err "microtrace_instructions must be positive"
         else None);
        (if t.p_line_bytes <= 0 then err "line_bytes must be positive" else None);
        check_nonneg "total_instructions" t.p_total_instructions;
        check_nonneg "inst_samples" t.p_inst_samples;
        check_nonneg "data_accesses" t.p_data_accesses;
        check_nonneg "data_cold" t.p_data_cold;
        (if t.p_data_cold > t.p_data_accesses then
           err "data_cold (%d) exceeds data_accesses (%d)" t.p_data_cold t.p_data_accesses
         else None);
        check_finite "entropy" t.p_entropy;
        (if t.p_entropy < 0.0 then err "entropy is negative (%h)" t.p_entropy else None);
        check_fraction "branch_fraction" t.p_branch_fraction;
        check_fraction "inst_cold_fraction" t.p_inst_cold_fraction;
        check_finite "uops_per_instruction" t.p_uops_per_instruction;
        (if t.p_uops_per_instruction < 0.0 then
           err "uops_per_instruction is negative (%h)" t.p_uops_per_instruction
         else None);
        (let rec scan i =
           if i >= Array.length t.p_microtraces then None
           else
             match microtrace_ok i t.p_microtraces.(i) with
             | Some _ as e -> e
             | None -> scan (i + 1)
         in
         scan 0);
      ]
  in
  match problem with
  | None -> Ok ()
  | Some message ->
    Error (Fault.bad_input ~context:("profile " ^ t.p_workload) message)

(* ---- Derived model state ----

   Reuse histograms are frozen once profiling ends and are independent of
   the micro-architecture, so the survival structures StatStack derives
   from them are per-profile artifacts: a design-space sweep over N
   configs must build them once, not N times.  The profile keeps them,
   like the per-static-load [sl_stack] lazies, so they go away with it. *)

(* Sampled cold counts rescaled to the true whole-stream rate; the
   fraction feeds the StatStack structure and is config-independent. *)
let load_cold_fraction t (mt : microtrace) =
  let cold_loads =
    cold_correction t *. float_of_int (max 0 (mt.mt_mem_cold - mt.mt_store_cold))
  in
  let reused = float_of_int (Histogram.total mt.mt_reuse_load) in
  if reused +. cold_loads <= 0.0 then 0.0 else cold_loads /. (reused +. cold_loads)

let store_cold_fraction t (mt : microtrace) =
  let cold_stores = cold_correction t *. float_of_int mt.mt_store_cold in
  let reused = float_of_int (Histogram.total mt.mt_reuse_store) in
  if reused +. cold_stores <= 0.0 then 0.0
  else cold_stores /. (reused +. cold_stores)

(* The value of a write-once cell, built by the first caller; a racing
   caller waits on the lock instead of building a second copy. *)
let once t cell build =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    Mutex.protect t.p_derived.lock (fun () ->
        match Atomic.get cell with
        | Some v -> v
        | None ->
          let v = build () in
          Atomic.set cell (Some v);
          v)

let stacks t =
  once t t.p_derived.stacks (fun () ->
      let stack cold_fraction h = Statstack.of_reuse_histogram ~cold_fraction h in
      {
        inst_stack = stack t.p_inst_cold_fraction t.p_reuse_inst;
        load_stacks =
          Array.map (fun mt -> stack (load_cold_fraction t mt) mt.mt_reuse_load)
            t.p_microtraces;
        store_stacks =
          Array.map (fun mt -> stack (store_cold_fraction t mt) mt.mt_reuse_store)
            t.p_microtraces;
      })

let model_memo t create = once t t.p_derived.memo create

let prepare t =
  ignore (stacks t : stacks);
  Array.iter
    (fun mt ->
      List.iter
        (fun sl ->
          (* A first [Lazy.force] racing across domains raises
             [Lazy.Undefined]; forcing here makes later parallel forces
             plain reads.  The spacing histogram's sorted view is the
             sequence the stride-MLP stream replays. *)
          ignore (Lazy.force sl.sl_stack : Statstack.t);
          ignore (Histogram.to_sorted_list sl.sl_spacing : (int * int) list))
        mt.mt_static_loads)
    t.p_microtraces

let clear_stack_memo () = ()
