type components = {
  c_base : float;
  c_branch : float;
  c_icache : float;
  c_llc_hit : float;
  c_dram : float;
}

let components_total c =
  c.c_base +. c.c_branch +. c.c_icache +. c.c_llc_hit +. c.c_dram

(* The keyed view is the canonical one: every printed or diffed stack
   goes through [Cpi_stack], so the labels cannot drift from the
   simulator's (they are the same enumeration). *)
let keyed_components c =
  Cpi_stack.of_values ~base:c.c_base ~branch:c.c_branch ~icache:c.c_icache
    ~llc_hit:c.c_llc_hit ~dram:c.c_dram

let components_list c = Cpi_stack.labeled_alist (keyed_components c)

type overrides = {
  ov_branch_missrate : float option;
  ov_load_miss_ratios : (float * float * float) option;
  ov_store_miss_ratios : (float * float * float) option;
  ov_inst_miss_ratios : (float * float * float) option;
  ov_mlp : float option;
}

let no_overrides =
  {
    ov_branch_missrate = None;
    ov_load_miss_ratios = None;
    ov_store_miss_ratios = None;
    ov_inst_miss_ratios = None;
    ov_mlp = None;
  }

type options = {
  combine : [ `Separate | `Combined ];
  mlp_model : [ `Cold | `Stride ];
  branch_missrate : entropy:float -> float;
  use_uops : bool;
  use_critical_path : bool;
  use_port_contention : bool;
  model_mlp : bool;
  model_mshr : bool;
  model_bus : bool;
  model_llc_chain : bool;
  model_prefetch : bool;
  overrides : overrides;
}

let default_options =
  {
    combine = `Separate;
    mlp_model = `Stride;
    branch_missrate = (fun ~entropy -> 0.5 *. entropy);
    use_uops = true;
    use_critical_path = true;
    use_port_contention = true;
    model_mlp = true;
    model_mshr = true;
    model_bus = true;
    model_llc_chain = true;
    model_prefetch = true;
    overrides = no_overrides;
  }

type prediction = {
  pr_workload : string;
  pr_uarch : string;
  pr_cycles : float;
  pr_instructions : float;
  pr_uops : float;
  pr_components : components;
  pr_mlp : float;
  pr_branch_mispredicts : float;
  pr_load_misses : float * float * float;
  pr_dram_loads : float;
  pr_limits : Dispatch_model.limits;
  pr_time_series : (int * float) array;
  pr_activity : Power.activity;
}

let cpi p = if p.pr_instructions = 0.0 then 0.0 else p.pr_cycles /. p.pr_instructions

let cpi_stack p =
  let k = keyed_components p.pr_components in
  if p.pr_instructions = 0.0 then Cpi_stack.scale k 0.0
  else Cpi_stack.scale k (1.0 /. p.pr_instructions)

let dram_wait_cpi p =
  if p.pr_instructions = 0.0 then 0.0 else p.pr_components.c_dram /. p.pr_instructions

let lines (lvl : Uarch.cache_level) = max 1 (lvl.size_bytes / lvl.line_bytes)

(* Per-level miss ratios from a config-independent survival structure:
   only the capacity lookups, by per-level line counts, depend on the
   config. *)
let miss_ratios ss (l1, l2, l3) =
  ( Statstack.miss_ratio ss ~cache_lines:l1,
    Statstack.miss_ratio ss ~cache_lines:l2,
    Statstack.miss_ratio ss ~cache_lines:l3 )

(* Enforce miss-ratio monotonicity across levels (larger cache, fewer
   misses); StatStack guarantees it, overrides may not. *)
let monotone (m1, m2, m3) =
  let m1 = Float.max 0.0 (Float.min 1.0 m1) in
  let m2 = Float.min m1 (Float.max 0.0 m2) in
  let m3 = Float.min m2 (Float.max 0.0 m3) in
  (m1, m2, m3)

(* ---- The per-profile memo of config-dependent results ----

   A streaming sweep evaluates millions of design points against one
   profile, and most per-point work inside [evaluate_microtrace] is a pure
   function of (micro-trace, a few config fields): the per-level miss
   ratios read only the cache capacities, the dispatch-port schedule and
   unit limits only the micro-op mix and the port and unit layout, the
   branch resolution time only (width, ROB, frontend depth, average
   latency, interval length), and the stride MLP only the LLC size, the
   ROB and the prefetcher's fields ([Mlp_model.stride] lists them).  Each
   result is memoized in the profile it was computed from
   ([Profile.model_memo]), keyed by the exact tuple of inputs its function
   reads, so it is dropped with the profile and no two profiles alias.

   Two tiers.  The back tier lives in the profile behind its own mutex;
   the front tier is the calling domain's lock-free copy for the profile
   it last evaluated.  A warm sweep answers from the front tier and takes
   no lock; a fresh worker domain refills its front tier from the back
   tier, so results outlive the short-lived domains of a parallel sweep.
   Only [`Separate] mode consults the memo for per-micro-trace results:
   the [`Combined] micro-trace is rebuilt per call.

   Bit-identity discipline: every cached quantity is either the verbatim
   result of the uncached computation, or is recombined with float
   operations in exactly the order the uncached code uses — see
   [cached_average_latency], whose Load term is re-inserted into the fold
   of [Dispatch_model.average_latency] at the same position. *)

module Memo = struct
  type disp = {
    d_total : int;
    d_n : float;
    d_prefix : float;  (* latency fold up to (excluding) the Load term *)
    d_n_load : float;
    d_suffix : float array;  (* per-class terms after Load, in fold order *)
    d_busiest : float;  (* max port activity of the greedy schedule *)
    d_units_raw : float;  (* unit-limit fold result; [infinity] if none *)
  }

  type tables = {
    ratios : (int * int * int * int, float * float * float) Hashtbl.t;
        (* (slot, l1, l2, l3 lines) -> per-level miss ratios; slot = 2*mt
           for loads, 2*mt+1 for stores, -1 for the i-stream *)
    disp : (int * int * Uarch.functional_unit list, disp) Hashtbl.t;
        (* (mt, ports, functional units) -> dispatch entry *)
    branch : (int * int * int * int * int64 * int64, float) Hashtbl.t;
        (* (mt, width, rob, frontend, bits avg_latency, bits between)
           -> Branch_model.penalty *)
    stride :
      (int * int * int * (int * int * int * int) option, Mlp_model.result) Hashtbl.t;
        (* (mt, llc lines, rob, prefetcher's (table entries, page bytes,
           width, dram latency) when modelled) -> Mlp_model.stride *)
  }

  let tables () =
    {
      ratios = Hashtbl.create 64;
      disp = Hashtbl.create 64;
      branch = Hashtbl.create 64;
      stride = Hashtbl.create 64;
    }

  type shared = { back : tables; lock : Mutex.t }

  type Profile.model_memo += Shared of shared

  type t = { shared : shared; front : tables }

  let last : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  (* The calling domain's view of [profile]'s memo.  Holding only the last
     profile's front tier bounds what a long-lived domain keeps. *)
  let get profile =
    let shared =
      match
        Profile.model_memo profile (fun () ->
            Shared { back = tables (); lock = Mutex.create () })
      with
      | Shared s -> s
      | _ -> invalid_arg "Interval_model: foreign model memo"
    in
    let cell = Domain.DLS.get last in
    match !cell with
    | Some m when m.shared == shared -> m
    | _ ->
      let m = { shared; front = tables () } in
      cell := Some m;
      m

  let find m table key compute =
    let front = table m.front in
    match Hashtbl.find_opt front key with
    | Some v -> v
    | None ->
      let back = table m.shared.back in
      let v =
        match Mutex.protect m.shared.lock (fun () -> Hashtbl.find_opt back key) with
        | Some v -> v
        | None ->
          let v = compute () in
          Mutex.protect m.shared.lock (fun () -> Hashtbl.replace back key v);
          v
      in
      Hashtbl.replace front key v;
      v

  let build_disp (u : Uarch.t) ~(mix : Isa.Class_counts.t) =
    let core = u.core in
    let term cls =
      let n = float_of_int (Isa.Class_counts.get mix cls) in
      let lat =
        match cls with
        | Isa.Load -> 0.0 (* unreachable: [split] stops at Load *)
        | Isa.Store -> 1.0
        | _ -> float_of_int (Uarch.functional_unit_for core cls).unit_latency
      in
      n *. lat
    in
    let rec split acc = function
      | [] -> (acc, [])
      | Isa.Load :: rest -> (acc, rest)
      | cls :: rest -> split (acc +. term cls) rest
    in
    let prefix, after = split 0.0 Isa.all_classes in
    let total = Isa.Class_counts.total mix in
    let n = float_of_int total in
    let activity = Dispatch_model.port_schedule u ~mix in
    let busiest = Array.fold_left Float.max 0.0 activity in
    let units_raw =
      List.fold_left
        (fun acc (fu : Uarch.functional_unit) ->
          let ni = float_of_int (Isa.Class_counts.get mix fu.serves) in
          if ni <= 0.0 then acc
          else begin
            let u_count = float_of_int fu.unit_count in
            let limit =
              if fu.pipelined then n *. u_count /. ni
              else n *. u_count /. (ni *. float_of_int fu.unit_latency)
            in
            Float.min acc limit
          end)
        infinity core.functional_units
    in
    {
      d_total = total;
      d_n = n;
      d_prefix = prefix;
      d_n_load = float_of_int (Isa.Class_counts.get mix Isa.Load);
      d_suffix = Array.of_list (List.map term after);
      d_busiest = busiest;
      d_units_raw = units_raw;
    }

  (* [Dispatch_model.average_latency] with the mix-dependent constants
     pre-folded: the Load term is inserted at its original position in the
     class fold, so the result is bit-identical. *)
  let cached_average_latency d ~load_latency =
    if d.d_total = 0 then 1.0
    else begin
      let w = ref (d.d_prefix +. (d.d_n_load *. load_latency)) in
      for i = 0 to Array.length d.d_suffix - 1 do
        w := !w +. d.d_suffix.(i)
      done;
      !w /. d.d_n
    end
end

type mt_eval = {
  ev_cycles : float;
  ev_components : components;
  ev_uops : float;
  ev_instructions : float;
  ev_mispredicts : float;
  ev_load_misses : float * float * float;
  ev_dram_loads : float;
  ev_dram_stores : float;
  ev_mlp : float;
  ev_limits : Dispatch_model.limits;
  ev_mix : Isa.Class_counts.t;
  ev_start : int;
}

(* [memo] is the profile's memo in [`Separate] mode, where [mt] is one of
   the profile's own (immutable, indexed) micro-traces; [None] for the
   rebuilt [`Combined] micro-trace. *)
let evaluate_microtrace (opts : options) (u : Uarch.t) (profile : Profile.t) ~memo
    ~inst_ratios ~cold_corr ~load_stack ~store_stack (mt : Profile.microtrace) =
  let core = u.core in
  let memoized table key compute =
    match memo with None -> compute () | Some m -> Memo.find m table key compute
  in
  let n_uops = float_of_int mt.mt_uops in
  let n_instr = float_of_int mt.mt_instructions in
  let loads = float_of_int (Isa.Class_counts.get mt.mt_mix Isa.Load) in
  let stores = float_of_int (Isa.Class_counts.get mt.mt_mix Isa.Store) in
  let load_fraction = if n_uops = 0.0 then 0.0 else loads /. n_uops in
  (* ---- Cache miss ratios (per load / per store / per instruction) ----
     The survival structures are config-independent (built at most once
     per profile; the rebuilt [`Combined] ones are lazy, so overrides
     skip them); only the capacity lookups below depend on [u] — and only
     through the per-level line counts, so the ratios memoize per
     (micro-trace, capacities). *)
  let cached_ratios slot stack =
    let l1 = lines u.caches.l1d and l2 = lines u.caches.l2 and l3 = lines u.caches.l3 in
    memoized (fun t -> t.Memo.ratios) (slot, l1, l2, l3) (fun () ->
        miss_ratios (Lazy.force stack) (l1, l2, l3))
  in
  let m1, m2, m3 =
    monotone
      (match opts.overrides.ov_load_miss_ratios with
      | Some r -> r
      | None -> cached_ratios (2 * mt.mt_index) load_stack)
  in
  let _s1, _s2, s3 =
    monotone
      (match opts.overrides.ov_store_miss_ratios with
      | Some r -> r
      | None -> cached_ratios ((2 * mt.mt_index) + 1) store_stack)
  in
  let i1, i2, i3 =
    monotone
      (match opts.overrides.ov_inst_miss_ratios with
      | Some r -> r
      | None -> inst_ratios)
  in
  (* ---- Base component: effective dispatch rate ---- *)
  let c = u.caches in
  let load_latency =
    ((1.0 -. m1) *. float_of_int c.l1d.latency)
    +. ((m1 -. m2) *. float_of_int c.l2.latency)
    +. (m2 *. float_of_int c.l3.latency)
  in
  let critical_path =
    if opts.use_critical_path then Profile.chain_at mt.mt_chains ~which:`Cp core.rob_size
    else 0.0
  in
  (* [Dispatch_model.compute] with the mix-only parts memoized per
     (micro-trace, port and unit layout); the recombination mirrors
     [compute]'s guards and float operations exactly, so limits are
     bit-identical. *)
  let avg_latency, limits =
    match memo with
    | None ->
      ( Dispatch_model.average_latency u ~mix:mt.mt_mix ~load_latency,
        Dispatch_model.compute u ~mix:mt.mt_mix ~critical_path ~load_latency )
    | Some m ->
      let d =
        Memo.find m (fun t -> t.Memo.disp)
          (mt.mt_index, core.n_ports, core.functional_units)
          (fun () -> Memo.build_disp u ~mix:mt.mt_mix)
      in
      let lim_width = float_of_int core.dispatch_width in
      let lat = Memo.cached_average_latency d ~load_latency in
      let lim_dependences =
        if critical_path <= 0.0 then lim_width
        else float_of_int core.rob_size /. (lat *. critical_path)
      in
      let lim_ports =
        if d.d_n <= 0.0 then lim_width
        else if d.d_busiest <= 0.0 then lim_width
        else d.d_n /. d.d_busiest
      in
      let lim_units =
        if d.d_n <= 0.0 then lim_width
        else if d.d_units_raw = infinity then lim_width
        else d.d_units_raw
      in
      (lat, { Dispatch_model.lim_width; lim_dependences; lim_ports; lim_units })
  in
  let limits =
    if opts.use_port_contention then limits
    else { limits with lim_ports = limits.lim_width; lim_units = limits.lim_width }
  in
  let limits =
    if opts.use_critical_path then limits
    else { limits with lim_dependences = limits.lim_width }
  in
  let deff = Dispatch_model.effective_rate limits in
  let work = if opts.use_uops then n_uops else n_instr in
  let base = work /. deff in
  (* ---- Branch component ---- *)
  let missrate =
    match opts.overrides.ov_branch_missrate with
    | Some r -> r
    | None -> opts.branch_missrate ~entropy:profile.p_entropy
  in
  let branches = float_of_int mt.mt_branches in
  let mispredicts = branches *. missrate in
  let branch_cycles =
    if mispredicts <= 0.0 then 0.0
    else begin
      let between = n_uops /. mispredicts in
      (* A branch whose resolution path contains an LLC-missing load waits
         for DRAM: the expected number of such loads on the average branch
         path serializes into the resolution time (the leaky bucket only
         accounts for short-latency operations). *)
      let abp = Profile.chain_at mt.mt_chains ~which:`Abp core.rob_size in
      let llc_on_path = abp *. load_fraction *. m3 in
      (* At most one outstanding access gates the branch at a time, and on
         average half its latency has already elapsed (and is charged to
         the DRAM term) when the branch reaches it. *)
      let memory_resolution =
        Float.min 1.0 llc_on_path *. (0.5 *. float_of_int u.memory.dram_latency)
      in
      (* The leaky-bucket resolution time is an iterative fixed point —
         by far the most expensive pure function here — and depends only
         on (micro-trace, width, ROB, frontend depth, avg latency,
         interval length); memoize the exact float result. *)
      let base_penalty =
        memoized (fun t -> t.Memo.branch)
          ( mt.mt_index, core.dispatch_width, core.rob_size, core.frontend_depth,
            Int64.bits_of_float avg_latency, Int64.bits_of_float between )
          (fun () ->
            Branch_model.penalty ~chains:mt.mt_chains ~avg_latency ~core
              ~uops_between_mispredicts:between)
      in
      mispredicts *. (base_penalty +. memory_resolution)
    end
  in
  (* ---- I-cache component ---- *)
  let icache_cycles =
    n_instr
    *. (((i1 -. i2) *. float_of_int c.l2.latency)
        +. ((i2 -. i3) *. float_of_int c.l3.latency)
        +. (i3
            *. float_of_int (u.memory.dram_latency + u.memory.bus_transfer)))
  in
  (* ---- DRAM component ---- *)
  let llc_load_misses = loads *. m3 in
  let llc_store_misses = stores *. s3 in
  let mlp_result =
    if not opts.model_mlp then Mlp_model.no_mlp
    else
      match opts.mlp_model with
      | `Cold ->
        Mlp_model.cold_miss ~mt ~cold_scale:cold_corr ~rob_size:core.rob_size
          ~llc_load_miss_rate:m3 ~load_fraction
      | `Stride ->
        let model_prefetch =
          opts.model_prefetch && u.prefetcher.pf_enabled
          && u.prefetcher.pf_kind = Uarch.Pf_stride
        in
        let stride () =
          Mlp_model.stride ~mt ~uarch:u ~llc_lines:(lines c.l3)
            ~llc_load_miss_rate:m3 ~model_prefetch
        in
        (* [stride] reads the miss rate only to answer [no_mlp] when it is
           not positive, so only that case skips the memo. *)
        if loads > 0.0 && m3 > 0.0 then
          memoized (fun t -> t.Memo.stride)
            ( mt.mt_index, lines c.l3, core.rob_size,
              if model_prefetch then
                Some
                  ( u.prefetcher.pf_table_entries, u.memory.dram_page_bytes,
                    core.dispatch_width, u.memory.dram_latency )
              else None )
            stride
        else stride ()
  in
  (* A measured (overridden) MLP is already *effective*: the simulator's
     MSHR pressure and bus serialization stretched the intervals it was
     computed from, so neither the MSHR cap nor the bus queue applies
     again. *)
  let mlp_measured = opts.overrides.ov_mlp <> None in
  let mlp_raw =
    match opts.overrides.ov_mlp with Some m -> m | None -> mlp_result.mlp
  in
  let mlp =
    if not opts.model_mlp then 1.0
    else if opts.model_mshr && not mlp_measured then
      Mlp_model.mshr_cap ~mlp:mlp_raw ~mshr_entries:core.mshr_entries
        ~dram_latency:u.memory.dram_latency
    else mlp_raw
  in
  let covered = mlp_result.prefetch_coverage in
  let effective_dram_loads = llc_load_misses *. (1.0 -. covered) in
  let covered_loads = llc_load_misses *. covered in
  let c_bus =
    (* Prefetch fills behave like store traffic (Eq 4.6): they occupy the
       bus ahead of demand misses without stalling the core directly. *)
    if opts.model_bus && not mlp_measured then
      Mlp_model.bus_queue_cycles ~mlp ~load_misses:effective_dram_loads
        ~store_misses:covered_loads ~bus_transfer:u.memory.bus_transfer
    else 0.0
  in
  let dram_latency_effective =
    float_of_int u.memory.dram_latency *. mlp_result.prefetch_partial_factor
  in
  let dram_cycles =
    if effective_dram_loads +. llc_store_misses <= 0.0 then 0.0
    else begin
      let latency_bound =
        effective_dram_loads *. (dram_latency_effective +. c_bus) /. Float.max 1.0 mlp
      in
      (* Bandwidth floor: every transferred line (stores included, Eq 4.6's
         concern) occupies the bus; a saturated bus bounds the DRAM
         component from below regardless of MLP. *)
      let bandwidth_bound =
        (* A measured MLP already reflects bus serialization, so the
           floor would double-count it. *)
        if opts.model_bus && not mlp_measured then
          (effective_dram_loads +. llc_store_misses)
          *. float_of_int u.memory.bus_transfer
        else 0.0
      in
      Float.max latency_bound bandwidth_bound
    end
  in
  (* Long front-end stalls starve the ROB: a data miss issued just before
     an instruction miss resolves in its shadow instead of blocking
     commit, so the fraction of execution spent in I-cache stalls shields
     the DRAM component (first-order overlap correction; the flat
     interval equation would charge both in full). *)
  let dram_cycles =
    let denom = base +. branch_cycles +. icache_cycles +. dram_cycles in
    if denom <= 0.0 then dram_cycles
    else dram_cycles *. Float.max 0.0 (1.0 -. (icache_cycles /. denom))
  in
  (* ---- Chained LLC hits ---- *)
  let llc_chain_cycles =
    if opts.model_llc_chain then
      Llc_chain.penalty ~mt ~uarch:u ~llc_hit_rate:(Float.max 0.0 (m2 -. m3))
        ~load_fraction ~effective_dispatch_rate:deff
    else 0.0
  in
  let comps =
    {
      c_base = base;
      c_branch = branch_cycles;
      c_icache = icache_cycles;
      c_llc_hit = llc_chain_cycles;
      c_dram = dram_cycles;
    }
  in
  {
    ev_cycles = components_total comps;
    ev_components = comps;
    ev_uops = n_uops;
    ev_instructions = n_instr;
    ev_mispredicts = mispredicts;
    ev_load_misses = (loads *. m1, loads *. m2, loads *. m3);
    ev_dram_loads = effective_dram_loads;
    ev_dram_stores = llc_store_misses;
    ev_mlp = mlp;
    ev_limits = limits;
    ev_mix = mt.mt_mix;
    ev_start = mt.mt_start_instruction;
  }

(* Merge all micro-traces into one averaged profile — the ISPASS'15
   "combined" evaluation mode (contrast of Fig 6.4). *)
let combined_microtrace (profile : Profile.t) : Profile.microtrace =
  let mts = profile.p_microtraces in
  let merge_hist select =
    Array.fold_left
      (fun acc mt -> Histogram.merge acc (select mt))
      (Histogram.create ()) mts
  in
  let n = Array.length mts in
  if n = 0 then invalid_arg "Interval_model: empty profile";
  let total_uops = Array.fold_left (fun a mt -> a + mt.Profile.mt_uops) 0 mts in
  let total_instr =
    Array.fold_left (fun a mt -> a + mt.Profile.mt_instructions) 0 mts
  in
  let mix =
    Array.fold_left
      (fun acc mt -> Isa.Class_counts.merge acc mt.Profile.mt_mix)
      (Isa.Class_counts.create ()) mts
  in
  (* Weighted-average chain statistics over micro-traces. *)
  let first = mts.(0) in
  let rob_sizes = first.mt_chains.rob_sizes in
  let avg select =
    Array.init (Array.length rob_sizes) (fun i ->
        let num = ref 0.0 and den = ref 0.0 in
        Array.iter
          (fun mt ->
            let w = float_of_int mt.Profile.mt_uops in
            num := !num +. (w *. (select mt.Profile.mt_chains) i);
            den := !den +. w)
          mts;
        if !den = 0.0 then 0.0 else !num /. !den)
  in
  let chains =
    {
      Profile.rob_sizes;
      ap = avg (fun cs i -> cs.Profile.ap.(i));
      abp = avg (fun cs i -> cs.Profile.abp.(i));
      cp = avg (fun cs i -> cs.Profile.cp.(i));
      abp_windows =
        Array.init (Array.length rob_sizes) (fun i ->
            Array.fold_left
              (fun a mt -> a + mt.Profile.mt_chains.Profile.abp_windows.(i))
              0 mts);
    }
  in
  let sum select = Array.fold_left (fun a mt -> a + select mt) 0 mts in
  let cold =
    {
      Profile.cold_rob_sizes = first.mt_cold.cold_rob_sizes;
      cold_windows =
        Array.init
          (Array.length first.mt_cold.cold_rob_sizes)
          (fun i -> sum (fun mt -> mt.Profile.mt_cold.cold_windows.(i)));
      cold_windows_hit =
        Array.init
          (Array.length first.mt_cold.cold_rob_sizes)
          (fun i -> sum (fun mt -> mt.Profile.mt_cold.cold_windows_hit.(i)));
      cold_total =
        Array.init
          (Array.length first.mt_cold.cold_rob_sizes)
          (fun i -> sum (fun mt -> mt.Profile.mt_cold.cold_total.(i)));
    }
  in
  {
    Profile.mt_index = 0;
    mt_start_instruction = 0;
    mt_instructions = total_instr;
    mt_uops = total_uops;
    mt_mix = mix;
    mt_chains = chains;
    mt_load_depth = merge_hist (fun mt -> mt.Profile.mt_load_depth);
    mt_reuse_load = merge_hist (fun mt -> mt.Profile.mt_reuse_load);
    mt_reuse_store = merge_hist (fun mt -> mt.Profile.mt_reuse_store);
    mt_mem_samples = sum (fun mt -> mt.Profile.mt_mem_samples);
    mt_mem_cold = sum (fun mt -> mt.Profile.mt_mem_cold);
    mt_store_cold = sum (fun mt -> mt.Profile.mt_store_cold);
    mt_cold = cold;
    mt_static_loads =
      Array.fold_left (fun acc mt -> mt.Profile.mt_static_loads @ acc) [] mts;
    mt_branches = sum (fun mt -> mt.Profile.mt_branches);
  }

let predict ?(options = default_options) (u : Uarch.t) (profile : Profile.t) =
  let memo = Memo.get profile in
  (* The i-stream stack is the profile's own in both modes, so its ratios
     always memoize; slot -1 keeps them apart from every micro-trace. *)
  let inst_ratios =
    let l1 = lines u.caches.l1i and l2 = lines u.caches.l2 and l3 = lines u.caches.l3 in
    Memo.find memo (fun t -> t.Memo.ratios) (-1, l1, l2, l3) (fun () ->
        miss_ratios (Profile.stacks profile).inst_stack (l1, l2, l3))
  in
  let cold_corr = Profile.cold_correction profile in
  let evals =
    match options.combine with
    | `Separate ->
      (* The profile's own stacks, built once with its i-stream stack. *)
      let stacks = Profile.stacks profile in
      Array.map
        (fun (mt : Profile.microtrace) ->
          evaluate_microtrace options u profile ~memo:(Some memo) ~inst_ratios
            ~cold_corr
            ~load_stack:(Lazy.from_val stacks.load_stacks.(mt.mt_index))
            ~store_stack:(Lazy.from_val stacks.store_stacks.(mt.mt_index))
            mt)
        profile.p_microtraces
    | `Combined ->
      (* The merged micro-trace (and its histograms) is rebuilt per call,
         so its stacks belong to no profile — build them directly. *)
      let mt = combined_microtrace profile in
      let load_cold = Profile.load_cold_fraction profile mt in
      let store_cold = Profile.store_cold_fraction profile mt in
      [|
        evaluate_microtrace options u profile ~memo:None ~inst_ratios ~cold_corr
          ~load_stack:
            (lazy
              (Statstack.of_reuse_histogram ~cold_fraction:load_cold
                 mt.mt_reuse_load))
          ~store_stack:
            (lazy
              (Statstack.of_reuse_histogram ~cold_fraction:store_cold
                 mt.mt_reuse_store))
          mt;
      |]
  in
  (* Each micro-trace stands for its whole window. *)
  let scale_of ev =
    if ev.ev_instructions = 0.0 then 0.0
    else
      float_of_int profile.p_window_instructions /. ev.ev_instructions
  in
  let scale_of =
    match options.combine with `Combined -> fun _ -> 1.0 | `Separate -> scale_of
  in
  (* One pass over the evaluations, accumulating every total with the same
     per-element expression and summation order as independent
     [fold_left]s would (each accumulator advances once per element, in
     array order, so dropping the per-total closures changes no bits). *)
  let cycles = ref 0.0 and instructions = ref 0.0 and uops = ref 0.0 in
  let mispredicts = ref 0.0 in
  let lm1 = ref 0.0 and lm2 = ref 0.0 and lm3 = ref 0.0 in
  let dram_loads = ref 0.0 and dram_stores = ref 0.0 in
  let c_base = ref 0.0 and c_branch = ref 0.0 and c_icache = ref 0.0 in
  let c_llc_hit = ref 0.0 and c_dram = ref 0.0 in
  let mlp_weighted = ref 0.0 and mlp_plain = ref 0.0 in
  let l_width = ref 0.0 and l_deps = ref 0.0 and l_ports = ref 0.0 in
  let l_units = ref 0.0 in
  for k = 0 to Array.length evals - 1 do
    let ev = evals.(k) in
    let s = scale_of ev in
    cycles := !cycles +. (s *. ev.ev_cycles);
    instructions := !instructions +. (s *. ev.ev_instructions);
    uops := !uops +. (s *. ev.ev_uops);
    mispredicts := !mispredicts +. (s *. ev.ev_mispredicts);
    (let a, b, c = ev.ev_load_misses in
     lm1 := !lm1 +. (s *. a);
     lm2 := !lm2 +. (s *. b);
     lm3 := !lm3 +. (s *. c));
    dram_loads := !dram_loads +. (s *. ev.ev_dram_loads);
    dram_stores := !dram_stores +. (s *. ev.ev_dram_stores);
    c_base := !c_base +. (s *. ev.ev_components.c_base);
    c_branch := !c_branch +. (s *. ev.ev_components.c_branch);
    c_icache := !c_icache +. (s *. ev.ev_components.c_icache);
    c_llc_hit := !c_llc_hit +. (s *. ev.ev_components.c_llc_hit);
    c_dram := !c_dram +. (s *. ev.ev_components.c_dram);
    mlp_weighted := !mlp_weighted +. (s *. (ev.ev_mlp *. ev.ev_dram_loads));
    mlp_plain := !mlp_plain +. ev.ev_mlp;
    l_width := !l_width +. (s *. (ev.ev_limits.lim_width *. ev.ev_uops));
    l_deps := !l_deps +. (s *. (ev.ev_limits.lim_dependences *. ev.ev_uops));
    l_ports := !l_ports +. (s *. (ev.ev_limits.lim_ports *. ev.ev_uops));
    l_units := !l_units +. (s *. (ev.ev_limits.lim_units *. ev.ev_uops))
  done;
  let cycles = !cycles and instructions = !instructions and uops = !uops in
  let mispredicts = !mispredicts in
  let lm1 = !lm1 and lm2 = !lm2 and lm3 = !lm3 in
  let dram_loads = !dram_loads and dram_stores = !dram_stores in
  let comps =
    {
      c_base = !c_base;
      c_branch = !c_branch;
      c_icache = !c_icache;
      c_llc_hit = !c_llc_hit;
      c_dram = !c_dram;
    }
  in
  (* DRAM-weighted MLP; plain average when there are no misses. *)
  let mlp =
    if dram_loads > 0.0 then !mlp_weighted /. dram_loads
    else begin
      let n = Array.length evals in
      if n = 0 then 1.0 else !mlp_plain /. float_of_int n
    end
  in
  let limits =
    let w = Float.max 1.0 uops in
    {
      Dispatch_model.lim_width = !l_width /. w;
      lim_dependences = !l_deps /. w;
      lim_ports = !l_ports /. w;
      lim_units = !l_units /. w;
    }
  in
  let i1, i2, i3 = inst_ratios in
  let sm3 = if dram_stores > 0.0 then dram_stores else 0.0 in
  let mix_totals = Array.make Isa.n_classes 0.0 in
  Array.iter
    (fun ev ->
      let s = scale_of ev in
      List.iter
        (fun cls ->
          let i = Isa.class_index cls in
          mix_totals.(i) <-
            mix_totals.(i)
            +. (s *. float_of_int (Isa.Class_counts.get ev.ev_mix cls)))
        Isa.all_classes)
    evals;
  let branches_total = mix_totals.(Isa.class_index Isa.Branch) in
  let memory_accesses =
    mix_totals.(Isa.class_index Isa.Load) +. mix_totals.(Isa.class_index Isa.Store)
  in
  let store_l1_misses =
    (* Approximate store misses at L1 with the L3 store misses scaled by
       the load-side shape; power-only input. *)
    if lm3 > 0.0 && sm3 > 0.0 then sm3 *. (lm1 /. lm3) else sm3
  in
  let activity =
    {
      Power.a_cycles = cycles;
      a_uops = uops;
      a_uops_by_class = mix_totals;
      a_l1i_accesses = instructions;
      a_l1d_accesses = memory_accesses;
      a_l2_accesses = lm1 +. store_l1_misses +. (instructions *. i1);
      a_l3_accesses = lm2 +. store_l1_misses +. (instructions *. i2);
      a_dram_accesses = dram_loads +. dram_stores +. (instructions *. i3);
      a_branch_lookups = branches_total;
    }
  in
  let series =
    Array.map
      (fun ev ->
        ( ev.ev_start,
          if ev.ev_instructions = 0.0 then 0.0 else ev.ev_cycles /. ev.ev_instructions
        ))
      evals
  in
  {
    pr_workload = profile.p_workload;
    pr_uarch = u.name;
    pr_cycles = cycles;
    pr_instructions = instructions;
    pr_uops = uops;
    pr_components = comps;
    pr_mlp = mlp;
    pr_branch_mispredicts = mispredicts;
    pr_load_misses = (lm1, lm2, lm3);
    pr_dram_loads = dram_loads;
    pr_limits = limits;
    pr_time_series = series;
    pr_activity = activity;
  }

(* [predict] reads every field of the config except [name], which it only
   copies into [pr_uarch], and [operating_point]: cycles are counted in
   core cycles (DRAM latency and bus transfer included), so frequency and
   voltage enter only through [Power] and the seconds/energy terms. *)
let timing_key (u : Uarch.t) =
  { u with name = ""; operating_point = { freq_ghz = 0.0; vdd = 0.0 } }

(* A full record pattern: a new option field fails to compile here until
   it is added to the key. *)
let options_key
    {
      combine;
      mlp_model;
      branch_missrate;
      use_uops;
      use_critical_path;
      use_port_contention;
      model_mlp;
      model_mshr;
      model_bus;
      model_llc_chain;
      model_prefetch;
      overrides;
    } (profile : Profile.t) =
  Marshal.to_string
    ( (combine, mlp_model, use_uops, use_critical_path, use_port_contention),
      (model_mlp, model_mshr, model_bus, model_llc_chain, model_prefetch),
      overrides,
      branch_missrate ~entropy:profile.p_entropy )
    [ Marshal.No_sharing ]
