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
   profile, and most per-point work is a pure function of a few config
   fields: the per-level miss ratios read only the cache capacities, the
   dispatch-port schedule and unit limits only the micro-op mix and the
   port and unit layout, the chain lengths only the ROB, the branch
   resolution time only (width, ROB, frontend depth, average latency,
   interval length), and the stride MLP only the LLC size, the ROB and
   the prefetcher's fields ([Mlp_model.stride] lists them).  Each result
   is memoized in the profile it was computed from
   ([Profile.model_memo]), keyed by the exact inputs its function reads,
   so it is dropped with the profile and no two profiles alias.

   A predict probes each config-keyed table once, for every micro-trace
   at a time: the data-side miss ratios by the (L1D, L2, L3) line
   counts, the i-stream's by (L1I, L2, L3), the chain lengths by the ROB
   size, and the dispatch entries by the port count and the unit layout
   (a short list of layouts, compared physically first).  The branch and
   stride results also depend on per-micro-trace values, so they keep one
   entry per micro-trace, under an int key that holds the micro-trace
   index and the float inputs' bit patterns.  Keys are int arrays: a
   probe hashes and compares the domain's scratch key in place, so a hit
   allocates nothing, and only a miss stores a copy.

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

(* Structural equality of the unit layouts a config's dispatch limits
   read, physical first: generated configs of one width share their
   list. *)
let rec same_ports (a : int list) (b : int list) =
  a == b
  || (match (a, b) with
     | [], [] -> true
     | x :: a, y :: b -> x = y && same_ports a b
     | _ -> false)

let same_unit (a : Uarch.functional_unit) (b : Uarch.functional_unit) =
  a == b
  || a.serves == b.serves && a.unit_count = b.unit_count
     && a.unit_latency = b.unit_latency && a.pipelined = b.pipelined
     && same_ports a.usable_ports b.usable_ports

let rec same_units (a : Uarch.functional_unit list) b =
  a == b
  || (match (a, b) with
     | [], [] -> true
     | x :: a, y :: b -> same_unit x y && same_units a b
     | _ -> false)

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

  module Tbl = Hashtbl.Make (struct
    type t = int array

    let equal (a : t) (b : t) =
      let n = Array.length a in
      if n <> Array.length b then false
      else begin
        let i = ref 0 in
        while !i < n && a.(!i) = b.(!i) do
          incr i
        done;
        !i = n
      end

    let hash (a : t) =
      let h = ref (Array.length a) in
      for i = 0 to Array.length a - 1 do
        h := (!h lxor a.(i)) * 0x100000001b3
      done;
      (!h lxor (!h lsr 31)) land max_int
  end)

  type tables = {
    data : float array Tbl.t;
        (* [l1d; l2; l3 lines] -> per micro-trace, the monotone load
           ratios m1 m2 m3 and the store LLC ratio s3 *)
    inst : float array Tbl.t;  (* [l1i; l2; l3 lines] -> i-stream ratios *)
    chains : float array Tbl.t;
        (* [rob] -> per micro-trace, critical path then branch path *)
    mutable disp : (int * Uarch.functional_unit list * disp array) list;
        (* (ports, functional units) -> per micro-trace dispatch entry *)
    branch : float Tbl.t;
        (* [mt; width; rob; frontend; bits avg_latency (2); bits between
           (2)] -> Branch_model.penalty *)
    stride : Mlp_model.result Tbl.t;
        (* [mt; llc lines; rob; 1; table entries; page bytes; width; dram
           latency] with the prefetcher modelled, [...; 0; 0; 0; 0; 0]
           without -> Mlp_model.stride *)
  }

  let tables () =
    {
      data = Tbl.create 16;
      inst = Tbl.create 16;
      chains = Tbl.create 16;
      disp = [];
      branch = Tbl.create 16;
      stride = Tbl.create 16;
    }

  type shared = {
    back : tables;
    lock : Mutex.t;
    chain_heads : float array;  (* [Llc_chain.chain_heads] per micro-trace *)
  }

  type Profile.model_memo += Shared of shared

  (* [key3], [key1] and [key8] are the domain's scratch keys. *)
  type t = {
    shared : shared;
    front : tables;
    key3 : int array;
    key1 : int array;
    key8 : int array;
  }

  let last : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  (* The calling domain's view of [profile]'s memo.  Holding only the last
     profile's front tier bounds what a long-lived domain keeps. *)
  let get (profile : Profile.t) =
    let shared =
      match
        Profile.model_memo profile (fun () ->
            Shared
              {
                back = tables ();
                lock = Mutex.create ();
                chain_heads = Array.map Llc_chain.chain_heads profile.p_microtraces;
              })
      with
      | Shared s -> s
      | _ -> invalid_arg "Interval_model: foreign model memo"
    in
    let cell = Domain.DLS.get last in
    match !cell with
    | Some m when m.shared == shared -> m
    | _ ->
      let m =
        {
          shared;
          front = tables ();
          key3 = Array.make 3 0;
          key1 = Array.make 1 0;
          key8 = Array.make 8 0;
        }
      in
      cell := Some m;
      m

  (* After a front-tier miss: the back tier's value, or [compute ()]
     stored there, and kept in the front tier too. *)
  let fill m ~find ~add compute =
    let v =
      match Mutex.protect m.shared.lock (fun () -> find m.shared.back) with
      | Some v -> v
      | None ->
        let v = compute () in
        Mutex.protect m.shared.lock (fun () -> add m.shared.back v);
        v
    in
    add m.front v;
    v

  (* [fill] under a copy of the scratch [key].  Per-micro-trace callers
     probe the front tier themselves, so a hit builds no closure. *)
  let fill_key m table key compute =
    let key = Array.copy key in
    fill m
      ~find:(fun t -> Tbl.find_opt (table t) key)
      ~add:(fun t v -> Tbl.replace (table t) key v)
      compute

  let find m table key compute =
    match Tbl.find (table m.front) key with
    | v -> v
    | exception Not_found -> fill_key m table key compute

  (* [find] for the dispatch entries, whose key is a unit list. *)
  let disps m ~n_ports ~fus compute =
    let find t =
      List.find_map
        (fun (p, f, d) -> if p = n_ports && same_units f fus then Some d else None)
        t.disp
    in
    match find m.front with
    | Some d -> d
    | None -> fill m ~find ~add:(fun t d -> t.disp <- (n_ports, fus, d) :: t.disp) compute

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
  let[@inline] cached_average_latency d ~load_latency =
    if d.d_total = 0 then 1.0
    else begin
      let w = ref (d.d_prefix +. (d.d_n_load *. load_latency)) in
      for i = 0 to Array.length d.d_suffix - 1 do
        w := !w +. d.d_suffix.(i)
      done;
      !w /. d.d_n
    end
end

(* Store [x]'s bit pattern, exactly, in two key slots. *)
let[@inline] set_bits (key : int array) i x =
  let b = Int64.bits_of_float x in
  key.(i) <- Int64.to_int (Int64.shift_right_logical b 32);
  key.(i + 1) <- Int64.to_int (Int64.logand b 0xFFFF_FFFFL)

(* Everything a predict's micro-trace evaluations share: the per-point
   constants and the memo's answers for this config, each fetched once.
   [memo] is the profile's memo in [`Separate] mode, where the
   micro-traces are the profile's own (immutable, indexed) ones; [None]
   for the rebuilt [`Combined] micro-trace. *)
type ctx = {
  opts : options;
  u : Uarch.t;
  memo : Memo.t option;
  mts : Profile.microtrace array;  (* the micro-traces evaluated *)
  window : int;  (* instructions each [`Separate] micro-trace stands for *)
  ratios : float array;
      (* per micro-trace m1 m2 m3 s3, overrides applied and monotone *)
  inst : float array;  (* i1 i2 i3, overrides applied and monotone *)
  disps : Memo.disp array;
  chain_heads : float array;
  missrate : float;
  cold_corr : float;
  mlp_measured : bool;
  mutable chains : float array;  (* per micro-trace cp, abp; [||] until read *)
  acc : float array;  (* the prediction's totals, slots [a_*] *)
  mix_totals : float array;
}

(* Accumulator slots. *)
let a_cycles = 0
let a_instructions = 1
let a_uops = 2
let a_mispredicts = 3
let a_lm1 = 4
let a_lm2 = 5
let a_lm3 = 6
let a_dram_loads = 7
let a_dram_stores = 8
let a_base = 9
let a_branch = 10
let a_icache = 11
let a_llc_hit = 12
let a_dram = 13
let a_mlp_weighted = 14
let a_mlp_plain = 15
let a_width = 16
let a_deps = 17
let a_ports = 18
let a_units = 19
let n_acc = 20

let classes = Array.of_list Isa.all_classes

(* Chain lengths at the config's ROB size, fetched on first read: only
   when the critical path or a branch path is asked for, as the uncached
   model reads them. *)
let chains c =
  if Array.length c.chains = 0 then begin
    let rob = c.u.core.rob_size in
    let compute () =
      let v = Array.make (2 * Array.length c.mts) 0.0 in
      Array.iteri
        (fun k (mt : Profile.microtrace) ->
          v.(2 * k) <- Profile.chain_at mt.mt_chains ~which:`Cp rob;
          v.((2 * k) + 1) <- Profile.chain_at mt.mt_chains ~which:`Abp rob)
        c.mts;
      v
    in
    c.chains <-
      (match c.memo with
      | None -> compute ()
      | Some m ->
        m.key1.(0) <- rob;
        Memo.find m (fun t -> t.Memo.chains) m.key1 compute)
  end;
  c.chains

(* Evaluate micro-trace [mt] (the [k]th of this predict) and add its
   terms, weighted by the instructions it stands for, to the totals. *)
let evaluate_microtrace c (mt : Profile.microtrace) ~k =
  let opts = c.opts and u = c.u in
  let core = u.core in
  let n_uops = float_of_int mt.mt_uops in
  let n_instr = float_of_int mt.mt_instructions in
  let loads = float_of_int (Isa.Class_counts.get mt.mt_mix Isa.Load) in
  let stores = float_of_int (Isa.Class_counts.get mt.mt_mix Isa.Store) in
  let load_fraction = if n_uops = 0.0 then 0.0 else loads /. n_uops in
  (* Each micro-trace stands for its whole window. *)
  let s =
    if Option.is_none c.memo then 1.0
    else if n_instr = 0.0 then 0.0
    else float_of_int c.window /. n_instr
  in
  let m1 = c.ratios.(4 * k) and m2 = c.ratios.((4 * k) + 1) in
  let m3 = c.ratios.((4 * k) + 2) and s3 = c.ratios.((4 * k) + 3) in
  let i1 = c.inst.(0) and i2 = c.inst.(1) and i3 = c.inst.(2) in
  (* ---- Base component: effective dispatch rate ---- *)
  let ca = u.caches in
  let load_latency =
    ((1.0 -. m1) *. float_of_int ca.l1d.latency)
    +. ((m1 -. m2) *. float_of_int ca.l2.latency)
    +. (m2 *. float_of_int ca.l3.latency)
  in
  let critical_path =
    if opts.use_critical_path then (chains c).(2 * k) else 0.0
  in
  (* [Dispatch_model.compute] from the mix-only parts of [disps]; the
     recombination mirrors [compute]'s guards and float operations
     exactly, so limits are bit-identical. *)
  let d = c.disps.(k) in
  let lim_width = float_of_int core.dispatch_width in
  let avg_latency = Memo.cached_average_latency d ~load_latency in
  let lim_dependences =
    if critical_path <= 0.0 then lim_width
    else float_of_int core.rob_size /. (avg_latency *. critical_path)
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
  let lim_ports = if opts.use_port_contention then lim_ports else lim_width in
  let lim_units = if opts.use_port_contention then lim_units else lim_width in
  let lim_dependences =
    if opts.use_critical_path then lim_dependences else lim_width
  in
  (* [Dispatch_model.effective_rate] *)
  let deff =
    Float.max 0.05
      (Float.min lim_width (Float.min lim_dependences (Float.min lim_ports lim_units)))
  in
  let work = if opts.use_uops then n_uops else n_instr in
  let base = work /. deff in
  (* ---- Branch component ---- *)
  let branches = float_of_int mt.mt_branches in
  let mispredicts = branches *. c.missrate in
  let branch_cycles =
    if mispredicts <= 0.0 then 0.0
    else begin
      let between = n_uops /. mispredicts in
      (* A branch whose resolution path contains an LLC-missing load waits
         for DRAM: the expected number of such loads on the average branch
         path serializes into the resolution time (the leaky bucket only
         accounts for short-latency operations). *)
      let abp = (chains c).((2 * k) + 1) in
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
        match c.memo with
        | None ->
          Branch_model.penalty ~chains:mt.mt_chains ~avg_latency ~core
            ~uops_between_mispredicts:between
        | Some m -> (
          let key = m.key8 in
          key.(0) <- mt.mt_index;
          key.(1) <- core.dispatch_width;
          key.(2) <- core.rob_size;
          key.(3) <- core.frontend_depth;
          set_bits key 4 avg_latency;
          set_bits key 6 between;
          match Memo.Tbl.find m.front.branch key with
          | v -> v
          | exception Not_found ->
            Memo.fill_key m (fun t -> t.Memo.branch) key (fun () ->
                Branch_model.penalty ~chains:mt.mt_chains ~avg_latency ~core
                  ~uops_between_mispredicts:between))
      in
      mispredicts *. (base_penalty +. memory_resolution)
    end
  in
  (* ---- I-cache component ---- *)
  let icache_cycles =
    n_instr
    *. (((i1 -. i2) *. float_of_int ca.l2.latency)
        +. ((i2 -. i3) *. float_of_int ca.l3.latency)
        +. (i3 *. float_of_int (u.memory.dram_latency + u.memory.bus_transfer)))
  in
  (* ---- DRAM component ---- *)
  let llc_load_misses = loads *. m3 in
  let llc_store_misses = stores *. s3 in
  let mlp_result =
    if not opts.model_mlp then Mlp_model.no_mlp
    else
      match opts.mlp_model with
      | `Cold ->
        Mlp_model.cold_miss ~mt ~cold_scale:c.cold_corr ~rob_size:core.rob_size
          ~llc_load_miss_rate:m3 ~load_fraction
      | `Stride -> (
        let model_prefetch =
          opts.model_prefetch && u.prefetcher.pf_enabled
          && u.prefetcher.pf_kind = Uarch.Pf_stride
        in
        let llc_lines = lines ca.l3 in
        (* [stride] reads the miss rate only to answer [no_mlp] when it is
           not positive, so only that case skips the memo. *)
        match c.memo with
        | Some m when loads > 0.0 && m3 > 0.0 -> (
          let key = m.key8 in
          key.(0) <- mt.mt_index;
          key.(1) <- llc_lines;
          key.(2) <- core.rob_size;
          if model_prefetch then begin
            key.(3) <- 1;
            key.(4) <- u.prefetcher.pf_table_entries;
            key.(5) <- u.memory.dram_page_bytes;
            key.(6) <- core.dispatch_width;
            key.(7) <- u.memory.dram_latency
          end
          else Array.fill key 3 5 0;
          match Memo.Tbl.find m.front.stride key with
          | v -> v
          | exception Not_found ->
            Memo.fill_key m (fun t -> t.Memo.stride) key (fun () ->
                Mlp_model.stride ~mt ~uarch:u ~llc_lines ~llc_load_miss_rate:m3
                  ~model_prefetch))
        | _ ->
          Mlp_model.stride ~mt ~uarch:u ~llc_lines ~llc_load_miss_rate:m3
            ~model_prefetch)
  in
  (* A measured (overridden) MLP is already *effective*: the simulator's
     MSHR pressure and bus serialization stretched the intervals it was
     computed from, so neither the MSHR cap nor the bus queue applies
     again. *)
  let mlp_measured = c.mlp_measured in
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
      Llc_chain.penalty ~chain_heads:c.chain_heads.(k) ~mt ~uarch:u
        ~llc_hit_rate:(Float.max 0.0 (m2 -. m3)) ~load_fraction
        ~effective_dispatch_rate:deff
    else 0.0
  in
  let cycles = base +. branch_cycles +. icache_cycles +. llc_chain_cycles +. dram_cycles in
  (* Every total advances once per micro-trace, in micro-trace order, by
     the same per-element expression as a fold over the evaluations. *)
  let acc = c.acc in
  acc.(a_cycles) <- acc.(a_cycles) +. (s *. cycles);
  acc.(a_instructions) <- acc.(a_instructions) +. (s *. n_instr);
  acc.(a_uops) <- acc.(a_uops) +. (s *. n_uops);
  acc.(a_mispredicts) <- acc.(a_mispredicts) +. (s *. mispredicts);
  acc.(a_lm1) <- acc.(a_lm1) +. (s *. (loads *. m1));
  acc.(a_lm2) <- acc.(a_lm2) +. (s *. (loads *. m2));
  acc.(a_lm3) <- acc.(a_lm3) +. (s *. (loads *. m3));
  acc.(a_dram_loads) <- acc.(a_dram_loads) +. (s *. effective_dram_loads);
  acc.(a_dram_stores) <- acc.(a_dram_stores) +. (s *. llc_store_misses);
  acc.(a_base) <- acc.(a_base) +. (s *. base);
  acc.(a_branch) <- acc.(a_branch) +. (s *. branch_cycles);
  acc.(a_icache) <- acc.(a_icache) +. (s *. icache_cycles);
  acc.(a_llc_hit) <- acc.(a_llc_hit) +. (s *. llc_chain_cycles);
  acc.(a_dram) <- acc.(a_dram) +. (s *. dram_cycles);
  acc.(a_mlp_weighted) <- acc.(a_mlp_weighted) +. (s *. (mlp *. effective_dram_loads));
  acc.(a_mlp_plain) <- acc.(a_mlp_plain) +. mlp;
  acc.(a_width) <- acc.(a_width) +. (s *. (lim_width *. n_uops));
  acc.(a_deps) <- acc.(a_deps) +. (s *. (lim_dependences *. n_uops));
  acc.(a_ports) <- acc.(a_ports) +. (s *. (lim_ports *. n_uops));
  acc.(a_units) <- acc.(a_units) +. (s *. (lim_units *. n_uops));
  for j = 0 to Array.length classes - 1 do
    let cls = classes.(j) in
    let i = Isa.class_index cls in
    c.mix_totals.(i) <-
      c.mix_totals.(i) +. (s *. float_of_int (Isa.Class_counts.get mt.mt_mix cls))
  done;
  (mt.mt_start_instruction, if n_instr = 0.0 then 0.0 else cycles /. n_instr)

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
  let ov = options.overrides in
  let ca = u.caches in
  (* The i-stream stack is the profile's own in both modes, so its ratios
     always memoize. *)
  let inst_raw =
    let l1 = lines ca.l1i and l2 = lines ca.l2 and l3 = lines ca.l3 in
    let key = memo.key3 in
    key.(0) <- l1;
    key.(1) <- l2;
    key.(2) <- l3;
    Memo.find memo (fun t -> t.Memo.inst) key (fun () ->
        let i1, i2, i3 = miss_ratios (Profile.stacks profile).inst_stack (l1, l2, l3) in
        [| i1; i2; i3 |])
  in
  let inst =
    let i1, i2, i3 =
      monotone
        (match ov.ov_inst_miss_ratios with
        | Some r -> r
        | None -> (inst_raw.(0), inst_raw.(1), inst_raw.(2)))
    in
    [| i1; i2; i3 |]
  in
  (* Per micro-trace m1 m2 m3 s3: each side's override, or the ratios of
     its stack [load k] / [store k], read only for a side left to the
     model. *)
  let l1 = lines ca.l1d and l2 = lines ca.l2 and l3 = lines ca.l3 in
  let data_ratios n ~load ~store =
    let side ov stack k =
      monotone (match ov with Some r -> r | None -> miss_ratios (stack k) (l1, l2, l3))
    in
    let r = Array.make (4 * n) 0.0 in
    for k = 0 to n - 1 do
      let m1, m2, m3 = side ov.ov_load_miss_ratios load k in
      let _, _, s3 = side ov.ov_store_miss_ratios store k in
      r.(4 * k) <- m1;
      r.((4 * k) + 1) <- m2;
      r.((4 * k) + 2) <- m3;
      r.((4 * k) + 3) <- s3
    done;
    r
  in
  let mts, ratios, disps, chain_heads, memo_opt =
    match options.combine with
    | `Separate ->
      let mts = profile.p_microtraces in
      let n = Array.length mts in
      (* The profile's own stacks.  Only the plain model's ratios are a
         function of the capacities alone, so only they memoize. *)
      let ratios () =
        data_ratios n
          ~load:(fun k -> (Profile.stacks profile).load_stacks.(k))
          ~store:(fun k -> (Profile.stacks profile).store_stacks.(k))
      in
      let ratios =
        match (ov.ov_load_miss_ratios, ov.ov_store_miss_ratios) with
        | None, None ->
          let key = memo.key3 in
          key.(0) <- l1;
          key.(1) <- l2;
          key.(2) <- l3;
          Memo.find memo (fun t -> t.Memo.data) key ratios
        | _ -> ratios ()
      in
      let disps =
        let core = u.core in
        Memo.disps memo ~n_ports:core.n_ports ~fus:core.functional_units (fun () ->
            Array.map (fun (mt : Profile.microtrace) -> Memo.build_disp u ~mix:mt.mt_mix) mts)
      in
      (mts, ratios, disps, memo.shared.chain_heads, Some memo)
    | `Combined ->
      (* The merged micro-trace (and its histograms) is rebuilt per call,
         so its stacks belong to no profile — build them directly, and
         only for the sides the overrides leave to the model. *)
      let mt = combined_microtrace profile in
      let stack cold h _ = Statstack.of_reuse_histogram ~cold_fraction:cold h in
      let ratios =
        data_ratios 1
          ~load:(stack (Profile.load_cold_fraction profile mt) mt.mt_reuse_load)
          ~store:(stack (Profile.store_cold_fraction profile mt) mt.mt_reuse_store)
      in
      ( [| mt |], ratios, [| Memo.build_disp u ~mix:mt.mt_mix |],
        [| Llc_chain.chain_heads mt |], None )
  in
  let n = Array.length mts in
  let c =
    {
      opts = options;
      u;
      memo = memo_opt;
      mts;
      window = profile.p_window_instructions;
      ratios;
      inst;
      disps;
      chain_heads;
      missrate =
        (match ov.ov_branch_missrate with
        | Some r -> r
        | None -> options.branch_missrate ~entropy:profile.p_entropy);
      cold_corr = Profile.cold_correction profile;
      mlp_measured = Option.is_some ov.ov_mlp;
      chains = [||];
      acc = Array.make n_acc 0.0;
      mix_totals = Array.make Isa.n_classes 0.0;
    }
  in
  let series = Array.init n (fun k -> evaluate_microtrace c mts.(k) ~k) in
  let acc = c.acc in
  let cycles = acc.(a_cycles) and instructions = acc.(a_instructions) in
  let uops = acc.(a_uops) in
  let lm1 = acc.(a_lm1) and lm2 = acc.(a_lm2) and lm3 = acc.(a_lm3) in
  let dram_loads = acc.(a_dram_loads) and dram_stores = acc.(a_dram_stores) in
  let comps =
    {
      c_base = acc.(a_base);
      c_branch = acc.(a_branch);
      c_icache = acc.(a_icache);
      c_llc_hit = acc.(a_llc_hit);
      c_dram = acc.(a_dram);
    }
  in
  (* DRAM-weighted MLP; plain average when there are no misses. *)
  let mlp =
    if dram_loads > 0.0 then acc.(a_mlp_weighted) /. dram_loads
    else if n = 0 then 1.0
    else acc.(a_mlp_plain) /. float_of_int n
  in
  let limits =
    let w = Float.max 1.0 uops in
    {
      Dispatch_model.lim_width = acc.(a_width) /. w;
      lim_dependences = acc.(a_deps) /. w;
      lim_ports = acc.(a_ports) /. w;
      lim_units = acc.(a_units) /. w;
    }
  in
  let sm3 = if dram_stores > 0.0 then dram_stores else 0.0 in
  let mix_totals = c.mix_totals in
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
      a_l2_accesses = lm1 +. store_l1_misses +. (instructions *. inst_raw.(0));
      a_l3_accesses = lm2 +. store_l1_misses +. (instructions *. inst_raw.(1));
      a_dram_accesses = dram_loads +. dram_stores +. (instructions *. inst_raw.(2));
      a_branch_lookups = branches_total;
    }
  in
  {
    pr_workload = profile.p_workload;
    pr_uarch = u.name;
    pr_cycles = cycles;
    pr_instructions = instructions;
    pr_uops = uops;
    pr_components = comps;
    pr_mlp = mlp;
    pr_branch_mispredicts = acc.(a_mispredicts);
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

(* [timing_key u = timing_key v], field by field and physical first,
   allocating nothing.  Full record patterns: a new config field fails to
   compile here until it is compared (or, like [name], ignored). *)
let same_level (a : Uarch.cache_level) (b : Uarch.cache_level) =
  let { Uarch.size_bytes; assoc; line_bytes; latency } = a in
  a == b
  || size_bytes = b.size_bytes && assoc = b.assoc && line_bytes = b.line_bytes
     && latency = b.latency

let same_timing (u : Uarch.t) (v : Uarch.t) =
  let { Uarch.name = _; core; caches; predictor; memory; prefetcher; operating_point = _ } =
    u
  in
  let same_core (a : Uarch.core) (b : Uarch.core) =
    let { Uarch.dispatch_width; rob_size; issue_queue_size; frontend_depth; n_ports;
          functional_units; mshr_entries } = a
    in
    a == b
    || dispatch_width = b.dispatch_width && rob_size = b.rob_size
       && issue_queue_size = b.issue_queue_size
       && frontend_depth = b.frontend_depth && n_ports = b.n_ports
       && mshr_entries = b.mshr_entries
       && same_units functional_units b.functional_units
  in
  let same_caches (a : Uarch.caches) (b : Uarch.caches) =
    let { Uarch.l1i; l1d; l2; l3 } = a in
    a == b
    || same_level l1i b.l1i && same_level l1d b.l1d && same_level l2 b.l2
       && same_level l3 b.l3
  in
  let same_predictor (a : Uarch.branch_predictor) (b : Uarch.branch_predictor) =
    let { Uarch.kind; history_bits; table_bits } = a in
    a == b
    || kind == b.kind && history_bits = b.history_bits && table_bits = b.table_bits
  in
  let same_memory (a : Uarch.memory) (b : Uarch.memory) =
    let { Uarch.dram_latency; bus_transfer; dram_page_bytes } = a in
    a == b
    || dram_latency = b.dram_latency && bus_transfer = b.bus_transfer
       && dram_page_bytes = b.dram_page_bytes
  in
  let same_prefetcher (a : Uarch.prefetcher) (b : Uarch.prefetcher) =
    let { Uarch.pf_enabled; pf_kind; pf_table_entries } = a in
    a == b
    || pf_enabled = b.pf_enabled && pf_kind == b.pf_kind
       && pf_table_entries = b.pf_table_entries
  in
  u == v
  || same_core core v.core && same_caches caches v.caches
     && same_predictor predictor v.predictor && same_memory memory v.memory
     && same_prefetcher prefetcher v.prefetcher

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
