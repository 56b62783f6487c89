type config = {
  window_instructions : int;
  microtrace_instructions : int;
  rob_sizes : int array;
  line_bytes : int;
  entropy_history_bits : int;
}

let default_config =
  {
    window_instructions = 10_000;
    microtrace_instructions = 1_000;
    rob_sizes = Dep_chains.default_rob_sizes;
    line_bytes = 64;
    entropy_history_bits = 4;
  }

let default_warmup = 10_000

(* Mutable per-static-load accumulator (finalized into Profile.static_load). *)
type sl_builder = {
  b_static_id : int;
  b_first_pos : int;
  mutable b_count : int;
  mutable b_last_pos : int;
  mutable b_last_addr : int;
  b_spacing : Histogram.t;
  b_strides : Histogram.t;
  b_reuse : Histogram.t;
  mutable b_cold : int;
}

type mt_builder = {
  mutable u_buf : Isa.uop array;
  mutable u_len : int;
  reuse_load : Histogram.t;
  reuse_store : Histogram.t;
  mutable mem_samples : int;
  mutable mem_cold : int;
  mutable store_cold : int;
  mutable cold_load_positions : int list;  (* uop offsets of cold load misses *)
  statics : (int, sl_builder) Hashtbl.t;
  mutable branches : int;
}

let new_mt_builder cap =
  {
    u_buf = Array.make cap Isa.nop;
    u_len = 0;
    reuse_load = Histogram.create ();
    reuse_store = Histogram.create ();
    mem_samples = 0;
    mem_cold = 0;
    store_cold = 0;
    cold_load_positions = [];
    statics = Hashtbl.create 128;
    branches = 0;
  }

let push_uop b (u : Isa.uop) =
  if b.u_len = Array.length b.u_buf then begin
    let bigger = Array.make (2 * b.u_len) Isa.nop in
    Array.blit b.u_buf 0 bigger 0 b.u_len;
    b.u_buf <- bigger
  end;
  b.u_buf.(b.u_len) <- u;
  b.u_len <- b.u_len + 1

let cold_stats_of ~rob_sizes ~n_uops positions =
  let k = Array.length rob_sizes in
  let windows = Array.make k 0 in
  let windows_hit = Array.make k 0 in
  let total = Array.make k 0 in
  let pos = Array.of_list (List.rev positions) in
  Array.iteri
    (fun si rob ->
      let n_windows = (n_uops + rob - 1) / rob in
      windows.(si) <- n_windows;
      let per_window = Array.make (max 1 n_windows) 0 in
      Array.iter
        (fun p ->
          let w = p / rob in
          if w < n_windows then per_window.(w) <- per_window.(w) + 1)
        pos;
      Array.iter
        (fun c ->
          if c > 0 then begin
            windows_hit.(si) <- windows_hit.(si) + 1;
            total.(si) <- total.(si) + c
          end)
        per_window)
    rob_sizes;
  { Profile.cold_rob_sizes = rob_sizes; cold_windows = windows;
    cold_windows_hit = windows_hit; cold_total = total }

let finalize_mt ~cfg ~index ~start_instruction ~instructions (b : mt_builder) =
  let uops = Array.sub b.u_buf 0 b.u_len in
  let mix = Isa.Class_counts.create () in
  Array.iter (fun (u : Isa.uop) -> Isa.Class_counts.incr mix u.cls) uops;
  let max_rob =
    Array.fold_left max 1 cfg.rob_sizes
  in
  let statics =
    Hashtbl.fold
      (fun _ sb acc ->
        let cold_fraction =
          if sb.b_count = 0 then 0.0
          else float_of_int sb.b_cold /. float_of_int sb.b_count
        in
        {
          Profile.sl_static_id = sb.b_static_id;
          sl_first_pos = sb.b_first_pos;
          sl_count = sb.b_count;
          sl_spacing = sb.b_spacing;
          sl_strides = sb.b_strides;
          sl_reuse = sb.b_reuse;
          sl_cold = sb.b_cold;
          sl_stack = lazy (Statstack.of_reuse_histogram ~cold_fraction sb.b_reuse);
        }
        :: acc)
      b.statics []
  in
  {
    Profile.mt_index = index;
    mt_start_instruction = start_instruction;
    mt_instructions = instructions;
    mt_uops = b.u_len;
    mt_mix = mix;
    mt_chains = Dep_chains.analyze ~rob_sizes:cfg.rob_sizes uops;
    mt_load_depth = Dep_chains.load_depth_distribution ~window:max_rob uops;
    mt_reuse_load = b.reuse_load;
    mt_reuse_store = b.reuse_store;
    mt_mem_samples = b.mem_samples;
    mt_mem_cold = b.mem_cold;
    mt_store_cold = b.store_cold;
    mt_cold = cold_stats_of ~rob_sizes:cfg.rob_sizes ~n_uops:b.u_len
        b.cold_load_positions;
    mt_static_loads = statics;
    mt_branches = b.branches;
  }

(* Stream-spanning profiling state.  One per shard: the reuse tables and
   entropy histories cover that shard's region (plus its warm-up prefix),
   and the counters cover the region only, so per-shard counters sum to
   the sequential totals. *)
type stream_state = {
  ss_entropy : Entropy.t;
  (* Data-side reuse tracking: line -> index of its last access. *)
  ss_last_access : (int, int) Hashtbl.t;
  mutable ss_mem_idx : int;
  (* Instruction-side reuse tracking. *)
  ss_inst_last : (int, int) Hashtbl.t;
  mutable ss_inst_idx : int;
  ss_inst_hist : Histogram.t;
  mutable ss_inst_cold : int;
  mutable ss_inst_samples : int;
  mutable ss_inst_accesses : int;
  mutable ss_inst_cold_exact : int;
  mutable ss_data_accesses : int;
  mutable ss_data_cold : int;
  ss_line_shift : int;
  mutable ss_current : mt_builder option;
}

let new_stream_state cfg =
  let line_shift =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
    go 0 cfg.line_bytes
  in
  {
    ss_entropy = Entropy.create ~history_bits:cfg.entropy_history_bits ();
    ss_last_access = Hashtbl.create 65536;
    ss_mem_idx = 0;
    ss_inst_last = Hashtbl.create 4096;
    ss_inst_idx = 0;
    ss_inst_hist = Histogram.create ();
    ss_inst_cold = 0;
    ss_inst_samples = 0;
    ss_inst_accesses = 0;
    ss_inst_cold_exact = 0;
    ss_data_accesses = 0;
    ss_data_cold = 0;
    ss_line_shift = line_shift;
    ss_current = None;
  }

(* Warm-up consumer: advance the reuse tables, access indices and branch
   history registers exactly as [process] would, but record nothing — no
   histogram entries, no cold/access counters, no entropy outcome counts.
   Warm-up uops belong to an earlier shard's region; that shard records
   them.  With an unbounded warm-up the tables a shard starts its region
   with are exactly the sequential profiler's tables at that point, which
   is what makes the merged profile bit-identical. *)
let warm_process st (u : Isa.uop) =
  if u.cls = Isa.Branch then
    Entropy.prime st.ss_entropy ~static_id:u.static_id ~taken:u.taken;
  if u.begins_instruction then begin
    let iline = (u.static_id * Workload_gen.instruction_bytes) asr st.ss_line_shift in
    Hashtbl.replace st.ss_inst_last iline st.ss_inst_idx;
    st.ss_inst_idx <- st.ss_inst_idx + 1
  end;
  if Isa.is_memory u then begin
    let line = u.addr asr st.ss_line_shift in
    Hashtbl.replace st.ss_last_access line st.ss_mem_idx;
    st.ss_mem_idx <- st.ss_mem_idx + 1
  end

let process st (u : Isa.uop) =
  let recording = st.ss_current in
  (match recording with
  | Some b ->
    push_uop b u;
    if u.cls = Isa.Branch then b.branches <- b.branches + 1
  | None -> ());
  (* Branch entropy is maintained over the full stream: histories must
     not be broken by sampling gaps. *)
  if u.cls = Isa.Branch then
    Entropy.observe st.ss_entropy ~static_id:u.static_id ~taken:u.taken;
  (* Instruction-side reuse distances. *)
  if u.begins_instruction then begin
    let iline = (u.static_id * Workload_gen.instruction_bytes) asr st.ss_line_shift in
    st.ss_inst_accesses <- st.ss_inst_accesses + 1;
    (match Hashtbl.find_opt st.ss_inst_last iline with
    | Some prev ->
      if recording <> None then begin
        Histogram.add st.ss_inst_hist (st.ss_inst_idx - prev - 1);
        st.ss_inst_samples <- st.ss_inst_samples + 1
      end
    | None ->
      st.ss_inst_cold_exact <- st.ss_inst_cold_exact + 1;
      if recording <> None then begin
        st.ss_inst_cold <- st.ss_inst_cold + 1;
        st.ss_inst_samples <- st.ss_inst_samples + 1
      end);
    Hashtbl.replace st.ss_inst_last iline st.ss_inst_idx;
    st.ss_inst_idx <- st.ss_inst_idx + 1
  end;
  (* Data-side reuse distances + per-static-load distributions. *)
  if Isa.is_memory u then begin
    let line = u.addr asr st.ss_line_shift in
    let prev = Hashtbl.find_opt st.ss_last_access line in
    st.ss_data_accesses <- st.ss_data_accesses + 1;
    if prev = None then st.ss_data_cold <- st.ss_data_cold + 1;
    (match recording with
    | Some b ->
      let pos = b.u_len - 1 in
      b.mem_samples <- b.mem_samples + 1;
      let is_store = u.cls = Isa.Store in
      (match prev with
      | Some p ->
        let rd = st.ss_mem_idx - p - 1 in
        Histogram.add (if is_store then b.reuse_store else b.reuse_load) rd
      | None ->
        b.mem_cold <- b.mem_cold + 1;
        if is_store then b.store_cold <- b.store_cold + 1
        else b.cold_load_positions <- pos :: b.cold_load_positions);
      if not is_store then begin
        let sb =
          match Hashtbl.find_opt b.statics u.static_id with
          | Some sb -> sb
          | None ->
            let sb =
              {
                b_static_id = u.static_id;
                b_first_pos = pos;
                b_count = 0;
                b_last_pos = pos;
                b_last_addr = u.addr;
                b_spacing = Histogram.create ();
                b_strides = Histogram.create ();
                b_reuse = Histogram.create ();
                b_cold = 0;
              }
            in
            Hashtbl.replace b.statics u.static_id sb;
            sb
        in
        if sb.b_count > 0 then begin
          Histogram.add sb.b_spacing (pos - sb.b_last_pos);
          Histogram.add sb.b_strides (u.addr - sb.b_last_addr)
        end;
        (match prev with
        | Some p -> Histogram.add sb.b_reuse (st.ss_mem_idx - p - 1)
        | None -> sb.b_cold <- sb.b_cold + 1);
        sb.b_count <- sb.b_count + 1;
        sb.b_last_pos <- pos;
        sb.b_last_addr <- u.addr
      end
    | None -> ());
    Hashtbl.replace st.ss_last_access line st.ss_mem_idx;
    st.ss_mem_idx <- st.ss_mem_idx + 1
  end

(* One profiled stream region, ready to merge. *)
type shard = {
  sh_microtraces : Profile.microtrace list;  (* in reverse stream order *)
  sh_state : stream_state;
  sh_instructions : int;  (* instructions in [start, start+length) *)
  sh_uops : int;  (* uops expanded from those instructions *)
}

(* Profile the region [start, start+length) of the stream defined by
   (spec, seed).  The generator is recreated from the seed and
   fast-forwarded, so workers share no mutable state.  [warmup]
   instructions before [start] are run through [warm_process] first. *)
let profile_region ~cfg spec ~seed ~start ~length ~warmup =
  let gen = Workload_gen.create spec ~seed in
  let st = new_stream_state cfg in
  let warm_start = max 0 (start - warmup) in
  Workload_gen.fast_forward gen ~to_instruction:warm_start;
  if start > warm_start then
    Workload_gen.iter_uops gen ~n_instructions:(start - warm_start)
      ~f:(warm_process st);
  let uops0 = Workload_gen.uops_emitted gen in
  let microtraces = ref [] in
  let mt_count = ref 0 in
  let consumed = ref 0 in
  while !consumed < length do
    let mt_len = min cfg.microtrace_instructions (length - !consumed) in
    let b = new_mt_builder (2 * mt_len) in
    st.ss_current <- Some b;
    let start_instruction = Workload_gen.instructions_emitted gen in
    Workload_gen.iter_uops gen ~n_instructions:mt_len ~f:(process st);
    st.ss_current <- None;
    microtraces :=
      finalize_mt ~cfg ~index:!mt_count ~start_instruction ~instructions:mt_len b
      :: !microtraces;
    incr mt_count;
    consumed := !consumed + mt_len;
    let skip = min (cfg.window_instructions - mt_len) (length - !consumed) in
    if skip > 0 then begin
      Workload_gen.iter_uops gen ~n_instructions:skip ~f:(process st);
      consumed := !consumed + skip
    end
  done;
  {
    sh_microtraces = !microtraces;
    sh_state = st;
    sh_instructions = Workload_gen.instructions_emitted gen - start;
    sh_uops = Workload_gen.uops_emitted gen - uops0;
  }

(* Split [0, n_instructions) into at most [shards] contiguous regions whose
   boundaries fall on window multiples, balanced to within one window.
   Window alignment makes each shard's micro-trace sampling grid coincide
   with the sequential profiler's, so shard count never moves a sample. *)
let shard_bounds ~window ~n_instructions shards =
  let n_windows = (n_instructions + window - 1) / window in
  let k = max 1 (min shards n_windows) in
  let base = n_windows / k and extra = n_windows mod k in
  let bounds = Array.make k (0, 0) in
  let start_w = ref 0 in
  for i = 0 to k - 1 do
    let wi = base + if i < extra then 1 else 0 in
    let start = !start_w * window in
    let length = min (wi * window) (n_instructions - start) in
    bounds.(i) <- (start, length);
    start_w := !start_w + wi
  done;
  bounds

let merge_shards ~cfg ~workload shards =
  let n_shards = Array.length shards in
  let mts =
    Array.to_list shards
    |> List.concat_map (fun sh -> List.rev sh.sh_microtraces)
    |> Array.of_list
    |> Array.mapi (fun i mt -> { mt with Profile.mt_index = i })
  in
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 shards in
  let st0 = shards.(0).sh_state in
  let inst_hist =
    if n_shards = 1 then st0.ss_inst_hist
    else
      Array.fold_left
        (fun acc sh -> Histogram.merge acc sh.sh_state.ss_inst_hist)
        (Histogram.create ()) shards
  in
  let entropy =
    if n_shards = 1 then st0.ss_entropy
    else
      Array.fold_left
        (fun acc sh -> Entropy.merge acc sh.sh_state.ss_entropy)
        st0.ss_entropy
        (Array.sub shards 1 (n_shards - 1))
  in
  let total_instr = sum (fun sh -> sh.sh_instructions) in
  let total_uops = sum (fun sh -> sh.sh_uops) in
  let inst_accesses = sum (fun sh -> sh.sh_state.ss_inst_accesses) in
  let inst_cold_exact = sum (fun sh -> sh.sh_state.ss_inst_cold_exact) in
  let branch_uops =
    Array.fold_left (fun acc mt -> acc + mt.Profile.mt_branches) 0 mts
  in
  let sampled_uops =
    Array.fold_left (fun acc mt -> acc + mt.Profile.mt_uops) 0 mts
  in
  {
    Profile.p_workload = workload;
    p_window_instructions = cfg.window_instructions;
    p_microtrace_instructions = cfg.microtrace_instructions;
    p_total_instructions = total_instr;
    p_line_bytes = cfg.line_bytes;
    p_microtraces = mts;
    p_entropy = Entropy.linear_entropy entropy;
    p_branch_fraction =
      (if sampled_uops = 0 then 0.0
       else float_of_int branch_uops /. float_of_int sampled_uops);
    p_uops_per_instruction =
      (if total_instr = 0 then 1.0
       else float_of_int total_uops /. float_of_int total_instr);
    p_reuse_inst = inst_hist;
    p_inst_cold_fraction =
      (if inst_accesses = 0 then 0.0
       else float_of_int inst_cold_exact /. float_of_int inst_accesses);
    p_inst_samples = sum (fun sh -> sh.sh_state.ss_inst_samples);
    p_data_accesses = sum (fun sh -> sh.sh_state.ss_data_accesses);
    p_data_cold = sum (fun sh -> sh.sh_state.ss_data_cold);
    p_derived = Profile.fresh_derived ();
  }

let profile ?(config = default_config) ?(jobs = 1) ?(warmup = default_warmup)
    spec ~seed ~n_instructions =
  if jobs < 1 then invalid_arg "Profiler.profile: jobs must be >= 1";
  if warmup < 0 then invalid_arg "Profiler.profile: warmup must be >= 0";
  let cfg = config in
  let bounds =
    shard_bounds ~window:cfg.window_instructions ~n_instructions jobs
  in
  let shards =
    Parallel.map_array ~jobs
      (fun (start, length) ->
        (* The first shard has no prefix to warm from; it is exact. *)
        let warmup = if start = 0 then 0 else warmup in
        profile_region ~cfg spec ~seed ~start ~length ~warmup)
      bounds
  in
  merge_shards ~cfg ~workload:spec.Workload_spec.wname shards

(* The pre-sharding profiler, kept verbatim as the reference the sharded
   pipeline is pinned against: tests and the profile_shards bench assert
   that [profile ~jobs:1] (and [profile ~jobs:k ~warmup:max_int]) produce
   bit-identical serialized profiles. *)
let profile_legacy ?(config = default_config) spec ~seed ~n_instructions =
  let cfg = config in
  let gen = Workload_gen.create spec ~seed in
  let entropy = Entropy.create ~history_bits:cfg.entropy_history_bits () in
  (* Data-side reuse tracking: line -> index of its last access. *)
  let last_access : (int, int) Hashtbl.t = Hashtbl.create 65536 in
  let mem_idx = ref 0 in
  (* Instruction-side reuse tracking. *)
  let inst_last : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let inst_idx = ref 0 in
  let inst_hist = Histogram.create () in
  let inst_cold = ref 0 in
  let inst_samples = ref 0 in
  let inst_accesses = ref 0 in
  let inst_cold_exact = ref 0 in
  let data_accesses = ref 0 in
  let data_cold = ref 0 in
  let line_shift =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
    go 0 cfg.line_bytes
  in
  let microtraces = ref [] in
  let mt_count = ref 0 in
  let current : mt_builder option ref = ref None in
  let process (u : Isa.uop) =
    let recording = !current in
    (match recording with
    | Some b ->
      push_uop b u;
      if u.cls = Isa.Branch then b.branches <- b.branches + 1
    | None -> ());
    if u.cls = Isa.Branch then
      Entropy.observe entropy ~static_id:u.static_id ~taken:u.taken;
    if u.begins_instruction then begin
      let iline = (u.static_id * Workload_gen.instruction_bytes) asr line_shift in
      incr inst_accesses;
      (match Hashtbl.find_opt inst_last iline with
      | Some prev ->
        if recording <> None then begin
          Histogram.add inst_hist (!inst_idx - prev - 1);
          incr inst_samples
        end
      | None ->
        incr inst_cold_exact;
        if recording <> None then begin
          incr inst_cold;
          incr inst_samples
        end);
      Hashtbl.replace inst_last iline !inst_idx;
      incr inst_idx
    end;
    if Isa.is_memory u then begin
      let line = u.addr asr line_shift in
      let prev = Hashtbl.find_opt last_access line in
      incr data_accesses;
      if prev = None then incr data_cold;
      (match recording with
      | Some b ->
        let pos = b.u_len - 1 in
        b.mem_samples <- b.mem_samples + 1;
        let is_store = u.cls = Isa.Store in
        (match prev with
        | Some p ->
          let rd = !mem_idx - p - 1 in
          Histogram.add (if is_store then b.reuse_store else b.reuse_load) rd
        | None ->
          b.mem_cold <- b.mem_cold + 1;
          if is_store then b.store_cold <- b.store_cold + 1
          else b.cold_load_positions <- pos :: b.cold_load_positions);
        if not is_store then begin
          let sb =
            match Hashtbl.find_opt b.statics u.static_id with
            | Some sb -> sb
            | None ->
              let sb =
                {
                  b_static_id = u.static_id;
                  b_first_pos = pos;
                  b_count = 0;
                  b_last_pos = pos;
                  b_last_addr = u.addr;
                  b_spacing = Histogram.create ();
                  b_strides = Histogram.create ();
                  b_reuse = Histogram.create ();
                  b_cold = 0;
                }
              in
              Hashtbl.replace b.statics u.static_id sb;
              sb
          in
          if sb.b_count > 0 then begin
            Histogram.add sb.b_spacing (pos - sb.b_last_pos);
            Histogram.add sb.b_strides (u.addr - sb.b_last_addr)
          end;
          (match prev with
          | Some p -> Histogram.add sb.b_reuse (!mem_idx - p - 1)
          | None -> sb.b_cold <- sb.b_cold + 1);
          sb.b_count <- sb.b_count + 1;
          sb.b_last_pos <- pos;
          sb.b_last_addr <- u.addr
        end
      | None -> ());
      Hashtbl.replace last_access line !mem_idx;
      incr mem_idx
    end
  in
  let consumed = ref 0 in
  while !consumed < n_instructions do
    let mt_len = min cfg.microtrace_instructions (n_instructions - !consumed) in
    let b = new_mt_builder (2 * mt_len) in
    current := Some b;
    let start_instruction = Workload_gen.instructions_emitted gen in
    Workload_gen.iter_uops gen ~n_instructions:mt_len ~f:process;
    current := None;
    microtraces :=
      finalize_mt ~cfg ~index:!mt_count ~start_instruction ~instructions:mt_len b
      :: !microtraces;
    incr mt_count;
    consumed := !consumed + mt_len;
    let skip = min (cfg.window_instructions - mt_len) (n_instructions - !consumed) in
    if skip > 0 then begin
      Workload_gen.iter_uops gen ~n_instructions:skip ~f:process;
      consumed := !consumed + skip
    end
  done;
  let mts = Array.of_list (List.rev !microtraces) in
  let total_uops = Workload_gen.uops_emitted gen in
  let total_instr = Workload_gen.instructions_emitted gen in
  let branch_uops =
    Array.fold_left (fun acc mt -> acc + mt.Profile.mt_branches) 0 mts
  in
  let sampled_uops = Array.fold_left (fun acc mt -> acc + mt.Profile.mt_uops) 0 mts in
  {
    Profile.p_workload = spec.Workload_spec.wname;
    p_window_instructions = cfg.window_instructions;
    p_microtrace_instructions = cfg.microtrace_instructions;
    p_total_instructions = total_instr;
    p_line_bytes = cfg.line_bytes;
    p_microtraces = mts;
    p_entropy = Entropy.linear_entropy entropy;
    p_branch_fraction =
      (if sampled_uops = 0 then 0.0
       else float_of_int branch_uops /. float_of_int sampled_uops);
    p_uops_per_instruction =
      (if total_instr = 0 then 1.0
       else float_of_int total_uops /. float_of_int total_instr);
    p_reuse_inst = inst_hist;
    p_inst_cold_fraction =
      (if !inst_accesses = 0 then 0.0
       else float_of_int !inst_cold_exact /. float_of_int !inst_accesses);
    p_inst_samples = !inst_samples;
    p_data_accesses = !data_accesses;
    p_data_cold = !data_cold;
    p_derived = Profile.fresh_derived ();
  }

let full_instruction_mix spec ~seed ~n_instructions =
  let gen = Workload_gen.create spec ~seed in
  let mix = Isa.Class_counts.create () in
  Workload_gen.iter_uops gen ~n_instructions ~f:(fun (u : Isa.uop) ->
      Isa.Class_counts.incr mix u.cls);
  mix

let full_chains ?(rob_sizes = Dep_chains.default_rob_sizes) spec ~seed ~n_instructions =
  let gen = Workload_gen.create spec ~seed in
  let buf = ref [] in
  Workload_gen.iter_uops gen ~n_instructions ~f:(fun u -> buf := u :: !buf);
  Dep_chains.analyze ~rob_sizes (Array.of_list (List.rev !buf))
