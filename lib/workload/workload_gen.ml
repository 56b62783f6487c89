open Workload_spec

let instruction_bytes = 8

(* Per-static-load dynamic state. *)
type load_state = {
  ls_pattern : stride_pattern;
  ls_base : int;
  ls_footprint : int;
  ls_strides : int array;
  mutable ls_cursor : int;
  mutable ls_stride_idx : int;
  ls_load_dep : bool;  (* pointer-chasing load *)
}

type branch_state = { bs_kind : branch_kind; mutable bs_counter : int }

type slot = {
  sl_template : template;
  sl_static_id : int;
  sl_chain : int;  (* accumulator chain index, -1 when none *)
  sl_load : load_state option;
  sl_store_base : int;  (* region base for stores; 0 when not a store *)
  sl_store_footprint : int;
  sl_branch : branch_state option;
}

type body = { slots : slot array }

type phase_state = {
  ps_spec : phase;
  ps_bodies : body array;
  ps_chain_last : int array;  (* uop index of the last member of each chain *)
  ps_near_p : float;  (* 1 / dep_mean *)
  ps_near_log_q : float;  (* log (1 - ps_near_p), computed once *)
}

type t = {
  rng : Rng.t;
  spec : Workload_spec.t;
  phases : phase_state array;
  mutable instr_count : int;
  (* Where instruction [instr_count] sits (see [locate]). *)
  mutable phase_idx : int;
  mutable phase_left : int;  (* instructions before the next phase *)
  mutable body_idx : int;
  mutable burst_left : int;  (* instructions before the next body *)
  mutable slot_idx : int;
  mutable uop_count : int;
  mutable last_load_uop : int;  (* uop index of the most recent load; -1 *)
  mutable unique_cursor : int;  (* bump allocator for Unique loads *)
  scratch : int array;  (* one instruction's packed micro-ops *)
}

(* Region allocation: 1 GiB-spaced regions keep every static structure's
   addresses disjoint so footprints compose additively.  [space_offset]
   (per generator instance) keeps co-running workloads' address spaces
   disjoint too — without it, two cores sharing an LLC would
   constructively share each other's data. *)
let region_size = 1 lsl 30

let build_phase rng ~space_offset ~code_base ~phase_idx ~store_region (p : phase) =
  let next_region = ref 0 in
  let fresh_region () =
    incr next_region;
    space_offset + (((phase_idx * 4096) + !next_region) * region_size)
  in
  (* Random_in groups share one region per group. *)
  let shared_regions =
    Array.map
      (fun g ->
        match g.lg_pattern with Random_in -> fresh_region () | _ -> 0)
      p.load_groups
  in
  let weighted_groups =
    Array.mapi (fun i g -> (g.lg_weight, (i, g))) p.load_groups
  in
  let weighted_branches = Array.map (fun g -> (g.bg_weight, g.bg_kind)) p.branch_groups in
  let make_load_state gi per_slot_footprint =
    let g = p.load_groups.(gi) in
    match g.lg_pattern with
    | Fixed_strides strides ->
      let base = fresh_region () in
      {
        ls_pattern = g.lg_pattern;
        ls_base = base;
        ls_footprint = per_slot_footprint;
        ls_strides = Array.of_list strides;
        ls_cursor = base;
        ls_stride_idx = 0;
        ls_load_dep = Rng.bernoulli rng p.load_dep_prob;
      }
    | Random_in ->
      {
        ls_pattern = g.lg_pattern;
        ls_base = shared_regions.(gi);
        ls_footprint = max 64 g.lg_footprint_bytes;
        ls_strides = [||];
        ls_cursor = shared_regions.(gi);
        ls_stride_idx = 0;
        ls_load_dep = Rng.bernoulli rng p.load_dep_prob;
      }
    | Unique ->
      {
        ls_pattern = g.lg_pattern;
        ls_base = 0;
        ls_footprint = 0;
        ls_strides = [||];
        ls_cursor = 0;
        ls_stride_idx = 0;
        ls_load_dep = Rng.bernoulli rng p.load_dep_prob;
      }
  in
  let make_branch_state () =
    { bs_kind = Rng.choose_weighted rng weighted_branches; bs_counter = 0 }
  in
  let weighted_templates = p.templates in
  let build_body body_idx =
    (* Pass 1: choose templates and load-group membership so the group's
       total footprint can be split across its strided slots. *)
    let templates_arr =
      Array.init p.body_size (fun _ -> Rng.choose_weighted rng weighted_templates)
    in
    let group_of_slot = Array.make p.body_size (-1) in
    let strided_count = Array.make (Array.length p.load_groups) 0 in
    Array.iteri
      (fun slot_idx tmpl ->
        match tmpl with
        | T_load | T_alu_mem ->
          let gi, _ = Rng.choose_weighted rng weighted_groups in
          group_of_slot.(slot_idx) <- gi;
          (match p.load_groups.(gi).lg_pattern with
          | Fixed_strides _ -> strided_count.(gi) <- strided_count.(gi) + 1
          | Random_in | Unique -> ())
        | _ -> ())
      templates_arr;
    let per_slot_footprint gi =
      match p.load_groups.(gi).lg_pattern with
      | Fixed_strides _ ->
        let n = max 1 strided_count.(gi) in
        max 64 (p.load_groups.(gi).lg_footprint_bytes / n / 64 * 64)
      | Random_in | Unique -> 0
    in
    let slots =
      Array.init p.body_size (fun slot_idx ->
          let tmpl = templates_arr.(slot_idx) in
          let static_id =
            code_base + (phase_idx * 1_000_000) + (body_idx * p.body_size) + slot_idx
          in
          let is_load = match tmpl with T_load | T_alu_mem -> true | _ -> false in
          let is_store = match tmpl with T_store | T_store2 -> true | _ -> false in
          let is_branch =
            match tmpl with T_branch | T_branch_cmp -> true | _ -> false
          in
          let is_compute =
            match tmpl with
            | T_alu | T_mul | T_fp | T_fp_mul | T_move | T_alu_mem -> true
            | _ -> false
          in
          {
            sl_template = tmpl;
            sl_static_id = static_id;
            sl_chain =
              (if is_compute && Rng.bernoulli rng p.chain_prob then
                 Rng.int rng p.n_chains
               else -1);
            sl_load =
              (if is_load then
                 let gi = group_of_slot.(slot_idx) in
                 Some (make_load_state gi (per_slot_footprint gi))
               else None);
            sl_store_base = (if is_store then store_region else 0);
            sl_store_footprint = max 64 p.store_footprint_bytes;
            sl_branch = (if is_branch then Some (make_branch_state ()) else None);
          })
    in
    { slots }
  in
  {
    ps_spec = p;
    ps_bodies = Array.init p.n_bodies build_body;
    ps_chain_last = Array.make p.n_chains (-1);
    ps_near_p = 1.0 /. p.dep_mean;
    ps_near_log_q = log (1.0 -. (1.0 /. p.dep_mean));
  }

(* Instruction i runs slot [i mod body_size] of body
   [i / body_burst mod n_bodies] of phase [i / phase_length mod phases].
   [locate] works that out for [instr_count]; [emit] then steps it one
   instruction at a time and locates again only at a phase change, so
   the per-instruction path divides nothing. *)
let locate t =
  let i = t.instr_count and len = t.spec.phase_length in
  t.phase_idx <- i / len mod Array.length t.phases;
  t.phase_left <- len - (i mod len);
  let ps = t.phases.(t.phase_idx) in
  let p = ps.ps_spec in
  t.body_idx <- i / p.body_burst mod Array.length ps.ps_bodies;
  t.burst_left <- p.body_burst - (i mod p.body_burst);
  t.slot_idx <- i mod p.body_size

let create spec ~seed =
  (match Workload_spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Workload_gen.create: " ^ msg));
  let rng = Rng.create (seed lxor (Hashtbl.hash spec.wname * 0x9e3779b9)) in
  let space_offset =
    (Hashtbl.hash (spec.wname, seed) land 0x3FFF) * (1 lsl 44)
  in
  (* Static ids (and hence code addresses) depend on the program, not the
     seed: two copies of the same benchmark share their text — as two
     processes running one binary do — while different benchmarks get
     disjoint code. *)
  let code_base = (Hashtbl.hash spec.wname land 0x7FF) * 100_000_000 in
  let phases =
    Array.mapi
      (fun i p ->
        let store_region = space_offset + ((100_000 + i) * region_size) in
        build_phase (Rng.split rng) ~space_offset ~code_base ~phase_idx:i
          ~store_region p)
      spec.phases
  in
  let t =
    {
      rng;
      spec;
      phases;
      instr_count = 0;
      phase_idx = 0;
      phase_left = 0;
      body_idx = 0;
      burst_left = 0;
      slot_idx = 0;
      uop_count = 0;
      last_load_uop = -1;
      unique_cursor = space_offset + (200_000 * region_size);
      scratch = Array.make (2 * Uop_word.words) 0;
    }
  in
  locate t;
  t

let align8 x = x land lnot 7

let next_load_address t (ls : load_state) =
  match ls.ls_pattern with
  | Fixed_strides _ ->
    let addr = ls.ls_cursor in
    let stride = ls.ls_strides.(ls.ls_stride_idx) in
    ls.ls_stride_idx <- (ls.ls_stride_idx + 1) mod Array.length ls.ls_strides;
    let next = ls.ls_cursor + stride in
    ls.ls_cursor <-
      (if next >= ls.ls_base + ls.ls_footprint || next < ls.ls_base then ls.ls_base
       else next);
    addr
  | Random_in -> ls.ls_base + align8 (Rng.int t.rng ls.ls_footprint)
  | Unique ->
    let addr = t.unique_cursor in
    t.unique_cursor <- t.unique_cursor + 64;
    addr

(* log (1 - p) of the far producers' geometric(0.002), computed once. *)
let far_log_q = log (1.0 -. 0.002)

(* Sample a register-dependence distance in micro-ops.  A producer exists
   with probability [dep_prob]; near producers sit 1 + geometric(dep_mean)
   back, far producers (fraction [far_dep_frac]) hundreds of micro-ops back
   so they fall outside any realistic ROB window.  0 means "no producer"
   (also when the sampled producer predates the stream). *)
let sample_dep t (ps : phase_state) =
  let p = ps.ps_spec in
  if not (Rng.bernoulli t.rng p.dep_prob) then 0
  else begin
    let d =
      if Rng.bernoulli t.rng p.far_dep_frac then
        512 + Rng.geometric_of_log t.rng far_log_q
      else if ps.ps_near_p > 0.0 && ps.ps_near_p < 1.0 then
        1 + Rng.geometric_of_log t.rng ps.ps_near_log_q
      else 1 + Rng.geometric t.rng ps.ps_near_p
    in
    if d > t.uop_count then 0 else d
  end

let sample_dep2 t (ps : phase_state) =
  if Rng.bernoulli t.rng ps.ps_spec.dep2_prob then sample_dep t ps else 0

(* Distance back to the chain's last member; 0 when there is none (the
   caller then samples a dependence instead). *)
let chain_dep t (ps : phase_state) chain =
  if chain < 0 then 0
  else
    let last = ps.ps_chain_last.(chain) in
    if last < 0 || last >= t.uop_count then 0 else t.uop_count - last

let record_chain (ps : phase_state) chain uop_index =
  if chain >= 0 then ps.ps_chain_last.(chain) <- uop_index

let compute_dep t ps (slot : slot) =
  let d = chain_dep t ps slot.sl_chain in
  if d > 0 then d else sample_dep t ps

let load_dep t ps (ls : load_state) =
  if ls.ls_load_dep && t.last_load_uop >= 0 then
    let d = t.uop_count - t.last_load_uop in
    if d > 0 then d else sample_dep t ps
  else sample_dep t ps

let branch_taken t (bs : branch_state) =
  let n = bs.bs_counter in
  bs.bs_counter <- n + 1;
  match bs.bs_kind with
  | Biased pr -> Rng.bernoulli t.rng pr
  | Loop_every k -> n mod k <> k - 1
  | Pattern arr -> arr.(n mod Array.length arr)

let store_address t (slot : slot) =
  slot.sl_store_base + align8 (Rng.int t.rng slot.sl_store_footprint)

let int_alu = Isa.class_index Int_alu
let load = Isa.class_index Load
let store = Isa.class_index Store
let branch = Isa.class_index Branch

let compute_class = function
  | T_alu -> int_alu
  | T_mul -> Isa.class_index Int_mul
  | T_div -> Isa.class_index Int_div
  | T_fp -> Isa.class_index Fp_alu
  | T_fp_mul -> Isa.class_index Fp_mul
  | T_fp_div -> Isa.class_index Fp_div
  | _ -> Isa.class_index Move

let max_uops_per_instruction = 2

let put buf w (slot : slot) ~cls ~begins ~taken ~addr dep1 dep2 =
  Uop_word.write buf w ~cls ~begins ~taken ~static_id:slot.sl_static_id ~dep1
    ~dep2 ~addr

(* Writes the micro-ops of one dynamic instruction from its slot, packed,
   at word [w] of [buf]; returns how many.  The random draws keep the
   order the stream was defined with: a store draws its second operand's
   dependence before its first's. *)
let expand t (ps : phase_state) (slot : slot) buf w =
  let w2 = w + Uop_word.words in
  match slot.sl_template with
  | T_alu | T_mul | T_div | T_fp | T_fp_mul | T_fp_div | T_move ->
    let dep1 = compute_dep t ps slot in
    let dep2 = sample_dep2 t ps in
    record_chain ps slot.sl_chain t.uop_count;
    put buf w slot ~cls:(compute_class slot.sl_template) ~begins:true
      ~taken:false ~addr:0 dep1 dep2;
    1
  | T_load ->
    let ls = Option.get slot.sl_load in
    let dep1 = load_dep t ps ls in
    let addr = next_load_address t ls in
    t.last_load_uop <- t.uop_count;
    put buf w slot ~cls:load ~begins:true ~taken:false ~addr dep1 0;
    1
  | T_alu_mem ->
    let ls = Option.get slot.sl_load in
    let dep1 = load_dep t ps ls in
    let addr = next_load_address t ls in
    t.last_load_uop <- t.uop_count;
    put buf w slot ~cls:load ~begins:true ~taken:false ~addr dep1 0;
    record_chain ps slot.sl_chain (t.uop_count + 1);
    let dep2 = sample_dep2 t ps in
    put buf w2 slot ~cls:int_alu ~begins:false ~taken:false ~addr:0 1 dep2;
    2
  | T_store ->
    let addr = store_address t slot in
    let dep2 = sample_dep2 t ps in
    let dep1 = sample_dep t ps in
    put buf w slot ~cls:store ~begins:true ~taken:false ~addr dep1 dep2;
    1
  | T_store2 ->
    let addr = store_address t slot in
    let dep1 = sample_dep t ps in
    put buf w slot ~cls:int_alu ~begins:true ~taken:false ~addr:0 dep1 0;
    let dep2 = sample_dep t ps in
    put buf w2 slot ~cls:store ~begins:false ~taken:false ~addr 1 dep2;
    2
  | T_branch ->
    let taken = branch_taken t (Option.get slot.sl_branch) in
    let dep1 = sample_dep t ps in
    put buf w slot ~cls:branch ~begins:true ~taken ~addr:0 dep1 0;
    1
  | T_branch_cmp ->
    let taken = branch_taken t (Option.get slot.sl_branch) in
    let dep1 = sample_dep t ps in
    put buf w slot ~cls:int_alu ~begins:true ~taken:false ~addr:0 dep1 0;
    put buf w2 slot ~cls:branch ~begins:false ~taken ~addr:0 1 0;
    2

let emit t buf w =
  let ps = t.phases.(t.phase_idx) in
  let n = expand t ps ps.ps_bodies.(t.body_idx).slots.(t.slot_idx) buf w in
  t.instr_count <- t.instr_count + 1;
  t.uop_count <- t.uop_count + n;
  t.phase_left <- t.phase_left - 1;
  if t.phase_left = 0 then locate t
  else begin
    let p = ps.ps_spec in
    t.slot_idx <- (if t.slot_idx + 1 = p.body_size then 0 else t.slot_idx + 1);
    t.burst_left <- t.burst_left - 1;
    if t.burst_left = 0 then begin
      t.burst_left <- p.body_burst;
      t.body_idx <-
        (if t.body_idx + 1 = Array.length ps.ps_bodies then 0 else t.body_idx + 1)
    end
  end;
  n

let next_instruction t =
  let buf = t.scratch in
  let d i =
    let w = i * Uop_word.words in
    Uop_word.decode buf.(w) buf.(w + 1) buf.(w + 2)
  in
  match emit t buf 0 with 1 -> [ d 0 ] | _ -> [ d 0; d 1 ]

let iter_uops t ~n_instructions ~f =
  for _ = 1 to n_instructions do
    List.iter f (next_instruction t)
  done

let skip t ~n_instructions =
  for _ = 1 to n_instructions do
    ignore (emit t t.scratch 0)
  done

let fast_forward t ~to_instruction =
  if to_instruction < t.instr_count then
    invalid_arg "Workload_gen.fast_forward: cannot rewind the stream";
  skip t ~n_instructions:(to_instruction - t.instr_count)

let instructions_emitted t = t.instr_count
let uops_emitted t = t.uop_count
