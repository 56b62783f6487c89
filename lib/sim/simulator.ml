type ideal = {
  no_branch_miss : bool;
  no_icache_miss : bool;
  no_dcache_miss : bool;
}

let real = { no_branch_miss = false; no_icache_miss = false; no_dcache_miss = false }

let classes = Array.of_list Isa.all_classes
let perfect = { no_branch_miss = true; no_icache_miss = true; no_dcache_miss = true }

(* Dispatch-stall reasons, for cycle accounting. *)
type reason = R_base | R_branch | R_icache | R_llc_hit | R_dram

let not_done = max_int

type state = {
  cfg : Uarch.t;
  idl : ideal;
  gen : Workload_gen.t;
  hier : Hierarchy.t;
  predictor : Predictor.t;
  prefetcher : Stride_prefetcher.t;
  cap : int;  (* ROB capacity *)
  (* ROB as struct-of-arrays; entry for global micro-op [g] lives in slot
     [g mod cap]. *)
  e_cls : int array;
  e_done : int array;
  e_issued : bool array;
  e_pending : int array;  (* producers not yet issued *)
  e_ready_at : int array;  (* latest completion among issued producers *)
  waiters : int list array;  (* consumers (global indices) of this slot *)
  e_addr : int array;
  e_static : int array;
  e_begins : bool array;
  e_level : int array;  (* 0 L1, 1 L2, 2 L3, 3 DRAM; -1 non-load *)
  mutable head : int;  (* oldest in-flight global index *)
  mutable tail : int;  (* next global index to allocate *)
  (* Issue queue, as wakeup/select.  A micro-op whose producers have all
     issued waits in [wake_heap] (key [ready_at * cap + slot]) until its
     operands are ready, then in [ready_heap] (key: global index, i.e. age
     order) until select finds it a port and unit. *)
  mutable iq_count : int;
  wake_heap : Int_heap.t;
  ready_heap : Int_heap.t;
  (* Per-class unit and ports; per-cycle port/FU arbitration (stamp = cycle
     of last use). *)
  fu_of : Uarch.functional_unit option array;
  ports_of : int array array;
  port_stamp : int array;
  class_issue_stamp : int array;  (* per class: cycle of last counting *)
  class_issue_count : int array;
  fu_busy : int array array;  (* per class: busy-until per unit instance *)
  (* Front-end state. *)
  mutable fetch_resume_at : int;
  mutable resume_reason : reason;
  mutable blocking_branch : int;  (* global idx of unresolved mispredict; -1 *)
  mutable pending_uop : Isa.uop option;
  mutable pending_icache_done : bool;
  mutable uop_queue : Isa.uop list;  (* rest of the current instruction *)
  mutable fetched_instructions : int;
  n_instructions : int;
  (* Memory subsystem timing. *)
  outstanding : Int_heap.t;  (* completion times of in-flight L1D misses *)
  completion_heap : Int_heap.t;  (* completion times of issued micro-ops *)
  pending_fills : (int, int) Hashtbl.t;  (* line -> fill-ready cycle *)
  bus_free_at : int ref;  (* shared across cores in multi-core runs *)
  (* MLP measurement. *)
  mutable dram_cycles_total : int;
  mutable dram_covered_end : int;
  mutable dram_busy_cycles : int;
  (* Statistics. *)
  mutable cycle : int;
  mutable committed_instructions : int;
  mutable committed_uops : int;
  mutable branches : int;
  mutable branch_miss : int;
  mutable dram_loads : int;
  mutable dram_stores : int;
  mutable l1i_accesses : int;
  stall_cycles : float array;  (* indexed by reason *)
  uops_by_class : int array;
  (* Time series. *)
  ts_interval : int;
  mutable ts_last_cycle : int;
  mutable ts_last_instr : int;
  mutable ts : (int * float) list;
}

let reason_index = function
  | R_base -> 0
  | R_branch -> 1
  | R_icache -> 2
  | R_llc_hit -> 3
  | R_dram -> 4

let create ?shared_l3 ?shared_bus cfg idl gen ~n_instructions ~ts_interval =
  let cap = cfg.Uarch.core.rob_size in
  let n_class = Isa.n_classes in
  let fu_of =
    Array.map
      (fun cls ->
        List.find_opt (fun (fu : Uarch.functional_unit) -> fu.serves = cls)
          cfg.core.functional_units)
      classes
  in
  {
    cfg;
    idl;
    gen;
    hier = Hierarchy.create ?shared_l3 cfg.caches;
    predictor = Predictor.create cfg.predictor;
    prefetcher =
      Stride_prefetcher.create cfg.prefetcher
        ~dram_page_bytes:cfg.memory.dram_page_bytes;
    cap;
    e_cls = Array.make cap 0;
    e_done = Array.make cap not_done;
    e_issued = Array.make cap false;
    e_pending = Array.make cap 0;
    e_ready_at = Array.make cap 0;
    waiters = Array.make cap [];
    e_addr = Array.make cap 0;
    e_static = Array.make cap 0;
    e_begins = Array.make cap false;
    e_level = Array.make cap (-1);
    head = 0;
    tail = 0;
    iq_count = 0;
    wake_heap = Int_heap.create ();
    ready_heap = Int_heap.create ();
    fu_of;
    ports_of =
      Array.map
        (function
          | Some (fu : Uarch.functional_unit) -> Array.of_list fu.usable_ports
          | None -> [||])
        fu_of;
    port_stamp = Array.make cfg.core.n_ports (-1);
    class_issue_stamp = Array.make n_class (-1);
    class_issue_count = Array.make n_class 0;
    fu_busy =
      Array.map
        (function
          | Some (fu : Uarch.functional_unit) when not fu.pipelined ->
            Array.make fu.unit_count (-1)
          | _ -> [||])
        fu_of;
    fetch_resume_at = 0;
    resume_reason = R_base;
    blocking_branch = -1;
    pending_uop = None;
    pending_icache_done = false;
    uop_queue = [];
    fetched_instructions = 0;
    n_instructions;
    outstanding = Int_heap.create ();
    completion_heap = Int_heap.create ();
    pending_fills = Hashtbl.create 256;
    bus_free_at = (match shared_bus with Some b -> b | None -> ref 0);
    dram_cycles_total = 0;
    dram_covered_end = 0;
    dram_busy_cycles = 0;
    cycle = 0;
    committed_instructions = 0;
    committed_uops = 0;
    branches = 0;
    branch_miss = 0;
    dram_loads = 0;
    dram_stores = 0;
    l1i_accesses = 0;
    stall_cycles = Array.make 5 0.0;
    uops_by_class = Array.make n_class 0;
    ts_interval;
    ts_last_cycle = 0;
    ts_last_instr = 0;
    ts = [];
  }

let slot t g = g mod t.cap

(* The global index of an in-flight slot: the one in [head, head + cap). *)
let global_of_slot t s = t.head + ((s - slot t t.head + t.cap) mod t.cap)

(* ---- Front-end ---- *)

let next_uop t =
  match t.pending_uop with
  | Some _ as u -> u
  | None -> (
    match t.uop_queue with
    | u :: rest ->
      t.uop_queue <- rest;
      t.pending_uop <- Some u;
      t.pending_uop
    | [] ->
      if t.fetched_instructions >= t.n_instructions then None
      else begin
        t.fetched_instructions <- t.fetched_instructions + 1;
        match Workload_gen.next_instruction t.gen with
        | [] -> None
        | u :: rest ->
          t.uop_queue <- rest;
          t.pending_uop <- Some u;
          t.pending_uop
      end)

let consume_uop t =
  t.pending_uop <- None;
  t.pending_icache_done <- false

let inst_fetch_penalty t level =
  let c = t.cfg.Uarch.caches and m = t.cfg.Uarch.memory in
  match level with
  | Hierarchy.L1 -> 0
  | Hierarchy.L2 -> c.l2.latency
  | Hierarchy.L3 -> c.l3.latency
  | Hierarchy.Dram -> c.l3.latency + m.dram_latency + m.bus_transfer

(* ---- Memory subsystem ---- *)

(* Union-of-intervals bookkeeping for measured MLP. *)
let record_dram_interval t ~start ~finish =
  t.dram_cycles_total <- t.dram_cycles_total + (finish - start);
  let uncovered_start = max start t.dram_covered_end in
  if finish > uncovered_start then
    t.dram_busy_cycles <- t.dram_busy_cycles + (finish - uncovered_start);
  if finish > t.dram_covered_end then t.dram_covered_end <- finish

(* Completion cycle of a DRAM access issued (to the memory controller) at
   [start]: full latency, then the line transfer serializes on the bus. *)
let dram_completion t ~start =
  let m = t.cfg.Uarch.memory in
  let data_ready = start + m.dram_latency in
  let transfer_begin = max (data_ready - m.bus_transfer) !(t.bus_free_at) in
  let finish = transfer_begin + m.bus_transfer in
  t.bus_free_at := finish;
  finish

(* MSHR admission for an L1D miss issued at the current cycle: returns the
   cycle the miss can actually start. *)
let mshr_start t =
  ignore (Int_heap.pop_while_le t.outstanding t.cycle);
  if Int_heap.size t.outstanding >= t.cfg.Uarch.core.mshr_entries then
    Int_heap.pop t.outstanding
  else t.cycle

(* Returns (completion cycle, level index 0..3). *)
let load_completion t ~addr ~static_id =
  let c = t.cfg.Uarch.caches in
  if t.idl.no_dcache_miss then (t.cycle + c.l1d.latency, 0)
  else begin
    let line = addr asr 6 in
    (* Coalesce with an in-flight prefetch of the same line. *)
    let prefetch_bonus =
      if Hashtbl.length t.pending_fills = 0 then None
      else
        match Hashtbl.find_opt t.pending_fills line with
        | Some ready ->
          Hashtbl.remove t.pending_fills line;
          Hierarchy.prefetch_fill t.hier addr;
          Some ready
        | None -> None
    in
    let level = Hierarchy.access_data t.hier addr ~write:false in
    (* Train the prefetcher on every demand load. *)
    (match Stride_prefetcher.observe t.prefetcher ~static_id ~addr with
    | Some target ->
      let tline = target asr 6 in
      if (not (Hierarchy.probe_llc t.hier target))
         && not (Hashtbl.mem t.pending_fills tline)
      then
        (* Prefetch fills are real memory traffic: they queue on the
           shared bus like demand misses, so an over-aggressive
           prefetcher costs bandwidth. *)
        Hashtbl.replace t.pending_fills tline (dram_completion t ~start:t.cycle)
    | None -> ());
    match prefetch_bonus with
    | Some ready ->
      (* The line is (or will be) in L2 courtesy of the prefetcher; pay
         any remaining fill time plus the L2 hit latency (Eq 4.13). *)
      (t.cycle + max c.l1d.latency (max 0 (ready - t.cycle) + c.l2.latency), 1)
    | None -> (
      match level with
      | Hierarchy.L1 -> (t.cycle + c.l1d.latency, 0)
      | Hierarchy.L2 ->
        let start = mshr_start t in
        let finish = start + c.l2.latency in
        Int_heap.push t.outstanding finish;
        (finish, 1)
      | Hierarchy.L3 ->
        let start = mshr_start t in
        let finish = start + c.l3.latency in
        Int_heap.push t.outstanding finish;
        (finish, 2)
      | Hierarchy.Dram ->
        t.dram_loads <- t.dram_loads + 1;
        let start = mshr_start t in
        let finish = dram_completion t ~start in
        Int_heap.push t.outstanding finish;
        record_dram_interval t ~start ~finish;
        (finish, 3))
  end

let store_side_effects t ~addr =
  if not t.idl.no_dcache_miss then begin
    let level = Hierarchy.access_data t.hier addr ~write:true in
    if level = Hierarchy.Dram then begin
      t.dram_stores <- t.dram_stores + 1;
      (* Stores do not stall the core but do occupy the bus. *)
      ignore (dram_completion t ~start:t.cycle)
    end
  end

(* ---- Issue ---- *)

(* Claims a free port and unit for class [cls_idx] this cycle; returns the
   unit latency, or -1 when none is free. *)
let try_allocate_fu t cls_idx =
  match t.fu_of.(cls_idx) with
  | None -> -1
  | Some fu ->
    let ports = t.ports_of.(cls_idx) in
    let rec free_port i =
      if i = Array.length ports then -1
      else if t.port_stamp.(ports.(i)) < t.cycle then ports.(i)
      else free_port (i + 1)
    in
    let p = free_port 0 in
    if p < 0 then -1
    else if fu.pipelined then begin
      if t.class_issue_stamp.(cls_idx) < t.cycle then begin
        t.class_issue_stamp.(cls_idx) <- t.cycle;
        t.class_issue_count.(cls_idx) <- 0
      end;
      if t.class_issue_count.(cls_idx) >= fu.unit_count then -1
      else begin
        t.class_issue_count.(cls_idx) <- t.class_issue_count.(cls_idx) + 1;
        t.port_stamp.(p) <- t.cycle;
        fu.unit_latency
      end
    end
    else begin
      (* Non-pipelined: need an instance that is free right now. *)
      let busy = t.fu_busy.(cls_idx) in
      let rec find i = if i >= Array.length busy then -1
        else if busy.(i) <= t.cycle then i
        else find (i + 1)
      in
      let inst = find 0 in
      if inst < 0 then -1
      else begin
        busy.(inst) <- t.cycle + fu.unit_latency;
        t.port_stamp.(p) <- t.cycle;
        fu.unit_latency
      end
    end

(* Slot [s]'s producers have all issued; its operands are ready at
   [ready_at].  One ready by now goes straight to select: woken during
   select it is younger than the producer being issued, so select still
   reaches it this cycle, as an age-ordered scan would. *)
let wake t s ready_at =
  if ready_at <= t.cycle then Int_heap.push t.ready_heap (global_of_slot t s)
  else Int_heap.push t.wake_heap ((ready_at * t.cap) + s)

let issue t s finish level =
  t.e_issued.(s) <- true;
  t.e_done.(s) <- finish;
  t.e_level.(s) <- level;
  Int_heap.push t.completion_heap finish;
  t.iq_count <- t.iq_count - 1;
  List.iter
    (fun c ->
      let cs = slot t c in
      t.e_ready_at.(cs) <- max t.e_ready_at.(cs) finish;
      t.e_pending.(cs) <- t.e_pending.(cs) - 1;
      if t.e_pending.(cs) = 0 then wake t cs t.e_ready_at.(cs))
    t.waiters.(s);
  t.waiters.(s) <- []

(* Select: every ready micro-op, oldest first, tries for a port and unit;
   the ones that get none wait for the next cycle. *)
let issue_stage t =
  let ready_by = (t.cycle + 1) * t.cap in
  while (not (Int_heap.is_empty t.wake_heap)) && Int_heap.min_elt t.wake_heap < ready_by do
    let s = Int_heap.pop t.wake_heap mod t.cap in
    Int_heap.push t.ready_heap (global_of_slot t s)
  done;
  let issued_any = ref false in
  let deferred = ref [] in
  while not (Int_heap.is_empty t.ready_heap) do
    let g = Int_heap.pop t.ready_heap in
    let s = slot t g in
    let cls_idx = t.e_cls.(s) in
    let fu_latency = try_allocate_fu t cls_idx in
    if fu_latency < 0 then deferred := g :: !deferred
    else begin
      let finish, level =
        match classes.(cls_idx) with
        | Isa.Load -> load_completion t ~addr:t.e_addr.(s) ~static_id:t.e_static.(s)
        | Isa.Store ->
          store_side_effects t ~addr:t.e_addr.(s);
          (t.cycle + fu_latency, -1)
        | _ -> (t.cycle + fu_latency, -1)
      in
      issue t s finish level;
      issued_any := true
    end
  done;
  List.iter (Int_heap.push t.ready_heap) !deferred;
  !issued_any

(* ---- Dispatch ---- *)

let dispatch_stage t =
  let core = t.cfg.Uarch.core in
  let dispatched = ref 0 in
  let stall = ref R_base in
  let blocked = ref false in
  while (not !blocked) && !dispatched < core.dispatch_width do
    if t.blocking_branch >= 0 then begin
      stall := R_branch;
      blocked := true
    end
    else if t.cycle < t.fetch_resume_at then begin
      stall := t.resume_reason;
      blocked := true
    end
    else if t.tail - t.head >= t.cap then begin
      (* ROB full: attribute to what blocks the head. *)
      let hs = slot t t.head in
      stall :=
        (if t.e_issued.(hs) && t.e_done.(hs) > t.cycle && t.e_level.(hs) = 3 then R_dram
         else if t.e_issued.(hs) && t.e_done.(hs) > t.cycle
                 && (t.e_level.(hs) = 1 || t.e_level.(hs) = 2) then R_llc_hit
         else R_base);
      blocked := true
    end
    else if t.iq_count >= core.issue_queue_size then begin
      stall := R_base;
      blocked := true
    end
    else begin
      match next_uop t with
      | None -> blocked := true
      | Some u ->
        (* I-cache check on instruction boundaries. *)
        let icache_stall =
          if u.begins_instruction && not t.pending_icache_done then begin
            t.l1i_accesses <- t.l1i_accesses + 1;
            t.pending_icache_done <- true;
            if t.idl.no_icache_miss then false
            else begin
              let iaddr = u.static_id * Workload_gen.instruction_bytes in
              let level = Hierarchy.access_inst t.hier iaddr in
              let penalty = inst_fetch_penalty t level in
              if penalty > 0 then begin
                t.fetch_resume_at <- t.cycle + penalty;
                t.resume_reason <- R_icache;
                true
              end
              else false
            end
          end
          else false
        in
        if icache_stall then begin
          (* The micro-op stays pending; it dispatches after the fill. *)
          stall := R_icache;
          blocked := true
        end
        else begin
          consume_uop t;
          let g = t.tail in
          let s = slot t g in
          let cls_idx = Isa.class_index u.cls in
          t.e_cls.(s) <- cls_idx;
          t.e_done.(s) <- not_done;
          t.e_issued.(s) <- false;
          t.e_addr.(s) <- u.addr;
          t.e_static.(s) <- u.static_id;
          t.e_begins.(s) <- u.begins_instruction;
          t.e_level.(s) <- -1;
          t.tail <- t.tail + 1;
          (* Wakeup: wait on every in-flight producer not yet issued. *)
          t.e_pending.(s) <- 0;
          t.e_ready_at.(s) <- 0;
          let depend d =
            if d >= t.head then begin
              let ds = slot t d in
              if t.e_issued.(ds) then t.e_ready_at.(s) <- max t.e_ready_at.(s) t.e_done.(ds)
              else begin
                t.e_pending.(s) <- t.e_pending.(s) + 1;
                t.waiters.(ds) <- g :: t.waiters.(ds)
              end
            end
          in
          if u.dep1 > 0 then depend (g - u.dep1);
          if u.dep2 > 0 && u.dep2 <> u.dep1 then depend (g - u.dep2);
          if t.e_pending.(s) = 0 then wake t s t.e_ready_at.(s);
          t.iq_count <- t.iq_count + 1;
          t.uops_by_class.(cls_idx) <- t.uops_by_class.(cls_idx) + 1;
          incr dispatched;
          if u.cls = Isa.Branch then begin
            t.branches <- t.branches + 1;
            let correct =
              if t.idl.no_branch_miss then true
              else
                Predictor.predict_and_update t.predictor ~static_id:u.static_id
                  ~taken:u.taken
            in
            if not correct then begin
              t.branch_miss <- t.branch_miss + 1;
              t.blocking_branch <- g
            end
          end
        end
    end
  done;
  (!dispatched, !stall)

(* ---- Commit ---- *)

let commit_stage t =
  let committed = ref 0 in
  let width = t.cfg.Uarch.core.dispatch_width in
  let continue = ref true in
  while !continue && !committed < width && t.head < t.tail do
    let s = slot t t.head in
    if t.e_issued.(s) && t.e_done.(s) <= t.cycle then begin
      if t.e_begins.(s) then begin
        t.committed_instructions <- t.committed_instructions + 1;
        if t.committed_instructions - t.ts_last_instr >= t.ts_interval then begin
          let d_instr = t.committed_instructions - t.ts_last_instr in
          let d_cycle = t.cycle - t.ts_last_cycle in
          t.ts <-
            (t.committed_instructions, float_of_int d_cycle /. float_of_int d_instr)
            :: t.ts;
          t.ts_last_instr <- t.committed_instructions;
          t.ts_last_cycle <- t.cycle
        end
      end;
      t.committed_uops <- t.committed_uops + 1;
      t.head <- t.head + 1;
      incr committed
    end
    else continue := false
  done;
  !committed

(* ---- Main loop ---- *)

let next_event_cycle t =
  let best = ref max_int in
  ignore (Int_heap.pop_while_le t.completion_heap t.cycle);
  if not (Int_heap.is_empty t.completion_heap) then
    best := min !best (Int_heap.min_elt t.completion_heap);
  if t.fetch_resume_at > t.cycle then best := min !best t.fetch_resume_at;
  Array.iter
    (fun busy -> Array.iter (fun b -> if b > t.cycle then best := min !best b) busy)
    t.fu_busy;
  if !best = max_int then t.cycle + 1 else !best

let finished t =
  t.fetched_instructions >= t.n_instructions && t.pending_uop = None
  && t.uop_queue = [] && t.head = t.tail

(* One cycle's worth of work for one core (no time advancement). *)
let step t =
  (* Resolve a blocking mispredicted branch whose execution completed. *)
  if t.blocking_branch >= 0 then begin
    let s = slot t t.blocking_branch in
    if t.e_issued.(s) && t.e_done.(s) <= t.cycle then begin
      t.fetch_resume_at <- t.e_done.(s) + t.cfg.Uarch.core.frontend_depth;
      t.resume_reason <- R_branch;
      t.blocking_branch <- -1
    end
  end;
  let committed = commit_stage t in
  let issued = issue_stage t in
  let dispatched, stall = dispatch_stage t in
  (committed, issued, dispatched, stall)

(* Attribute [delta] cycles to the right stack component and advance the
   core's clock. *)
let account t ~committed ~issued ~dispatched ~stall ~delta =
  let reason =
    if dispatched > 0 then R_base
    else if committed > 0 || issued then stall
    else stall
  in
  t.stall_cycles.(reason_index reason) <-
    t.stall_cycles.(reason_index reason) +. float_of_int delta;
  t.cycle <- t.cycle + delta

let build_result t name =
  let l1d = Hierarchy.data_stats t.hier Hierarchy.L1 in
  let l2 = Hierarchy.data_stats t.hier Hierarchy.L2 in
  let l3 = Hierarchy.data_stats t.hier Hierarchy.L3 in
  let im1 = Hierarchy.inst_misses t.hier Hierarchy.L1 in
  let im2 = Hierarchy.inst_misses t.hier Hierarchy.L2 in
  let im3 = Hierarchy.inst_misses t.hier Hierarchy.L3 in
  let stack =
    {
      Sim_result.s_base = t.stall_cycles.(0);
      s_branch = t.stall_cycles.(1);
      s_icache = t.stall_cycles.(2);
      s_llc_hit = t.stall_cycles.(3);
      s_dram = t.stall_cycles.(4);
    }
  in
  let activity =
    {
      Power.a_cycles = float_of_int t.cycle;
      a_uops = float_of_int t.committed_uops;
      a_uops_by_class = Array.map float_of_int t.uops_by_class;
      a_l1i_accesses = float_of_int t.l1i_accesses;
      a_l1d_accesses = float_of_int l1d.accesses;
      a_l2_accesses = float_of_int (l2.accesses + im1);
      a_l3_accesses = float_of_int (l3.accesses + im2);
      a_dram_accesses = float_of_int (l3.load_misses + l3.store_misses + im3);
      a_branch_lookups = float_of_int t.branches;
    }
  in
  {
    Sim_result.r_name = name;
    r_cycles = t.cycle;
    r_instructions = t.committed_instructions;
    r_uops = t.committed_uops;
    r_stack = stack;
    r_branches = t.branches;
    r_branch_mispredicts = t.branch_miss;
    r_l1d = l1d;
    r_l2 = l2;
    r_l3 = l3;
    r_inst_misses = (im1, im2, im3);
    r_dram_loads = t.dram_loads;
    r_dram_stores = t.dram_stores;
    r_mlp =
      (if t.dram_busy_cycles = 0 then 1.0
       else
         Float.max 1.0
           (float_of_int t.dram_cycles_total /. float_of_int t.dram_busy_cycles));
    r_prefetches_issued = Stride_prefetcher.issued t.prefetcher;
    r_time_series = Array.of_list (List.rev t.ts);
    r_activity = activity;
  }

let run ?(ideal = real) ?(time_series_interval = 10_000) cfg spec ~seed ~n_instructions =
  let gen = Workload_gen.create spec ~seed in
  let t = create cfg ideal gen ~n_instructions ~ts_interval:time_series_interval in
  while not (finished t) do
    let committed, issued, dispatched, stall = step t in
    if committed = 0 && (not issued) && dispatched = 0 then begin
      (* Nothing moved: fast-forward to the next event. *)
      let target = max (t.cycle + 1) (next_event_cycle t) in
      account t ~committed ~issued ~dispatched ~stall ~delta:(target - t.cycle)
    end
    else account t ~committed ~issued ~dispatched ~stall ~delta:1
  done;
  build_result t spec.Workload_spec.wname

(* ---- Multi-core: private L1/L2, shared LLC and memory bus, one clock
   (the thesis' §8.2.1 extension). ---- *)

let run_shared ?(ideal = real) ?(time_series_interval = 10_000) cfg workloads
    ~n_instructions =
  if workloads = [] then invalid_arg "Simulator.run_shared: no workloads";
  let shared_l3 = Hierarchy.make_l3 cfg.Uarch.caches in
  let shared_bus = ref 0 in
  let cores =
    List.map
      (fun (spec, seed) ->
        let gen = Workload_gen.create spec ~seed in
        ( spec.Workload_spec.wname,
          create ~shared_l3 ~shared_bus cfg ideal gen ~n_instructions
            ~ts_interval:time_series_interval ))
      workloads
    |> Array.of_list
  in
  let n = Array.length cores in
  let done_at = Array.make n (-1) in
  let all_finished () =
    let ok = ref true in
    Array.iteri
      (fun i (_, t) ->
        if done_at.(i) < 0 then
          if finished t then done_at.(i) <- t.cycle else ok := false)
      cores;
    !ok
  in
  while not (all_finished ()) do
    (* Step every unfinished core at the current (common) cycle, then
       advance all clocks together: by one when anyone made progress, to
       the earliest next event otherwise. *)
    let results =
      Array.mapi
        (fun i (_, t) -> if done_at.(i) < 0 then Some (step t) else None)
        cores
    in
    let any_progress =
      Array.exists
        (function
          | Some (c, issued, d, _) -> c > 0 || issued || d > 0
          | None -> false)
        results
    in
    let delta =
      if any_progress then 1
      else begin
        let target = ref max_int in
        Array.iteri
          (fun i (_, t) ->
            if done_at.(i) < 0 then
              target := min !target (max (t.cycle + 1) (next_event_cycle t)))
          cores;
        let cycle = (snd cores.(0)).cycle in
        max 1 (!target - cycle)
      end
    in
    Array.iteri
      (fun i (_, t) ->
        match results.(i) with
        | Some (committed, issued, dispatched, stall) ->
          account t ~committed ~issued ~dispatched ~stall ~delta
        | None -> t.cycle <- t.cycle + delta)
      cores
  done;
  Array.to_list
    (Array.mapi
       (fun i (name, t) ->
         (* Report the cycle at which this core finished, not the run's. *)
         t.cycle <- done_at.(i);
         build_result t name)
       cores)
