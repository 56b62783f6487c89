type ideal = {
  no_branch_miss : bool;
  no_icache_miss : bool;
  no_dcache_miss : bool;
}

let real = { no_branch_miss = false; no_icache_miss = false; no_dcache_miss = false }

let classes = Array.of_list Isa.all_classes
let branch_class = Isa.class_index Isa.Branch
let perfect = { no_branch_miss = true; no_icache_miss = true; no_dcache_miss = true }

(* Dispatch-stall reasons, for cycle accounting. *)
type reason = R_base | R_branch | R_icache | R_llc_hit | R_dram

let not_done = max_int

(* Int-typed [min]/[max]: Stdlib's are polymorphic compares, C calls in
   the per-cycle paths. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

type state = {
  cfg : Uarch.t;
  idl : ideal;
  cur : Uop_stream.cursor;  (* the micro-op to dispatch next *)
  hier : Hierarchy.t;
  predictor : Predictor.t;
  prefetcher : Stride_prefetcher.t;
  cap : int;  (* ROB capacity *)
  (* ROB as struct-of-arrays over a ring of [mask + 1 = 2^ring_bits >=
     cap] slots; entry for global micro-op [g] lives in slot [g land
     mask]. *)
  mask : int;
  ring_bits : int;
  e_cls : int array;
  e_done : int array;
  e_issued : bool array;
  e_pending : int array;  (* producers not yet issued *)
  e_ready_at : int array;  (* latest completion among issued producers *)
  (* Each slot's consumers, as a chain of links: link [2 * cs + k] stands
     for operand [k] (0 or 1) of the micro-op in slot [cs]; -1 ends it. *)
  first_waiter : int array;
  next_waiter : int array;
  e_addr : int array;
  e_static : int array;
  e_begins : bool array;
  e_level : int array;  (* 0 L1, 1 L2, 2 L3, 3 DRAM; -1 non-load *)
  mutable head : int;  (* oldest in-flight global index *)
  mutable tail : int;  (* next global index to allocate *)
  (* Issue queue, as wakeup/select.  A micro-op whose producers have all
     issued waits in [wake_heap] (key [ready_at lsl ring_bits lor slot])
     until its operands are ready, then as a bit of [ready] (slot [s] is
     bit [s land 31] of word [s lsr 5]) until select finds it a port and
     unit. *)
  mutable iq_count : int;
  wake_heap : Int_heap.t;
  ready : int array;
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
  mutable pending_icache_done : bool;  (* the I-cache check of [cur] is done *)
  mutable stall : reason;  (* what this cycle's dispatch is charged to *)
  (* Memory subsystem timing. *)
  outstanding : Int_heap.t;  (* completion times of in-flight L1D misses *)
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

let create ?shared_l3 ?shared_bus cfg idl cur ~ts_interval =
  let cap = cfg.Uarch.core.rob_size in
  (* At least one word of [ready], so words never wrap within the ring. *)
  let ring_bits = ref 5 in
  while 1 lsl !ring_bits < cap do
    incr ring_bits
  done;
  let ring = 1 lsl !ring_bits in
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
    cur;
    hier = Hierarchy.create ?shared_l3 cfg.caches;
    predictor = Predictor.create cfg.predictor;
    prefetcher =
      Stride_prefetcher.create cfg.prefetcher
        ~dram_page_bytes:cfg.memory.dram_page_bytes;
    cap;
    mask = ring - 1;
    ring_bits = !ring_bits;
    e_cls = Array.make ring 0;
    e_done = Array.make ring not_done;
    e_issued = Array.make ring false;
    e_pending = Array.make ring 0;
    e_ready_at = Array.make ring 0;
    first_waiter = Array.make ring (-1);
    next_waiter = Array.make (2 * ring) (-1);
    e_addr = Array.make ring 0;
    e_static = Array.make ring 0;
    e_begins = Array.make ring false;
    e_level = Array.make ring (-1);
    head = 0;
    tail = 0;
    iq_count = 0;
    wake_heap = Int_heap.create ();
    ready = Array.make (ring / 32) 0;
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
    pending_icache_done = false;
    stall = R_base;
    outstanding = Int_heap.create ();
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

let slot t g = g land t.mask

(* ---- Front-end ---- *)

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
  let uncovered_start = imax start t.dram_covered_end in
  if finish > uncovered_start then
    t.dram_busy_cycles <- t.dram_busy_cycles + (finish - uncovered_start);
  if finish > t.dram_covered_end then t.dram_covered_end <- finish

(* Completion cycle of a DRAM access issued (to the memory controller) at
   [start]: full latency, then the line transfer serializes on the bus. *)
let dram_completion t ~start =
  let m = t.cfg.Uarch.memory in
  let data_ready = start + m.dram_latency in
  let transfer_begin = imax (data_ready - m.bus_transfer) !(t.bus_free_at) in
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

let served t s level finish =
  t.e_level.(s) <- level;
  finish

(* Returns the completion cycle of the load in slot [s], and records the
   level that served it (0..3) in [e_level]. *)
let load_completion t s ~addr ~static_id =
  let c = t.cfg.Uarch.caches in
  if t.idl.no_dcache_miss then served t s 0 (t.cycle + c.l1d.latency)
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
      served t s 1 (t.cycle + imax c.l1d.latency (imax 0 (ready - t.cycle) + c.l2.latency))
    | None -> (
      match level with
      | Hierarchy.L1 -> served t s 0 (t.cycle + c.l1d.latency)
      | Hierarchy.L2 ->
        let start = mshr_start t in
        let finish = start + c.l2.latency in
        Int_heap.push t.outstanding finish;
        served t s 1 finish
      | Hierarchy.L3 ->
        let start = mshr_start t in
        let finish = start + c.l3.latency in
        Int_heap.push t.outstanding finish;
        served t s 2 finish
      | Hierarchy.Dram ->
        t.dram_loads <- t.dram_loads + 1;
        let start = mshr_start t in
        let finish = dram_completion t ~start in
        Int_heap.push t.outstanding finish;
        record_dram_interval t ~start ~finish;
        served t s 3 finish)
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

(* The first of [ports] from index [i] not used this cycle; -1 if none. *)
let rec free_port t ports i =
  if i = Array.length ports then -1
  else if t.port_stamp.(ports.(i)) < t.cycle then ports.(i)
  else free_port t ports (i + 1)

(* The first unit instance from index [i] free right now; -1 if none. *)
let rec free_unit t busy i =
  if i >= Array.length busy then -1
  else if busy.(i) <= t.cycle then i
  else free_unit t busy (i + 1)

(* Claims a free port and unit for class [cls_idx] this cycle; returns the
   unit latency, or -1 when none is free. *)
let try_allocate_fu t cls_idx =
  match t.fu_of.(cls_idx) with
  | None -> -1
  | Some fu ->
    let p = free_port t t.ports_of.(cls_idx) 0 in
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
      let inst = free_unit t busy 0 in
      if inst < 0 then -1
      else begin
        busy.(inst) <- t.cycle + fu.unit_latency;
        t.port_stamp.(p) <- t.cycle;
        fu.unit_latency
      end
    end

let set_ready t s =
  t.ready.(s lsr 5) <- t.ready.(s lsr 5) lor (1 lsl (s land 31))

(* Slot [s]'s producers have all issued; its operands are ready at
   [ready_at].  One ready by now goes straight to select: woken during
   select it is younger than the producer being issued, so select still
   reaches it this cycle, as an age-ordered scan would. *)
let wake t s ready_at =
  if ready_at <= t.cycle then set_ready t s
  else Int_heap.push t.wake_heap ((ready_at lsl t.ring_bits) lor s)

let rec hand_over t finish link =
  if link >= 0 then begin
    let cs = link lsr 1 in
    t.e_ready_at.(cs) <- imax t.e_ready_at.(cs) finish;
    t.e_pending.(cs) <- t.e_pending.(cs) - 1;
    if t.e_pending.(cs) = 0 then wake t cs t.e_ready_at.(cs);
    hand_over t finish t.next_waiter.(link)
  end

(* A load's [e_level] is set by [load_completion]; every other micro-op
   keeps the -1 it was dispatched with. *)
let issue t s finish =
  t.ready.(s lsr 5) <- t.ready.(s lsr 5) land lnot (1 lsl (s land 31));
  t.e_issued.(s) <- true;
  t.e_done.(s) <- finish;
  t.iq_count <- t.iq_count - 1;
  hand_over t finish t.first_waiter.(s);
  t.first_waiter.(s) <- -1

(* The index of the lowest set bit of a non-zero 32-bit [w] (de Bruijn). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit w = debruijn.((((w land (-w)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Select: every ready micro-op, oldest first from the head, tries for a
   port and unit; the ones that get none stay ready for the next cycle.
   Once every port has issued, any later try would fail with no side
   effect, so the scan stops. *)
let issue_stage t =
  let ready_by = (t.cycle + 1) lsl t.ring_bits in
  while (not (Int_heap.is_empty t.wake_heap)) && Int_heap.min_elt t.wake_heap < ready_by do
    set_ready t (Int_heap.pop t.wake_heap land t.mask)
  done;
  let n_ports = t.cfg.Uarch.core.n_ports in
  let issued = ref 0 in
  let g = ref t.head in
  while !g < t.tail && !issued < n_ports do
    let s = slot t !g in
    let w = t.ready.(s lsr 5) lsr (s land 31) in
    if w = 0 then g := !g + 32 - (s land 31)
    else begin
      (* A bit past the tail is an older micro-op's, a ring lap ahead. *)
      let g' = !g + lowest_bit w in
      if g' < t.tail then begin
        let s = slot t g' in
        let cls_idx = t.e_cls.(s) in
        let fu_latency = try_allocate_fu t cls_idx in
        if fu_latency >= 0 then begin
          let finish =
            match classes.(cls_idx) with
            | Isa.Load -> load_completion t s ~addr:t.e_addr.(s) ~static_id:t.e_static.(s)
            | Isa.Store ->
              store_side_effects t ~addr:t.e_addr.(s);
              t.cycle + fu_latency
            | _ -> t.cycle + fu_latency
          in
          issue t s finish;
          incr issued
        end
      end;
      g := g' + 1
    end
  done;
  !issued > 0

(* ---- Dispatch ---- *)

(* Operand [k] of the micro-op in slot [s] is the result of micro-op [d]:
   wait on it while it is in flight and not yet issued. *)
let depend t s k d =
  if d >= t.head then begin
    let ds = slot t d in
    if t.e_issued.(ds) then t.e_ready_at.(s) <- imax t.e_ready_at.(s) t.e_done.(ds)
    else begin
      let link = (2 * s) + k in
      t.e_pending.(s) <- t.e_pending.(s) + 1;
      t.next_waiter.(link) <- t.first_waiter.(ds);
      t.first_waiter.(ds) <- link
    end
  end

(* Dispatches up to the width; returns how many, and sets [t.stall]. *)
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
    else if Uop_stream.at_end t.cur then blocked := true
    else begin
      let w0 = Uop_stream.word0 t.cur in
      (* I-cache check on instruction boundaries. *)
      let icache_stall =
        if Uop_word.begins_instruction w0 && not t.pending_icache_done then begin
          t.l1i_accesses <- t.l1i_accesses + 1;
          t.pending_icache_done <- true;
          if t.idl.no_icache_miss then false
          else begin
            let iaddr = Uop_word.static_id w0 * Workload_gen.instruction_bytes in
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
        let w1 = Uop_stream.word1 t.cur and addr = Uop_stream.word2 t.cur in
        Uop_stream.advance t.cur;
        t.pending_icache_done <- false;
        let g = t.tail in
        let s = slot t g in
        let cls_idx = Uop_word.class_index w0 in
        let static_id = Uop_word.static_id w0 in
        t.e_cls.(s) <- cls_idx;
        t.e_done.(s) <- not_done;
        t.e_issued.(s) <- false;
        t.e_addr.(s) <- addr;
        t.e_static.(s) <- static_id;
        t.e_begins.(s) <- Uop_word.begins_instruction w0;
        t.e_level.(s) <- -1;
        t.tail <- t.tail + 1;
        (* Wakeup: wait on every in-flight producer not yet issued. *)
        t.e_pending.(s) <- 0;
        t.e_ready_at.(s) <- 0;
        let dep1 = Uop_word.dep1 w1 and dep2 = Uop_word.dep2 w1 in
        if dep1 > 0 then depend t s 0 (g - dep1);
        if dep2 > 0 && dep2 <> dep1 then depend t s 1 (g - dep2);
        if t.e_pending.(s) = 0 then wake t s t.e_ready_at.(s);
        t.iq_count <- t.iq_count + 1;
        t.uops_by_class.(cls_idx) <- t.uops_by_class.(cls_idx) + 1;
        incr dispatched;
        if cls_idx = branch_class then begin
          t.branches <- t.branches + 1;
          let correct =
            if t.idl.no_branch_miss then true
            else
              Predictor.predict_and_update t.predictor ~static_id
                ~taken:(Uop_word.taken w0)
          in
          if not correct then begin
            t.branch_miss <- t.branch_miss + 1;
            t.blocking_branch <- g
          end
        end
      end
    end
  done;
  t.stall <- (if !dispatched > 0 then R_base else !stall);
  !dispatched

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

(* The first cycle after this one at which a step can commit, issue or
   dispatch, or dispatch's stall reason can change, after a step that did
   none of them: the head's completion (commit, and the ROB-full
   reason), the blocking branch's completion, the earliest wake-up, the
   end of a front-end stall, or a non-pipelined unit coming free.  Other
   completions change nothing a step reads. *)
let next_event_cycle t =
  let best = ref max_int in
  if t.head < t.tail then begin
    let d = t.e_done.(slot t t.head) in
    if d > t.cycle then best := d
  end;
  if t.blocking_branch >= 0 then begin
    let d = t.e_done.(slot t t.blocking_branch) in
    if d > t.cycle then best := imin !best d
  end;
  if not (Int_heap.is_empty t.wake_heap) then
    best := imin !best (Int_heap.min_elt t.wake_heap lsr t.ring_bits);
  if t.fetch_resume_at > t.cycle then best := imin !best t.fetch_resume_at;
  for c = 0 to Array.length t.fu_busy - 1 do
    let busy = t.fu_busy.(c) in
    for i = 0 to Array.length busy - 1 do
      if busy.(i) > t.cycle then best := imin !best busy.(i)
    done
  done;
  if !best = max_int then t.cycle + 1 else !best

let finished t = t.head = t.tail && Uop_stream.at_end t.cur

(* One cycle's worth of work for one core (no time advancement); [true]
   when anything committed, issued or dispatched. *)
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
  let dispatched = dispatch_stage t in
  committed > 0 || issued || dispatched > 0

(* Attribute [delta] cycles to the last step's stack component and advance
   the core's clock. *)
let account t ~delta =
  let r = reason_index t.stall in
  t.stall_cycles.(r) <- t.stall_cycles.(r) +. float_of_int delta;
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

(* The result, and whether the run's L3 re-fetched a line. *)
let simulate ideal time_series_interval cfg cur name =
  let t = create cfg ideal cur ~ts_interval:time_series_interval in
  while not (finished t) do
    if step t then account t ~delta:1
    else
      (* Nothing moved: fast-forward to the next event. *)
      account t ~delta:(imax (t.cycle + 1) (next_event_cycle t) - t.cycle)
  done;
  (build_result t name, Hierarchy.l3_refetched t.hier)

let run ?(ideal = real) ?(time_series_interval = 10_000) cfg spec ~seed ~n_instructions =
  fst (simulate ideal time_series_interval cfg
         (Uop_stream.window spec ~seed ~n_instructions) spec.Workload_spec.wname)

(* [simulate] over a recorded stream, with [run_stream]'s defaults. *)
let simulate_stream ?(ideal = real) ?(time_series_interval = 10_000) cfg stream =
  simulate ideal time_series_interval cfg (Uop_stream.cursor stream)
    (Uop_stream.name stream)

let run_stream ?ideal ?time_series_interval cfg stream =
  fst (simulate_stream ?ideal ?time_series_interval cfg stream)

(* Configs equal but for name and L3 size form a chain, sharing a cell of
   the results whose L3 never re-fetched a line (DESIGN.md, "Simulator
   internals").  An L3 whose associativity [Cache.create] would clamp,
   or whose set count is not a power of two, runs (and faults) alone. *)
let replay stream configs =
  let chains = Hashtbl.create 16 in
  let cell (u : Uarch.t) =
    let l3 = u.caches.l3 in
    let sets = l3.size_bytes / max 1 l3.line_bytes / max 1 l3.assoc in
    if l3.line_bytes < 1 || l3.assoc < 1 || sets < 1 || sets land (sets - 1) <> 0
    then Atomic.make []
    else begin
      let l3 = { l3 with size_bytes = 0 } in
      let key = { u with name = ""; caches = { u.caches with l3 } } in
      if not (Hashtbl.mem chains key) then Hashtbl.add chains key (Atomic.make []);
      Hashtbl.find chains key
    end
  in
  let cells = Array.map cell configs in
  let rec post cell x =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (x :: old)) then post cell x
  in
  fun i ->
    let size = configs.(i).Uarch.caches.l3.size_bytes in
    match List.find_opt (fun (s, _) -> s <= size) (Atomic.get cells.(i)) with
    | Some (_, r) -> r
    | None ->
      let r, refetched = simulate_stream configs.(i) stream in
      if not refetched then post cells.(i) (size, r);
      r

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
        ( spec.Workload_spec.wname,
          create ~shared_l3 ~shared_bus cfg ideal
            (Uop_stream.window spec ~seed ~n_instructions)
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
    let any_progress = ref false in
    Array.iteri
      (fun i (_, t) -> if done_at.(i) < 0 && step t then any_progress := true)
      cores;
    let delta =
      if !any_progress then 1
      else begin
        let target = ref max_int in
        Array.iteri
          (fun i (_, t) ->
            if done_at.(i) < 0 then
              target := imin !target (imax (t.cycle + 1) (next_event_cycle t)))
          cores;
        let cycle = (snd cores.(0)).cycle in
        imax 1 (!target - cycle)
      end
    in
    Array.iteri
      (fun i (_, t) ->
        if done_at.(i) < 0 then account t ~delta else t.cycle <- t.cycle + delta)
      cores
  done;
  Array.to_list
    (Array.mapi
       (fun i (name, t) ->
         (* Report the cycle at which this core finished, not the run's. *)
         t.cycle <- done_at.(i);
         build_result t name)
       cores)
