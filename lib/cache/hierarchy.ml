type level = L1 | L2 | L3 | Dram

type counters = {
  mutable c_accesses : int;
  mutable c_load_misses : int;
  mutable c_store_misses : int;
  mutable c_cold_load : int;
  mutable c_cold_store : int;
}

let new_counters () =
  { c_accesses = 0; c_load_misses = 0; c_store_misses = 0; c_cold_load = 0;
    c_cold_store = 0 }

(* Bits of a line's fill record: the levels it has ever been filled into.
   The L1I keeps none: nothing reads its cold misses. *)
let l1_bit = 1
let l2_bit = 2
let l3_bit = 4

type l3 = { cache : Cache.t; fills : Reuse_table.t }

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  (* Line -> levels it has ever been filled into: probed once per miss
     in the L1D, to tell cold misses from capacity ones at every level
     that missed.  A shared L3 keeps the L3 bit in its own table, which
     holds every core's L3 fills; a private one's table is [filled]. *)
  filled : Reuse_table.t;
  l3_filled : Reuse_table.t;
  data : counters array;  (* indexed 0=L1,1=L2,2=L3 *)
  inst : int array;  (* instruction misses at L1I, L2, L3 *)
  mutable l3_refetched : bool;  (* see [l3_refetched] in the .mli *)
}

let make_l3 (c : Uarch.caches) =
  { cache = Cache.create ~name:"L3" c.l3; fills = Reuse_table.create 2048 }

let create ?shared_l3 (c : Uarch.caches) =
  let line_bytes = c.l1d.line_bytes in
  if c.l1i.line_bytes <> line_bytes || c.l2.line_bytes <> line_bytes
     || c.l3.line_bytes <> line_bytes
  then
    invalid_arg
      (Printf.sprintf
         "Hierarchy.create: line sizes L1I %d, L1D %d, L2 %d, L3 %d bytes; \
          every level must use one line size"
         c.l1i.line_bytes line_bytes c.l2.line_bytes c.l3.line_bytes);
  let filled = Reuse_table.create 2048 in
  let l3 =
    match shared_l3 with
    | Some l3 -> l3
    | None -> { cache = Cache.create ~name:"L3" c.l3; fills = filled }
  in
  {
    l1i = Cache.create ~name:"L1I" c.l1i;
    l1d = Cache.create ~name:"L1D" c.l1d;
    l2 = Cache.create ~name:"L2" c.l2;
    l3 = l3.cache;
    filled;
    l3_filled = l3.fills;
    data = Array.init 3 (fun _ -> new_counters ());
    inst = Array.make 3 0;
    l3_refetched = false;
  }

let level_index = function
  | L1 -> 0
  | L2 -> 1
  | L3 -> 2
  | Dram -> invalid_arg "Hierarchy: Dram is not a cache level"

(* Records that the line of [addr] was filled into [levels]; returns the
   levels it had been filled into before. *)
let record_fills t addr levels =
  let line = Cache.line_of t.l1d addr in
  if t.l3_filled == t.filled || levels < l3_bit then
    Reuse_table.or_update t.filled line levels
  else
    Reuse_table.or_update t.filled line (levels - l3_bit)
    lor Reuse_table.or_update t.l3_filled line l3_bit

(* Counts a demand miss at level [idx], cold unless [bit] is in [before]. *)
let record_miss t idx ~write before bit =
  let c = t.data.(idx) in
  let cold = before land bit = 0 in
  if write then begin
    c.c_store_misses <- c.c_store_misses + 1;
    if cold then c.c_cold_store <- c.c_cold_store + 1
  end
  else begin
    c.c_load_misses <- c.c_load_misses + 1;
    if cold then c.c_cold_load <- c.c_cold_load + 1
  end

let count_access t idx = t.data.(idx).c_accesses <- t.data.(idx).c_accesses + 1

let access_data t addr ~write =
  count_access t 0;
  if Cache.access t.l1d addr = Cache.Hit then L1
  else begin
    (* The levels that miss, each filled on the way back. *)
    count_access t 1;
    let missed =
      if Cache.access t.l2 addr = Cache.Hit then l1_bit
      else begin
        count_access t 2;
        if Cache.access t.l3 addr = Cache.Hit then l1_bit lor l2_bit
        else l1_bit lor l2_bit lor l3_bit
      end
    in
    let before = record_fills t addr missed in
    record_miss t 0 ~write before l1_bit;
    if missed = l1_bit then L2
    else begin
      record_miss t 1 ~write before l2_bit;
      if missed < l3_bit then L3
      else begin
        record_miss t 2 ~write before l3_bit;
        if before land l3_bit <> 0 then t.l3_refetched <- true;
        Dram
      end
    end
  end

let access_inst t addr =
  if Cache.access t.l1i addr = Cache.Hit then L1
  else begin
    t.inst.(0) <- t.inst.(0) + 1;
    if Cache.access t.l2 addr = Cache.Hit then L2
    else begin
      t.inst.(1) <- t.inst.(1) + 1;
      let hit = Cache.access t.l3 addr = Cache.Hit in
      let before = record_fills t addr (if hit then l2_bit else l2_bit lor l3_bit) in
      if hit then L3
      else begin
        t.inst.(2) <- t.inst.(2) + 1;
        if before land l3_bit <> 0 then t.l3_refetched <- true;
        Dram
      end
    end
  end

let prefetch_fill t addr =
  ignore (Cache.access t.l2 addr);
  ignore (Cache.access t.l3 addr);
  ignore (record_fills t addr (l2_bit lor l3_bit))

let probe_llc t addr =
  Cache.probe t.l1d addr || Cache.probe t.l2 addr || Cache.probe t.l3 addr
  || (t.l3_refetched <- true; false)

let l3_refetched t = t.l3_refetched

let data_latency (c : Uarch.caches) = function
  | L1 -> c.l1d.latency
  | L2 -> c.l2.latency
  | L3 -> c.l3.latency
  | Dram -> c.l3.latency

type level_stats = {
  accesses : int;
  load_misses : int;
  store_misses : int;
  cold_load_misses : int;
  cold_store_misses : int;
}

let data_stats t level =
  let c = t.data.(level_index level) in
  {
    accesses = c.c_accesses;
    load_misses = c.c_load_misses;
    store_misses = c.c_store_misses;
    cold_load_misses = c.c_cold_load;
    cold_store_misses = c.c_cold_store;
  }

let inst_misses t level = t.inst.(level_index level)
