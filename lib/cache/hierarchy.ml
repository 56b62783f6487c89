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

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  data : counters array;  (* indexed 0=L1,1=L2,2=L3 *)
  inst : int array;  (* instruction misses at L1I, L2, L3 *)
}

let make_l3 (c : Uarch.caches) = Cache.create ~name:"L3" c.l3

let create ?shared_l3 (c : Uarch.caches) =
  {
    l1i = Cache.create ~name:"L1I" c.l1i;
    l1d = Cache.create ~name:"L1D" c.l1d;
    l2 = Cache.create ~name:"L2" c.l2;
    l3 = (match shared_l3 with Some l3 -> l3 | None -> make_l3 c);
    data = Array.init 3 (fun _ -> new_counters ());
    inst = Array.make 3 0;
  }

let level_index = function
  | L1 -> 0
  | L2 -> 1
  | L3 -> 2
  | Dram -> invalid_arg "Hierarchy: Dram is not a cache level"

let record t idx ~write outcome =
  let c = t.data.(idx) in
  c.c_accesses <- c.c_accesses + 1;
  match (outcome : Cache.outcome) with
  | Hit -> ()
  | Miss_cold ->
    if write then begin
      c.c_store_misses <- c.c_store_misses + 1;
      c.c_cold_store <- c.c_cold_store + 1
    end
    else begin
      c.c_load_misses <- c.c_load_misses + 1;
      c.c_cold_load <- c.c_cold_load + 1
    end
  | Miss_capacity ->
    if write then c.c_store_misses <- c.c_store_misses + 1
    else c.c_load_misses <- c.c_load_misses + 1

let access_data t addr ~write =
  let o1 = Cache.access t.l1d addr in
  record t 0 ~write o1;
  match o1 with
  | Hit -> L1
  | Miss_cold | Miss_capacity -> (
    let o2 = Cache.access t.l2 addr in
    record t 1 ~write o2;
    match o2 with
    | Hit -> L2
    | Miss_cold | Miss_capacity -> (
      let o3 = Cache.access t.l3 addr in
      record t 2 ~write o3;
      match o3 with Hit -> L3 | Miss_cold | Miss_capacity -> Dram))

let access_inst t addr =
  match Cache.access t.l1i addr with
  | Hit -> L1
  | Miss_cold | Miss_capacity -> (
    t.inst.(0) <- t.inst.(0) + 1;
    match Cache.access t.l2 addr with
    | Hit -> L2
    | Miss_cold | Miss_capacity -> (
      t.inst.(1) <- t.inst.(1) + 1;
      match Cache.access t.l3 addr with
      | Hit -> L3
      | Miss_cold | Miss_capacity ->
        t.inst.(2) <- t.inst.(2) + 1;
        Dram))

let prefetch_fill t addr =
  Cache.fill t.l2 addr;
  Cache.fill t.l3 addr

let probe_llc t addr =
  Cache.probe t.l1d addr || Cache.probe t.l2 addr || Cache.probe t.l3 addr

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
