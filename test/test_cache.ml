(* Tests for the cache substrate: LRU caches, the hierarchy, the stride
   prefetcher. *)

let small_level : Uarch.cache_level =
  { size_bytes = 4 * 64; assoc = 2; line_bytes = 64; latency = 1 }

let test_hit_after_fill () =
  let c = Cache.create Uarch.reference.caches.l1d in
  Alcotest.(check bool) "first access misses" true (Cache.access c 4096 <> Cache.Hit);
  Alcotest.(check bool) "second access hits" true (Cache.access c 4096 = Cache.Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c 4100 = Cache.Hit)

let test_cold_vs_capacity () =
  (* 2-way, 2-set cache: three lines mapping anywhere will eventually
     evict; a re-touch of an evicted line must be Miss_capacity.  The
     larger walk outgrows the cold-miss set's initial capacity. *)
  List.iter
    (fun n ->
      let c = Cache.create small_level in
      let addrs = List.init n (fun i -> i * 64) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      (* all n lines seen; re-walk: misses now must be capacity, not cold *)
      List.iter
        (fun a ->
          match Cache.access c a with
          | Cache.Miss_cold -> Alcotest.fail "revisited line classified cold"
          | Cache.Hit | Cache.Miss_capacity -> ())
        addrs;
      Alcotest.(check bool) "some capacity misses happened" true (Cache.misses c > n);
      Alcotest.(check int) "cold misses = distinct lines" n (Cache.cold_misses c))
    [ 16; 20_000 ]

let test_lru_eviction_order () =
  (* Hammer far more lines than the 4-line cache holds: the oldest,
     never-retouched line must be evicted; recently-touched ones survive. *)
  let c = Cache.create small_level in
  ignore (Cache.access c 0);
  for k = 1 to 100 do
    ignore (Cache.access c (k * 64))
  done;
  Alcotest.(check bool) "old line evicted" false (Cache.probe c 0);
  Alcotest.(check bool) "latest line resident" true (Cache.probe c (100 * 64))

let test_probe_does_not_touch () =
  let c = Cache.create small_level in
  ignore (Cache.access c 0);
  Alcotest.(check bool) "probe finds" true (Cache.probe c 0);
  Alcotest.(check int) "probe not counted" 1 (Cache.accesses c)

let test_fill_installs () =
  let c = Cache.create small_level in
  Cache.fill c 128;
  Alcotest.(check bool) "filled" true (Cache.probe c 128);
  Alcotest.(check int) "fill not an access" 0 (Cache.accesses c);
  (* A filled line was in the cache: once evicted, its miss is not cold. *)
  for k = 10 to 100 do
    ignore (Cache.access c (k * 64))
  done;
  Alcotest.(check bool) "evicted" false (Cache.probe c 128);
  Alcotest.(check bool) "filled line is not cold" true (Cache.access c 128 = Cache.Miss_capacity)

let test_reset_stats () =
  let c = Cache.create small_level in
  ignore (Cache.access c 0);
  Cache.reset_stats c;
  Alcotest.(check int) "accesses cleared" 0 (Cache.accesses c);
  Alcotest.(check int) "misses cleared" 0 (Cache.misses c)

let test_set_count_power_of_two () =
  (* 48 KB, 8-way, 64-byte lines: 96 sets, which the set mask cannot
     index uniformly. *)
  let caches =
    { Uarch.reference.caches with
      l1d = { Uarch.reference.caches.l1d with size_bytes = 48 * 1024 } }
  in
  (match Hierarchy.create caches with
  | _ -> Alcotest.fail "a 96-set cache was accepted"
  | exception Invalid_argument msg ->
    let mentions sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) ("names the level: " ^ msg) true (mentions "L1D");
    Alcotest.(check bool) ("gives the set count: " ^ msg) true (mentions "96 sets"));
  ignore (Hierarchy.create Uarch.reference.caches)

let prop_miss_rate_monotone_in_size =
  QCheck.Test.make ~name:"bigger cache never misses more on the same trace"
    ~count:30
    QCheck.(pair (int_range 1 1000) (int_range 20 200))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let trace = List.init n (fun _ -> Rng.int rng 64 * 64) in
      let misses size_kb =
        let c =
          Cache.create
            { size_bytes = size_kb * 1024; assoc = 4; line_bytes = 64; latency = 1 }
        in
        List.iter (fun a -> ignore (Cache.access c a)) trace;
        Cache.misses c
      in
      misses 8 >= misses 16 && misses 16 >= misses 32)

(* Oracle check: with associativity = number of lines, the cache is fully
   associative; compare against a straightforward list-based LRU. *)
let prop_fully_associative_matches_oracle =
  QCheck.Test.make ~name:"fully-associative cache matches list-based LRU oracle"
    ~count:100
    QCheck.(pair (int_range 1 1000) (int_range 2 5))
    (fun (seed, capacity_log) ->
      let capacity = 1 lsl capacity_log in
      let cache =
        Cache.create
          { size_bytes = capacity * 64; assoc = capacity; line_bytes = 64;
            latency = 1 }
      in
      let oracle = ref [] in
      let oracle_access line =
        let hit = List.mem line !oracle in
        let without = List.filter (fun l -> l <> line) !oracle in
        oracle := line :: without;
        if List.length !oracle > capacity then
          oracle := List.filteri (fun i _ -> i < capacity) !oracle;
        hit
      in
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 500 do
        let addr = Rng.int rng (3 * capacity) * 64 in
        let cache_hit = Cache.access cache addr = Cache.Hit in
        let oracle_hit = oracle_access (addr / 64) in
        if cache_hit <> oracle_hit then ok := false
      done;
      !ok)

let test_hierarchy_inclusion () =
  let h = Hierarchy.create Uarch.reference.caches in
  Alcotest.(check bool) "first access from DRAM" true
    (Hierarchy.access_data h 4096 ~write:false = Hierarchy.Dram);
  Alcotest.(check bool) "now an L1 hit" true
    (Hierarchy.access_data h 4096 ~write:false = Hierarchy.L1);
  Alcotest.(check bool) "probe_llc sees it" true (Hierarchy.probe_llc h 4096)

let test_hierarchy_l2_hit_after_l1_eviction () =
  let small : Uarch.caches =
    {
      l1i = { size_bytes = 2 * 64; assoc = 1; line_bytes = 64; latency = 1 };
      l1d = { size_bytes = 2 * 64; assoc = 1; line_bytes = 64; latency = 1 };
      l2 = { size_bytes = 64 * 64; assoc = 4; line_bytes = 64; latency = 4 };
      l3 = { size_bytes = 1024 * 64; assoc = 8; line_bytes = 64; latency = 10 };
    }
  in
  let h = Hierarchy.create small in
  (* Touch A, flood L1 with many lines, re-touch A: should be an L2 hit. *)
  ignore (Hierarchy.access_data h 0 ~write:false);
  for k = 1 to 32 do
    ignore (Hierarchy.access_data h (k * 64) ~write:false)
  done;
  Alcotest.(check bool) "L2 or L3 hit after L1 eviction" true
    (match Hierarchy.access_data h 0 ~write:false with
    | Hierarchy.L2 | Hierarchy.L3 -> true
    | Hierarchy.L1 | Hierarchy.Dram -> false)

let test_hierarchy_counters_split_loads_stores () =
  let h = Hierarchy.create Uarch.reference.caches in
  ignore (Hierarchy.access_data h 0 ~write:false);
  ignore (Hierarchy.access_data h 65536 ~write:true);
  let s = Hierarchy.data_stats h Hierarchy.L1 in
  Alcotest.(check int) "one load miss" 1 s.load_misses;
  Alcotest.(check int) "one store miss" 1 s.store_misses;
  Alcotest.(check int) "both cold" 2 (s.cold_load_misses + s.cold_store_misses);
  Alcotest.(check int) "two accesses" 2 s.accesses

let test_hierarchy_inst_side () =
  let h = Hierarchy.create Uarch.reference.caches in
  Alcotest.(check bool) "first inst access misses" true
    (Hierarchy.access_inst h 0 <> Hierarchy.L1);
  Alcotest.(check bool) "second hits" true (Hierarchy.access_inst h 0 = Hierarchy.L1);
  Alcotest.(check int) "one L1I miss" 1 (Hierarchy.inst_misses h Hierarchy.L1)

let test_prefetch_fill_skips_l1 () =
  let h = Hierarchy.create Uarch.reference.caches in
  Hierarchy.prefetch_fill h 8192;
  (* lands in L2, not L1 *)
  Alcotest.(check bool) "next access is L2 hit" true
    (Hierarchy.access_data h 8192 ~write:false = Hierarchy.L2)

let test_data_latency () =
  let c = Uarch.reference.caches in
  Alcotest.(check int) "L1" c.l1d.latency (Hierarchy.data_latency c Hierarchy.L1);
  Alcotest.(check int) "L2" c.l2.latency (Hierarchy.data_latency c Hierarchy.L2);
  Alcotest.(check int) "L3" c.l3.latency (Hierarchy.data_latency c Hierarchy.L3)

(* ---- Stride prefetcher ---- *)

let pf_config ?(kind = Uarch.Pf_stride) enabled : Uarch.prefetcher =
  { pf_enabled = enabled; pf_kind = kind; pf_table_entries = 4 }

let test_prefetcher_detects_stride () =
  let p = Stride_prefetcher.create (pf_config true) ~dram_page_bytes:4096 in
  let predictions = ref [] in
  for k = 0 to 9 do
    match Stride_prefetcher.observe p ~static_id:1 ~addr:(k * 64) with
    | Some target -> predictions := target :: !predictions
    | None -> ()
  done;
  Alcotest.(check bool) "predictions made" true (!predictions <> []);
  (* each prediction is last addr + 64 *)
  List.iter
    (fun t -> Alcotest.(check int) "aligned to stride" 0 (t mod 64))
    !predictions

let test_prefetcher_disabled () =
  let p = Stride_prefetcher.create (pf_config false) ~dram_page_bytes:4096 in
  for k = 0 to 9 do
    Alcotest.(check bool) "never predicts" true
      (Stride_prefetcher.observe p ~static_id:1 ~addr:(k * 64) = None)
  done

let test_prefetcher_page_boundary () =
  (* Stride of 8192 > 4096-byte page: never prefetched (Fig 4.10, load D). *)
  let p = Stride_prefetcher.create (pf_config true) ~dram_page_bytes:4096 in
  for k = 0 to 9 do
    Alcotest.(check bool) "no cross-page prefetch" true
      (Stride_prefetcher.observe p ~static_id:1 ~addr:(k * 8192) = None)
  done

let test_prefetcher_table_capacity () =
  (* 5 interleaved static loads in a 4-entry table: each observation
     evicts the oldest entry, so no stride is ever established. *)
  let p = Stride_prefetcher.create (pf_config true) ~dram_page_bytes:4096 in
  let predicted = ref 0 in
  for k = 0 to 40 do
    for s = 0 to 4 do
      match Stride_prefetcher.observe p ~static_id:s ~addr:((100000 * s) + (k * 64)) with
      | Some _ -> incr predicted
      | None -> ()
    done
  done;
  Alcotest.(check int) "table too small: no predictions" 0 !predicted;
  (* with 4 loads it works *)
  let p = Stride_prefetcher.create (pf_config true) ~dram_page_bytes:4096 in
  let predicted = ref 0 in
  for k = 0 to 40 do
    for s = 0 to 3 do
      match Stride_prefetcher.observe p ~static_id:s ~addr:((100000 * s) + (k * 64)) with
      | Some _ -> incr predicted
      | None -> ()
    done
  done;
  Alcotest.(check bool) "fits: predictions flow" true (!predicted > 50)

let test_next_line_prefetcher () =
  let p =
    Stride_prefetcher.create (pf_config ~kind:Uarch.Pf_next_line true)
      ~dram_page_bytes:4096
  in
  (* Always predicts the adjacent line... *)
  (match Stride_prefetcher.observe p ~static_id:1 ~addr:100 with
  | Some target -> Alcotest.(check int) "next line" 128 target
  | None -> Alcotest.fail "next-line should always predict in-page");
  (* ...except across a page boundary. *)
  Alcotest.(check bool) "page boundary respected" true
    (Stride_prefetcher.observe p ~static_id:1 ~addr:4095 = None)

let test_next_line_helps_small_strides_only () =
  (* In simulation: next-line covers stride-8 streams but not stride-128
     ones; the stride prefetcher covers both. *)
  let spec strides =
    {
      Workload_spec.wname = "pf-test";
      phase_length = 1_000_000;
      phases =
        [|
          {
            Workload_spec.default_phase with
            templates = [| (0.4, Workload_spec.T_load); (0.6, T_alu) |];
            load_groups =
              [| { lg_weight = 1.0; lg_pattern = Fixed_strides strides;
                   lg_footprint_bytes = 64 * 1024 * 1024 } |];
            (* few enough static loads to fit the 16-entry prefetch table
               (the reach limit itself is covered by the capacity test) *)
            body_size = 24;
            n_bodies = 1;
          };
        |];
    }
  in
  let cycles kind strides =
    let cfg =
      match kind with
      | None -> Uarch.reference
      | Some k -> Uarch.with_prefetcher_kind Uarch.reference k
    in
    (Simulator.run cfg (spec strides) ~seed:1 ~n_instructions:20_000).r_cycles
  in
  (* stride 8: both prefetchers help *)
  Alcotest.(check bool) "next-line helps stride-8" true
    (cycles (Some Uarch.Pf_next_line) [ 8 ] < cycles None [ 8 ]);
  Alcotest.(check bool) "stride pf helps stride-8" true
    (cycles (Some Uarch.Pf_stride) [ 8 ] < cycles None [ 8 ]);
  (* stride 128 skips lines: only the stride prefetcher can follow *)
  let none128 = cycles None [ 128 ] in
  let nl128 = cycles (Some Uarch.Pf_next_line) [ 128 ] in
  let st128 = cycles (Some Uarch.Pf_stride) [ 128 ] in
  Alcotest.(check bool) "stride pf beats next-line on stride-128" true
    (st128 < nl128);
  Alcotest.(check bool) "next-line useless on stride-128" true
    (float_of_int (abs (nl128 - none128)) /. float_of_int none128 < 0.05)

let test_prefetcher_random_no_confidence () =
  let p = Stride_prefetcher.create (pf_config true) ~dram_page_bytes:4096 in
  let rng = Rng.create 5 in
  let predicted = ref 0 in
  for _ = 0 to 200 do
    match
      Stride_prefetcher.observe p ~static_id:1 ~addr:(Rng.int rng 4000 / 8 * 8)
    with
    | Some _ -> incr predicted
    | None -> ()
  done;
  Alcotest.(check bool) "rarely predicts random" true (!predicted < 10)

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
          Alcotest.test_case "cold vs capacity" `Quick test_cold_vs_capacity;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction_order;
          Alcotest.test_case "probe does not touch" `Quick test_probe_does_not_touch;
          Alcotest.test_case "fill installs" `Quick test_fill_installs;
          Alcotest.test_case "reset stats" `Quick test_reset_stats;
          Alcotest.test_case "set count must be a power of two" `Quick
            test_set_count_power_of_two;
          QCheck_alcotest.to_alcotest prop_miss_rate_monotone_in_size;
          QCheck_alcotest.to_alcotest prop_fully_associative_matches_oracle;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "inclusion" `Quick test_hierarchy_inclusion;
          Alcotest.test_case "L2 hit after L1 eviction" `Quick
            test_hierarchy_l2_hit_after_l1_eviction;
          Alcotest.test_case "load/store counters" `Quick
            test_hierarchy_counters_split_loads_stores;
          Alcotest.test_case "instruction side" `Quick test_hierarchy_inst_side;
          Alcotest.test_case "prefetch fill skips L1" `Quick test_prefetch_fill_skips_l1;
          Alcotest.test_case "data latency" `Quick test_data_latency;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "detects stride" `Quick test_prefetcher_detects_stride;
          Alcotest.test_case "disabled" `Quick test_prefetcher_disabled;
          Alcotest.test_case "page boundary" `Quick test_prefetcher_page_boundary;
          Alcotest.test_case "table capacity" `Quick test_prefetcher_table_capacity;
          Alcotest.test_case "random no confidence" `Quick
            test_prefetcher_random_no_confidence;
          Alcotest.test_case "next-line basics" `Quick test_next_line_prefetcher;
          Alcotest.test_case "next-line vs stride in simulation" `Quick
            test_next_line_helps_small_strides_only;
        ] );
    ]
