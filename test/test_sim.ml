(* Tests for the cycle-level reference simulator. *)

let run ?(ideal = Simulator.real) ?(n = 20_000) ?(config = Uarch.reference) name =
  Simulator.run ~ideal config (Benchmarks.find name) ~seed:1 ~n_instructions:n

let test_completes_all_instructions () =
  let r = run "gamess" in
  Alcotest.(check int) "instructions committed" 20_000 r.r_instructions;
  Alcotest.(check bool) "uops >= instructions" true (r.r_uops >= r.r_instructions);
  Alcotest.(check bool) "cycles positive" true (r.r_cycles > 0)

let test_determinism () =
  let a = run "astar" and b = run "astar" in
  Alcotest.(check int) "same cycles" a.r_cycles b.r_cycles;
  Alcotest.(check int) "same misses" a.r_l3.load_misses b.r_l3.load_misses

let test_stack_accounts_all_cycles () =
  List.iter
    (fun name ->
      let r = run name in
      let total = Sim_result.stack_total r.r_stack in
      Alcotest.(check (float 1.0))
        (name ^ " stack sums to cycles")
        (float_of_int r.r_cycles) total)
    [ "gamess"; "mcf"; "gcc"; "lbm" ]

let test_perfect_machine_is_fast () =
  let r = run ~ideal:Simulator.perfect "gamess" in
  let ipc = float_of_int r.r_uops /. float_of_int r.r_cycles in
  Alcotest.(check bool)
    (Printf.sprintf "perfect IPC %.2f in (1, 4]" ipc)
    true
    (ipc > 1.0 && ipc <= 4.0);
  Alcotest.(check int) "no branch misses" 0 r.r_branch_mispredicts;
  let real = run "gamess" in
  Alcotest.(check bool) "perfect faster than real" true (r.r_cycles < real.r_cycles)

let test_ipc_never_exceeds_width () =
  List.iter
    (fun name ->
      let r = run ~ideal:Simulator.perfect name in
      let ipc = float_of_int r.r_uops /. float_of_int r.r_cycles in
      Alcotest.(check bool) (name ^ " IPC <= D") true
        (ipc <= float_of_int Uarch.reference.core.dispatch_width +. 1e-9))
    [ "gamess"; "hmmer"; "namd"; "libquantum" ]

let test_wider_machine_not_slower () =
  let narrow =
    { Uarch.reference with core = { Uarch.reference.core with dispatch_width = 2 } }
  in
  let r2 = Simulator.run narrow (Benchmarks.find "hmmer") ~seed:1 ~n_instructions:20_000 in
  let r4 = run "hmmer" in
  Alcotest.(check bool) "4-wide <= 2-wide cycles" true (r4.r_cycles <= r2.r_cycles)

let test_bigger_rob_not_slower_on_memory_bound () =
  let small = Uarch.with_rob Uarch.reference 32 in
  let big = Uarch.with_rob Uarch.reference 256 in
  let rs = Simulator.run small (Benchmarks.find "milc") ~seed:1 ~n_instructions:20_000 in
  let rb = Simulator.run big (Benchmarks.find "milc") ~seed:1 ~n_instructions:20_000 in
  Alcotest.(check bool) "more ROB helps MLP" true (rb.r_cycles < rs.r_cycles);
  Alcotest.(check bool) "more ROB, more MLP" true (rb.r_mlp >= rs.r_mlp)

let test_branch_penalty_visible () =
  (* sjeng (unpredictable) pays a branch component; disabling mispredicts
     removes it. *)
  let real = run "sjeng" in
  let oracle =
    run ~ideal:{ Simulator.real with no_branch_miss = true } "sjeng"
  in
  Alcotest.(check bool) "mispredicts occur" true (real.r_branch_mispredicts > 100);
  Alcotest.(check (float 1e-9)) "oracle branch stack" 0.0 oracle.r_stack.s_branch;
  Alcotest.(check bool) "oracle faster" true (oracle.r_cycles < real.r_cycles)

let test_icache_pressure_ranking () =
  (* gcc (big code) suffers more I-cache stall than libquantum (tiny). *)
  let gcc = run "gcc" and lq = run "libquantum" in
  let per_instr r =
    r.Sim_result.r_stack.s_icache /. float_of_int r.r_instructions
  in
  Alcotest.(check bool) "gcc icache >> libquantum" true
    (per_instr gcc > (10.0 *. per_instr lq))

let test_memory_bound_has_dram_component () =
  let r = run "mcf" in
  let dram_share =
    r.r_stack.s_dram /. float_of_int r.r_cycles
  in
  Alcotest.(check bool) "mcf DRAM-dominated" true (dram_share > 0.5);
  Alcotest.(check bool) "dram loads happened" true (r.r_dram_loads > 1000)

let test_mlp_bounds () =
  List.iter
    (fun name ->
      let r = run name in
      Alcotest.(check bool)
        (Printf.sprintf "%s MLP %.2f within [1, MSHRs+1]" name r.r_mlp)
        true
        (r.r_mlp >= 1.0
        && r.r_mlp <= float_of_int (Uarch.reference.core.mshr_entries + 1)))
    [ "gamess"; "mcf"; "milc"; "lbm"; "libquantum" ]

let test_mshr_limit_hurts () =
  let starved =
    { Uarch.reference with core = { Uarch.reference.core with mshr_entries = 1 } }
  in
  let r1 = Simulator.run starved (Benchmarks.find "milc") ~seed:1 ~n_instructions:20_000 in
  let r10 = run "milc" in
  Alcotest.(check bool) "1 MSHR slower than 10" true (r1.r_cycles > r10.r_cycles);
  Alcotest.(check bool) "1 MSHR caps MLP" true (r1.r_mlp <= 2.0)

let test_prefetcher_helps_strided () =
  let pf = Uarch.with_prefetcher Uarch.reference true in
  let without = run ~n:30_000 "libquantum" in
  let with_pf =
    Simulator.run pf (Benchmarks.find "libquantum") ~seed:1 ~n_instructions:30_000
  in
  Alcotest.(check bool) "prefetches issued" true (with_pf.r_prefetches_issued > 100);
  Alcotest.(check bool) "prefetching speeds up libquantum" true
    (with_pf.r_cycles < without.r_cycles);
  Alcotest.(check int) "disabled issues none" 0 without.r_prefetches_issued

let test_prefetcher_neutral_on_random () =
  let pf = Uarch.with_prefetcher Uarch.reference true in
  let without = run ~n:20_000 "mcf" in
  let with_pf =
    Simulator.run pf (Benchmarks.find "mcf") ~seed:1 ~n_instructions:20_000
  in
  let delta =
    Float.abs (float_of_int (with_pf.r_cycles - without.r_cycles))
    /. float_of_int without.r_cycles
  in
  Alcotest.(check bool) "pointer chasing barely affected" true (delta < 0.1)

let test_time_series () =
  let r =
    Simulator.run ~time_series_interval:5_000 Uarch.reference
      (Benchmarks.find "bzip2") ~seed:1 ~n_instructions:25_000
  in
  Alcotest.(check int) "five intervals" 5 (Array.length r.r_time_series);
  Array.iter
    (fun (_, cpi) -> Alcotest.(check bool) "positive interval CPI" true (cpi > 0.0))
    r.r_time_series

let test_activity_factors () =
  let r = run "gromacs" in
  let a = r.r_activity in
  Alcotest.(check (float 1e-9)) "cycles match" (float_of_int r.r_cycles) a.a_cycles;
  Alcotest.(check bool) "L1D accesses ~ loads+stores" true (a.a_l1d_accesses > 0.0);
  Alcotest.(check bool) "L2 accesses <= L1 accesses" true
    (a.a_l2_accesses <= a.a_l1d_accesses +. a.a_l1i_accesses);
  Alcotest.(check (float 1e-9)) "branch lookups" (float_of_int r.r_branches)
    a.a_branch_lookups;
  let by_class_total = Array.fold_left ( +. ) 0.0 a.a_uops_by_class in
  Alcotest.(check (float 1e-9)) "class counts total" (float_of_int r.r_uops)
    by_class_total

let test_slow_llc_shows_llc_component () =
  (* h264ref has L2/L3 traffic: blocked-on-LLC cycles appear. *)
  let r = run "h264ref" in
  Alcotest.(check bool) "llc-hit component present" true (r.r_stack.s_llc_hit > 0.0)

(* ---- Multi-core (run_shared) ---- *)

let test_shared_single_core_equivalence () =
  let spec = Benchmarks.find "gamess" in
  let solo = Simulator.run Uarch.reference spec ~seed:1 ~n_instructions:10_000 in
  match Simulator.run_shared Uarch.reference [ (spec, 1) ] ~n_instructions:10_000 with
  | [ r ] ->
    Alcotest.(check int) "one core shared = solo cycles" solo.r_cycles r.r_cycles;
    Alcotest.(check int) "same misses" solo.r_l3.load_misses r.r_l3.load_misses
  | _ -> Alcotest.fail "expected one result"

let test_shared_memory_bound_pair_slows () =
  let spec = Benchmarks.find "milc" in
  let n = 15_000 in
  let solo = Simulator.run Uarch.reference spec ~seed:1 ~n_instructions:n in
  match
    Simulator.run_shared Uarch.reference [ (spec, 1); (spec, 2) ] ~n_instructions:n
  with
  | [ ra; rb ] ->
    Alcotest.(check bool) "core A slower than solo" true
      (ra.r_cycles > solo.r_cycles);
    Alcotest.(check bool) "core B slower than solo" true (rb.r_cycles > 0);
    (* symmetric workloads suffer comparably *)
    let ratio = float_of_int ra.r_cycles /. float_of_int rb.r_cycles in
    Alcotest.(check bool) "roughly symmetric" true (ratio > 0.8 && ratio < 1.25)
  | _ -> Alcotest.fail "expected two results"

let test_shared_results_ordered_and_complete () =
  let names = [ "astar"; "povray"; "hmmer" ] in
  let workloads = List.mapi (fun i n -> (Benchmarks.find n, i + 1)) names in
  let results = Simulator.run_shared Uarch.reference workloads ~n_instructions:5_000 in
  Alcotest.(check (list string)) "names in order" names
    (List.map (fun (r : Sim_result.t) -> r.r_name) results);
  List.iter
    (fun (r : Sim_result.t) ->
      Alcotest.(check int) "all instructions committed" 5_000 r.r_instructions)
    results

let test_shared_rejects_empty () =
  Alcotest.check_raises "no workloads"
    (Invalid_argument "Simulator.run_shared: no workloads") (fun () ->
      ignore (Simulator.run_shared Uarch.reference [] ~n_instructions:100))

let prop_cycles_scale_with_instructions =
  QCheck.Test.make ~name:"more instructions, more cycles" ~count:10
    QCheck.(int_range 1 50)
    (fun seed ->
      let spec = Benchmarks.find "calculix" in
      let a = Simulator.run Uarch.reference spec ~seed ~n_instructions:5_000 in
      let b = Simulator.run Uarch.reference spec ~seed ~n_instructions:10_000 in
      b.r_cycles > a.r_cycles)

(* Replaying a recorded stream is the windowed run, bit for bit. *)
let test_run_stream_matches_run () =
  let n = 12_000 in
  let bits r = Marshal.to_string (r : Sim_result.t) [] in
  List.iter
    (fun (name, ideal, time_series_interval, config) ->
      let spec = Benchmarks.find name in
      let stream = Uop_stream.record spec ~seed:3 ~n_instructions:n in
      let direct =
        Simulator.run ~ideal ~time_series_interval config spec ~seed:3 ~n_instructions:n
      in
      let replayed = Simulator.run_stream ~ideal ~time_series_interval config stream in
      Alcotest.(check bool) (name ^ " bit-identical") true (bits direct = bits replayed))
    [
      ("mcf", Simulator.real, 10_000, Uarch.reference);
      ("gcc", Simulator.perfect, 10_000, Uarch.reference);
      ("GemsFDTD", Simulator.real, 1_500, Uarch.low_power);
      ( "sjeng",
        Simulator.real,
        4_000,
        Uarch.with_prefetcher_kind Uarch.reference Uarch.Pf_stride );
    ]

(* ---- Replaying one stream over many configs ---- *)

let bits r = Marshal.to_string (r : Sim_result.t) []

let workload_file name =
  (* The tests stanza copies workloads/ beside the test directory. *)
  Fault.or_raise (Workload_parser.load ("../workloads/" ^ name ^ ".workload"))

let with_l3 (u : Uarch.t) size_bytes =
  { u with caches = { u.caches with l3 = { u.caches.l3 with size_bytes } } }

(* [Simulator.replay]'s result for every config, called in [order], each
   checked against a fresh [run_stream]. *)
let check_replay ?(order = Fun.id) label spec ~n configs =
  let configs = Array.of_list configs in
  let stream = Uop_stream.record spec ~seed:1 ~n_instructions:n in
  let replay = Simulator.replay stream configs in
  let results = Array.make (Array.length configs) None in
  List.iter
    (fun i -> results.(i) <- Some (replay i))
    (order (List.init (Array.length configs) Fun.id));
  Array.mapi
    (fun i r ->
      let r = Option.get r in
      let fresh = Simulator.run_stream configs.(i) stream in
      if bits r <> bits fresh then
        Alcotest.failf "%s: %s differs from a fresh run" label configs.(i).name;
      r)
    results

(* Each consecutive chain of [k] results: how many runs it holds. *)
let runs ~k results =
  List.init (Array.length results / k) (fun c ->
      let chain = Array.sub results (c * k) k in
      let fresh j = not (Array.exists (fun r -> r == chain.(j)) (Array.sub chain 0 j)) in
      List.length (List.filter fresh (List.init k Fun.id)))

let test_replay_full_matrix () =
  List.iteri
    (fun f name ->
      (* One file replays in reverse, so larger L3s run first. *)
      let order = if f = 1 then List.rev else Fun.id in
      ignore
        (check_replay ~order name (workload_file name) ~n:20_000
           (Validate.matrix_configs `Full)))
    [ "branchy_interpreter"; "pointer_soup"; "streaming_fp" ]

(* Both benchmarks re-fetch lines in some 2 MB L3s of the matrix: those
   chains simulate again, the rest reuse. *)
let test_replay_falls_back () =
  List.iter
    (fun name ->
      let r =
        check_replay name (Benchmarks.find name) ~n:Validate.default_n_instructions
          (Validate.matrix_configs `Sim)
      in
      let runs = runs ~k:3 r in
      Alcotest.(check bool) (name ^ ": some chain reuses") true
        (List.exists (fun n -> n < 3) runs);
      Alcotest.(check bool) (name ^ ": some chain falls back") true
        (List.exists (fun n -> n > 1) runs))
    [ "xalancbmk"; "cactusADM" ]

let test_replay_chains () =
  let mb n = n * 1024 * 1024 and kb n = n * 1024 in
  let chain u sizes = List.map (with_l3 u) sizes in
  let stride = Uarch.with_prefetcher_kind Uarch.reference Uarch.Pf_stride in
  ignore (check_replay "prefetcher" (Benchmarks.find "lbm") ~n:20_000
            (chain stride [ mb 2; mb 4; mb 8 ]));
  let tiny =
    check_replay "tiny L3" (Benchmarks.find "mcf") ~n:20_000
      (chain Uarch.reference [ kb 64; kb 128; kb 256 ])
  in
  Alcotest.(check (list int)) "tiny L3s re-fetch, so each simulates" [ 3 ]
    (runs ~k:3 tiny);
  (* gamess stays in L1/L2 at 20k, so it looks up each L3 line once and
     even an 8-line L3 never re-fetches (the 512-byte and 1 KB 8-way
     chain reuses).  A 512-byte 16-way L3, clamped to 8 ways, is still
     not in the 16-way chain of 2 and 4 MB L3s. *)
  let eight_way size_bytes =
    let u = with_l3 Uarch.reference size_bytes in
    { u with caches = { u.caches with l3 = { u.caches.l3 with assoc = 8 } } }
  in
  let r =
    check_replay "clamped L3" (Benchmarks.find "gamess") ~n:20_000
      (with_l3 Uarch.reference 512 :: chain Uarch.reference [ mb 2; mb 4 ]
       @ [ eight_way 512; eight_way 1024 ])
  in
  Alcotest.(check bool) "an 8-line L3 never re-fetches" true (r.(4) == r.(3));
  Alcotest.(check bool) "the chain reuses" true (r.(2) == r.(1));
  Alcotest.(check bool) "the clamped L3 is apart" true (r.(1) != r.(0))

(* At jobs 1 every (width, ROB) chain of streaming_fp's matrix is one
   run: its 2 MB L3 never re-fetches a line. *)
let test_replay_reuses () =
  let configs = Array.of_list (Validate.matrix_configs `Sim) in
  let stream =
    Uop_stream.record (workload_file "streaming_fp") ~seed:1
      ~n_instructions:Validate.default_n_instructions
  in
  let replay = Simulator.replay stream configs in
  let r = Array.init (Array.length configs) replay in
  Alcotest.(check (list int)) "one run per chain" (List.init 9 (fun _ -> 1))
    (runs ~k:3 r)

let test_l3_refetched () =
  let caches : Uarch.caches =
    let level size_bytes assoc =
      { Uarch.size_bytes; assoc; line_bytes = 64; latency = 1 }
    in
    { l1i = level 256 2; l1d = level 256 2; l2 = level 512 2; l3 = level 1024 4 }
  in
  let walk h n =
    for i = 0 to n - 1 do
      ignore (Hierarchy.access_data h (i * 64) ~write:false)
    done
  in
  let h = Hierarchy.create caches in
  walk h 64;
  Alcotest.(check bool) "one walk: clear" false (Hierarchy.l3_refetched h);
  walk h 64;
  Alcotest.(check bool) "second walk past capacity: set" true (Hierarchy.l3_refetched h);
  let h = Hierarchy.create caches in
  walk h 8;
  walk h 8;
  Alcotest.(check bool) "second walk within capacity: clear" false
    (Hierarchy.l3_refetched h);
  ignore (Hierarchy.probe_llc h 0);
  Alcotest.(check bool) "probe that hits: clear" false (Hierarchy.l3_refetched h);
  ignore (Hierarchy.probe_llc h (1000 * 64));
  Alcotest.(check bool) "probe that misses: set" true (Hierarchy.l3_refetched h)

let () =
  Alcotest.run "sim"
    [
      ( "simulator",
        [
          Alcotest.test_case "completes" `Quick test_completes_all_instructions;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "stack accounts cycles" `Quick
            test_stack_accounts_all_cycles;
          Alcotest.test_case "perfect machine" `Quick test_perfect_machine_is_fast;
          Alcotest.test_case "IPC <= width" `Quick test_ipc_never_exceeds_width;
          Alcotest.test_case "wider not slower" `Quick test_wider_machine_not_slower;
          Alcotest.test_case "bigger ROB helps memory" `Quick
            test_bigger_rob_not_slower_on_memory_bound;
          Alcotest.test_case "branch penalty" `Quick test_branch_penalty_visible;
          Alcotest.test_case "icache pressure" `Quick test_icache_pressure_ranking;
          Alcotest.test_case "dram component" `Quick
            test_memory_bound_has_dram_component;
          Alcotest.test_case "mlp bounds" `Quick test_mlp_bounds;
          Alcotest.test_case "mshr limit" `Quick test_mshr_limit_hurts;
          Alcotest.test_case "prefetcher helps strided" `Quick
            test_prefetcher_helps_strided;
          Alcotest.test_case "prefetcher neutral on random" `Quick
            test_prefetcher_neutral_on_random;
          Alcotest.test_case "time series" `Quick test_time_series;
          Alcotest.test_case "activity factors" `Quick test_activity_factors;
          Alcotest.test_case "llc component" `Quick test_slow_llc_shows_llc_component;
          QCheck_alcotest.to_alcotest prop_cycles_scale_with_instructions;
          Alcotest.test_case "run_stream = run" `Quick test_run_stream_matches_run;
        ] );
      ( "l3 chains",
        [
          Alcotest.test_case "full matrix = fresh runs" `Slow test_replay_full_matrix;
          Alcotest.test_case "re-fetching L3s fall back" `Quick test_replay_falls_back;
          Alcotest.test_case "prefetch, tiny, clamped L3s" `Quick test_replay_chains;
          Alcotest.test_case "one run per L3 chain" `Quick test_replay_reuses;
          Alcotest.test_case "L3 re-fetch flag" `Quick test_l3_refetched;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "single-core equivalence" `Quick
            test_shared_single_core_equivalence;
          Alcotest.test_case "memory-bound pair slows" `Quick
            test_shared_memory_bound_pair_slows;
          Alcotest.test_case "results ordered and complete" `Quick
            test_shared_results_ordered_and_complete;
          Alcotest.test_case "rejects empty" `Quick test_shared_rejects_empty;
        ] );
    ]
