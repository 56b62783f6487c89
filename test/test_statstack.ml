(* Tests for the StatStack statistical cache model. *)

let hist entries =
  let h = Histogram.create () in
  List.iter (fun (k, c) -> Histogram.add h ~count:c k) entries;
  h

let test_empty_histogram () =
  let ss = Statstack.of_reuse_histogram (hist []) in
  Alcotest.(check (float 1e-9)) "sd" 0.0 (Statstack.expected_stack_distance ss 100);
  Alcotest.(check (float 1e-9)) "no cold, no misses" 0.0
    (Statstack.miss_ratio ss ~cache_lines:4)

let test_empty_with_cold () =
  let ss = Statstack.of_reuse_histogram ~cold_fraction:0.3 (hist []) in
  Alcotest.(check (float 1e-9)) "cold floor" 0.3 (Statstack.miss_ratio ss ~cache_lines:4)

let test_all_zero_reuse () =
  (* rd = 0 everywhere: every reuse has stack distance 0, hits any cache. *)
  let ss = Statstack.of_reuse_histogram (hist [ (0, 100) ]) in
  Alcotest.(check (float 1e-9)) "sd(1)" 0.0 (Statstack.expected_stack_distance ss 1);
  Alcotest.(check (float 1e-9)) "all hit" 0.0 (Statstack.miss_ratio ss ~cache_lines:1)

let test_uniform_single_distance () =
  (* Every reuse has rd = 10: S(j) = 1 for j < 10, so sd(r) = min(r, 10).
     In a cyclic walk over 11 lines that is exactly right. *)
  let ss = Statstack.of_reuse_histogram (hist [ (10, 1000) ]) in
  Alcotest.(check (float 1e-6)) "sd(5)" 5.0 (Statstack.expected_stack_distance ss 5);
  Alcotest.(check (float 1e-6)) "sd(10)" 10.0 (Statstack.expected_stack_distance ss 10);
  Alcotest.(check (float 1e-6)) "sd saturates" 10.0
    (Statstack.expected_stack_distance ss 100);
  Alcotest.(check (float 1e-6)) "fits in 10 lines" 0.0
    (Statstack.miss_ratio ss ~cache_lines:10);
  Alcotest.(check (float 1e-6)) "misses in 9 lines" 1.0
    (Statstack.miss_ratio ss ~cache_lines:9)

let test_mixture () =
  (* Half short (rd 2), half long (rd 100): a mid-size cache catches the
     short reuses only. *)
  let ss = Statstack.of_reuse_histogram (hist [ (2, 500); (100, 500) ]) in
  let m_small = Statstack.miss_ratio ss ~cache_lines:1 in
  let m_mid = Statstack.miss_ratio ss ~cache_lines:30 in
  let m_big = Statstack.miss_ratio ss ~cache_lines:200 in
  Alcotest.(check bool) "small cache misses a lot" true (m_small > 0.9);
  Alcotest.(check bool) "mid cache catches short" true
    (m_mid > 0.4 && m_mid < 0.6);
  Alcotest.(check (float 1e-9)) "big cache catches all" 0.0 m_big

let test_cold_added_on_top () =
  let ss = Statstack.of_reuse_histogram ~cold_fraction:0.2 (hist [ (2, 100) ]) in
  (* reuses all hit a big cache, only cold misses remain *)
  Alcotest.(check (float 1e-9)) "cold only" 0.2 (Statstack.miss_ratio ss ~cache_lines:100)

let test_capacity_boundary_exactly_cold () =
  (* Regression: with [total_reuses > 0], a cache whose capacity reaches
     the largest expected stack distance must return *exactly* [cold]
     (inclusive boundary), not an approximation of it.  All reuses at
     rd = 8 make E[sd] saturate at exactly 8.0. *)
  let ss = Statstack.of_reuse_histogram ~cold_fraction:0.25 (hist [ (8, 400) ]) in
  Alcotest.(check (float 0.0)) "capacity = max E[sd]: exactly cold" 0.25
    (Statstack.miss_ratio ss ~cache_lines:8);
  Alcotest.(check (float 0.0)) "capacity beyond max rd: exactly cold" 0.25
    (Statstack.miss_ratio ss ~cache_lines:1_000_000);
  Alcotest.(check (float 1e-9)) "one line short: every reuse misses" 1.0
    (Statstack.miss_ratio ss ~cache_lines:7);
  (* same boundary without cold misses: exactly 0.0 *)
  let warm = Statstack.of_reuse_histogram (hist [ (8, 400) ]) in
  Alcotest.(check (float 0.0)) "no cold: exactly zero" 0.0
    (Statstack.miss_ratio warm ~cache_lines:8)

let test_rejects_bad_inputs () =
  Alcotest.check_raises "negative rd"
    (Invalid_argument "Statstack.of_reuse_histogram: negative reuse distance")
    (fun () -> ignore (Statstack.of_reuse_histogram (hist [ (-1, 5) ])));
  Alcotest.check_raises "bad cold"
    (Invalid_argument "Statstack.of_reuse_histogram: cold_fraction out of range")
    (fun () -> ignore (Statstack.of_reuse_histogram ~cold_fraction:1.5 (hist [])))

let test_accessors () =
  let ss = Statstack.of_reuse_histogram ~cold_fraction:0.1 (hist [ (3, 7) ]) in
  Alcotest.(check (float 1e-9)) "cold" 0.1 (Statstack.cold_fraction ss);
  Alcotest.(check int) "reuses" 7 (Statstack.reuse_count ss)

let test_miss_ratio_for_level () =
  let lvl : Uarch.cache_level =
    { size_bytes = 10 * 64; assoc = 2; line_bytes = 64; latency = 1 }
  in
  let ss = Statstack.of_reuse_histogram (hist [ (10, 100) ]) in
  Alcotest.(check (float 1e-9)) "10 lines fit" 0.0 (Statstack.miss_ratio_for ss lvl)

let test_against_lru_simulation_cyclic () =
  (* Cyclic walk over N lines: an LRU cache of >= N lines gets all hits
     after warmup, < N lines gets all misses.  StatStack must agree. *)
  let n = 32 in
  let trace = List.init 2000 (fun i -> (i mod n) * 64) in
  (* measure reuse distances *)
  let h = Histogram.create () in
  let last = Hashtbl.create 64 in
  List.iteri
    (fun i addr ->
      let line = addr / 64 in
      (match Hashtbl.find_opt last line with
      | Some p -> Histogram.add h (i - p - 1)
      | None -> ());
      Hashtbl.replace last line i)
    trace;
  let ss = Statstack.of_reuse_histogram h in
  Alcotest.(check (float 0.01)) "fits exactly" 0.0
    (Statstack.miss_ratio ss ~cache_lines:n);
  Alcotest.(check (float 0.01)) "thrashes below" 1.0
    (Statstack.miss_ratio ss ~cache_lines:(n - 2))

let test_against_lru_simulation_random () =
  (* Random accesses over a working set: StatStack's miss ratio should be
     within a few points of a simulated fully-associative LRU. *)
  let lines = 256 in
  let rng = Rng.create 9 in
  let trace = List.init 40_000 (fun _ -> Rng.int rng lines * 64) in
  let h = Histogram.create () in
  let last = Hashtbl.create 64 in
  let cold = ref 0 and accesses = ref 0 in
  List.iteri
    (fun i addr ->
      incr accesses;
      let line = addr / 64 in
      (match Hashtbl.find_opt last line with
      | Some p -> Histogram.add h (i - p - 1)
      | None -> incr cold);
      Hashtbl.replace last line i)
    trace;
  let cold_fraction = float_of_int !cold /. float_of_int !accesses in
  let ss = Statstack.of_reuse_histogram ~cold_fraction h in
  List.iter
    (fun cache_lines ->
      (* simulate a fully-associative LRU of that many lines *)
      let cache =
        Cache.create
          { size_bytes = cache_lines * 64; assoc = cache_lines; line_bytes = 64;
            latency = 1 }
      in
      let misses = ref 0 in
      List.iter
        (fun a -> if Cache.access cache a <> Cache.Hit then incr misses)
        trace;
      let simulated = float_of_int !misses /. float_of_int (List.length trace) in
      let predicted = Statstack.miss_ratio ss ~cache_lines in
      Alcotest.(check bool)
        (Printf.sprintf "lines=%d sim=%.3f pred=%.3f" cache_lines simulated predicted)
        true
        (Float.abs (simulated -. predicted) < 0.08))
    [ 32; 64; 128; 300 ]

let prop_sd_monotone_and_bounded =
  QCheck.Test.make ~name:"stack distance monotone and <= rd" ~count:100
    QCheck.(small_list (pair (int_range 0 500) (int_range 1 50)))
    (fun entries ->
      let ss = Statstack.of_reuse_histogram (hist entries) in
      let ok = ref true in
      let prev = ref 0.0 in
      for r = 0 to 600 do
        let sd = Statstack.expected_stack_distance ss r in
        if sd < !prev -. 1e-9 then ok := false;
        if sd > float_of_int r +. 1e-9 then ok := false;
        prev := sd
      done;
      !ok)

let prop_miss_ratio_monotone_in_size =
  QCheck.Test.make ~name:"miss ratio non-increasing in cache size" ~count:100
    QCheck.(
      pair
        (small_list (pair (int_range 0 500) (int_range 1 50)))
        (float_range 0.0 0.5))
    (fun (entries, cold) ->
      let ss = Statstack.of_reuse_histogram ~cold_fraction:cold (hist entries) in
      let ok = ref true in
      let prev = ref 1.1 in
      List.iter
        (fun size ->
          let m = Statstack.miss_ratio ss ~cache_lines:size in
          if m > !prev +. 1e-9 then ok := false;
          if m < cold -. 1e-9 then ok := false;
          prev := m)
        [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ];
      !ok)

(* The production [miss_ratio] finds the smallest r with
   E[sd(r)] > capacity by a two-level binary search.  Restate it as the
   textbook linear scan over the public API and demand bit-identical
   results — this is the equivalence proof obligation of the O(log n)
   rewrite, checked instead of assumed. *)
let reference_miss_ratio ss ~max_rd ~cache_lines =
  if cache_lines <= 0 then 1.0
  else if Statstack.reuse_count ss = 0 then Statstack.cold_fraction ss
  else begin
    let capacity = float_of_int cache_lines in
    if Statstack.expected_stack_distance ss max_rd <= capacity then
      Statstack.cold_fraction ss
    else begin
      let r = ref 1 in
      while Statstack.expected_stack_distance ss !r <= capacity do incr r done;
      let cold = Statstack.cold_fraction ss in
      cold +. ((1.0 -. cold) *. Statstack.survival ss (!r - 1))
    end
  end

let prop_miss_ratio_matches_linear_reference =
  QCheck.Test.make
    ~name:"binary-search miss ratio = linear"
    ~count:300
    QCheck.(
      pair
        (small_list (pair (int_range 0 2000) (int_range 1 50)))
        (float_range 0.0 0.5))
    (fun (entries, cold) ->
      QCheck.assume (entries <> []);
      let ss = Statstack.of_reuse_histogram ~cold_fraction:cold (hist entries) in
      let max_rd = 1 + List.fold_left (fun m (k, _) -> max m k) 0 entries in
      List.for_all
        (fun size ->
          Statstack.miss_ratio ss ~cache_lines:size
          = reference_miss_ratio ss ~max_rd ~cache_lines:size)
        [ 0; 1; 2; 3; 5; 8; 13; 30; 100; 317; 1000; 2500 ])

let () =
  Alcotest.run "statstack"
    [
      ( "statstack",
        [
          Alcotest.test_case "empty" `Quick test_empty_histogram;
          Alcotest.test_case "empty with cold" `Quick test_empty_with_cold;
          Alcotest.test_case "all zero reuse" `Quick test_all_zero_reuse;
          Alcotest.test_case "uniform distance" `Quick test_uniform_single_distance;
          Alcotest.test_case "mixture" `Quick test_mixture;
          Alcotest.test_case "cold on top" `Quick test_cold_added_on_top;
          Alcotest.test_case "capacity boundary exactly cold" `Quick
            test_capacity_boundary_exactly_cold;
          Alcotest.test_case "rejects bad inputs" `Quick test_rejects_bad_inputs;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "miss_ratio_for" `Quick test_miss_ratio_for_level;
          Alcotest.test_case "matches LRU on cyclic walk" `Quick
            test_against_lru_simulation_cyclic;
          Alcotest.test_case "matches LRU on random trace" `Quick
            test_against_lru_simulation_random;
          QCheck_alcotest.to_alcotest prop_sd_monotone_and_bounded;
          QCheck_alcotest.to_alcotest prop_miss_ratio_monotone_in_size;
          QCheck_alcotest.to_alcotest prop_miss_ratio_matches_linear_reference;
        ] );
    ]
