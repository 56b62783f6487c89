(* Unit and property tests for the util library: Rng, Histogram, Stats,
   Fit, Int_heap, Table. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float msg expected actual =
  Alcotest.(check (float 1e-6)) msg expected actual

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_bernoulli_mean () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (Float.abs (p -. 0.3) < 0.02)

let test_rng_geometric_mean () =
  let r = Rng.create 5 in
  let sum = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric r 0.25
  done;
  (* mean failures before success = (1-p)/p = 3 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~3" true (Float.abs (mean -. 3.0) < 0.15)

let test_rng_geometric_p1 () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 0 at p=1" 0 (Rng.geometric r 1.0)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 13 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rng.gaussian r ~mu:2.0 ~sigma:1.5) in
  Alcotest.(check bool) "mean" true (Float.abs (Stats.mean xs -. 2.0) < 0.05);
  Alcotest.(check bool) "stdev" true (Float.abs (Stats.stdev xs -. 1.5) < 0.05)

let test_rng_choose_weighted () =
  let r = Rng.create 17 in
  let counts = Array.make 3 0 in
  let arr = [| (1.0, 0); (2.0, 1); (7.0, 2) |] in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Rng.choose_weighted r arr in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "weight 0.1" true (Float.abs (frac 0 -. 0.1) < 0.01);
  Alcotest.(check bool) "weight 0.7" true (Float.abs (frac 2 -. 0.7) < 0.01)

let test_rng_choose_weighted_errors () =
  let r = Rng.create 17 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Rng.choose_weighted: empty array") (fun () ->
      ignore (Rng.choose_weighted r [||]));
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.choose_weighted: weights sum to zero") (fun () ->
      ignore (Rng.choose_weighted r [| (0.0, 1) |]))

let test_rng_shuffle_permutation () =
  let r = Rng.create 23 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independence () =
  let r = Rng.create 99 in
  let a = Rng.split r and b = Rng.split r in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 5)

(* ---- Histogram ---- *)

let test_hist_basic () =
  let h = Histogram.create () in
  Histogram.add h 5;
  Histogram.add h 5;
  Histogram.add h ~count:3 7;
  Alcotest.(check int) "count 5" 2 (Histogram.count h 5);
  Alcotest.(check int) "count 7" 3 (Histogram.count h 7);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 1);
  Alcotest.(check int) "total" 5 (Histogram.total h);
  Alcotest.(check int) "distinct" 2 (Histogram.distinct h)

let test_hist_mean () =
  let h = Histogram.create () in
  Histogram.add h ~count:2 10;
  Histogram.add h ~count:2 20;
  check_float "mean" 15.0 (Histogram.mean h);
  let empty = Histogram.create () in
  check_float "empty mean" 0.0 (Histogram.mean empty)

let test_hist_fraction_above () =
  let h = Histogram.create () in
  Histogram.add h ~count:3 1;
  Histogram.add h ~count:1 10;
  check_float "above 5" 0.25 (Histogram.fraction_above h 5);
  check_float "above 10" 0.0 (Histogram.fraction_above h 10);
  check_float "above 0" 1.0 (Histogram.fraction_above h 0)

let test_hist_sorted_iteration () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 5; -3; 9; 0 ];
  let keys = List.map fst (Histogram.to_sorted_list h) in
  Alcotest.(check (list int)) "sorted" [ -3; 0; 5; 9 ] keys

let test_hist_merge_scale () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a ~count:2 1;
  Histogram.add b ~count:3 1;
  Histogram.add b 2;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 5 (Histogram.count m 1);
  Alcotest.(check int) "merged total" 6 (Histogram.total m);
  let s = Histogram.scale a 4 in
  Alcotest.(check int) "scaled" 8 (Histogram.count s 1)

let test_hist_quantile () =
  let h = Histogram.create () in
  Histogram.add h ~count:50 1;
  Histogram.add h ~count:40 2;
  Histogram.add h ~count:10 3;
  Alcotest.(check int) "median" 1 (Histogram.quantile_key h 0.5);
  Alcotest.(check int) "p90" 2 (Histogram.quantile_key h 0.9);
  Alcotest.(check int) "p99" 3 (Histogram.quantile_key h 0.99)

let test_hist_normalize () =
  let h = Histogram.create () in
  Histogram.add h ~count:1 0;
  Histogram.add h ~count:3 1;
  let n = Histogram.normalize h in
  Alcotest.(check int) "entries" 2 (List.length n);
  Alcotest.(check bool) "sums to one" true
    (feq ~eps:1e-9 1.0 (List.fold_left (fun a (_, p) -> a +. p) 0.0 n))

let test_hist_top_k () =
  let h = Histogram.create () in
  Histogram.add h ~count:5 10;
  Histogram.add h ~count:9 20;
  Histogram.add h ~count:1 30;
  Alcotest.(check (list (pair int int))) "top 2" [ (20, 9); (10, 5) ]
    (Histogram.top_k h 2)

let prop_hist_total =
  QCheck.Test.make ~name:"histogram total equals sum of counts" ~count:200
    QCheck.(small_list (pair (int_range (-100) 100) (int_range 0 20)))
    (fun entries ->
      let h = Histogram.create () in
      List.iter (fun (k, c) -> Histogram.add h ~count:c k) entries;
      Histogram.total h = List.fold_left (fun a (_, c) -> a + c) 0 entries)

let prop_hist_merge_commutes =
  QCheck.Test.make ~name:"histogram merge commutes" ~count:100
    QCheck.(
      pair
        (small_list (pair (int_range 0 50) (int_range 1 5)))
        (small_list (pair (int_range 0 50) (int_range 1 5))))
    (fun (ea, eb) ->
      let build entries =
        let h = Histogram.create () in
        List.iter (fun (k, c) -> Histogram.add h ~count:c k) entries;
        h
      in
      let ab = Histogram.merge (build ea) (build eb) in
      let ba = Histogram.merge (build eb) (build ea) in
      Histogram.to_sorted_list ab = Histogram.to_sorted_list ba)

(* The dense fast path covers keys [0, 4096); these sit exactly on its
   boundaries and in the negative/large spill tails. *)
let test_hist_dense_spill_boundaries () =
  let h = Histogram.create () in
  let keys = [ 0; 63; 64; 4095; 4096; 100_000; -1; -4096 ] in
  List.iter (fun k -> Histogram.add h ~count:(abs k + 1) k) keys;
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "count %d" k)
        (abs k + 1) (Histogram.count h k))
    keys;
  Alcotest.(check int) "distinct" (List.length keys) (Histogram.distinct h);
  Alcotest.(check (list int)) "sorted across tiers"
    [ -4096; -1; 0; 63; 64; 4095; 4096; 100_000 ]
    (List.map fst (Histogram.to_sorted_list h));
  Alcotest.(check int) "absent dense key" 0 (Histogram.count h 1);
  Alcotest.(check int) "absent spill key" 0 (Histogram.count h (-7))

let test_hist_zero_count_is_noop () =
  let h = Histogram.create () in
  Histogram.add h ~count:0 5;
  Histogram.add h ~count:0 9999;
  Alcotest.(check int) "distinct" 0 (Histogram.distinct h);
  Alcotest.(check bool) "still empty" true (Histogram.is_empty h);
  Alcotest.(check (list (pair int int))) "no entries" []
    (Histogram.to_sorted_list h)

let test_hist_copy_independent () =
  let h = Histogram.create () in
  Histogram.add h 10;
  Histogram.add h 5000;
  let c = Histogram.copy h in
  Histogram.add c 10;
  Histogram.add c ~count:2 (-4);
  Alcotest.(check int) "original dense untouched" 1 (Histogram.count h 10);
  Alcotest.(check int) "original spill untouched" 0 (Histogram.count h (-4));
  Alcotest.(check int) "copy dense" 2 (Histogram.count c 10);
  Alcotest.(check int) "copy total" 5 (Histogram.total c)

(* Pins the cached-sorted-view invalidation: interleave adds with reads
   of every sorted accessor and compare against a naive association-list
   model after each step. *)
let prop_hist_cached_view_equivalence =
  QCheck.Test.make
    ~name:"sorted view / quantile / iter / fold match model under interleaving"
    ~count:300
    QCheck.(
      small_list
        (pair (int_range (-100) 5000) (int_range 1 9)))
    (fun entries ->
      let h = Histogram.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, c) ->
          Histogram.add h ~count:c k;
          Hashtbl.replace model k
            (c + Option.value (Hashtbl.find_opt model k) ~default:0);
          let expected =
            Hashtbl.fold (fun k c acc -> (k, c) :: acc) model []
            |> List.sort compare
          in
          let total = List.fold_left (fun a (_, c) -> a + c) 0 expected in
          let iter_acc = ref [] in
          Histogram.iter h (fun k c -> iter_acc := (k, c) :: !iter_acc);
          let fold_acc =
            Histogram.fold h ~init:[] ~f:(fun acc k c -> (k, c) :: acc)
          in
          let quantile_model q =
            let target = q *. float_of_int total in
            let rec go acc = function
              | [] -> assert false
              | [ (k, _) ] -> k
              | (k, c) :: rest ->
                let acc = acc +. float_of_int c in
                if acc >= target then k else go acc rest
            in
            go 0.0 expected
          in
          Histogram.to_sorted_list h = expected
          && List.rev !iter_acc = expected
          && List.rev fold_acc = expected
          && Histogram.total h = total
          && Histogram.distinct h = List.length expected
          && List.for_all
               (fun q -> Histogram.quantile_key h q = quantile_model q)
               [ 0.1; 0.5; 0.9; 1.0 ])
        entries)

(* ---- Stats ---- *)

let test_stats_mean_stdev () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean []);
  check_float "stdev" (sqrt (2.0 /. 3.0)) (Stats.stdev [ 1.0; 2.0; 3.0 ]);
  check_float "single stdev" 0.0 (Stats.stdev [ 5.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0);
  check_float "interp" 1.5 (Stats.percentile xs 12.5)

let test_stats_median_even () =
  check_float "median of 4" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_mean_abs () =
  check_float "mean abs" 2.0 (Stats.mean_abs [ -1.0; 3.0; -2.0 ]);
  check_float "max abs" 3.0 (Stats.max_abs [ -1.0; 3.0; -2.0 ])

let test_stats_relative_error () =
  check_float "10% high" 0.1 (Stats.relative_error ~predicted:1.1 ~reference:1.0);
  check_float "both zero" 0.0 (Stats.relative_error ~predicted:0.0 ~reference:0.0)

let test_stats_box () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 100.0 ] in
  let b = Stats.box_summary xs in
  Alcotest.(check bool) "outlier found" true (List.mem 100.0 b.outliers);
  Alcotest.(check bool) "whisker below fence" true (b.whisker_hi <= 10.0)

let test_stats_cdf () =
  let cdf = Stats.cumulative_distribution [ 3.0; 1.0; 2.0; 2.0 ] in
  Alcotest.(check int) "distinct points" 3 (List.length cdf);
  let last_v, last_f = List.nth cdf 2 in
  check_float "last value" 3.0 last_v;
  check_float "last fraction" 1.0 last_f

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

(* ---- Fit ---- *)

let test_fit_linear_exact () =
  let f = Fit.linear [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check_float "slope" 2.0 f.slope;
  check_float "intercept" 1.0 f.intercept;
  check_float "r2 perfect" 1.0 (Fit.r_squared f [ (0.0, 1.0); (1.0, 3.0) ])

let test_fit_linear_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Fit.linear: need at least two points") (fun () ->
      ignore (Fit.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "no variance"
    (Invalid_argument "Fit.linear: zero x-variance") (fun () ->
      ignore (Fit.linear [ (1.0, 1.0); (1.0, 2.0) ]))

let test_fit_log () =
  (* y = 2 + 3 log x *)
  let pts = List.map (fun x -> (x, 2.0 +. (3.0 *. log x))) [ 1.0; 2.0; 8.0; 64.0 ] in
  let f = Fit.logarithmic pts in
  Alcotest.(check bool) "a" true (feq ~eps:1e-6 2.0 f.a);
  Alcotest.(check bool) "b" true (feq ~eps:1e-6 3.0 f.b);
  Alcotest.(check bool) "eval" true (feq ~eps:1e-6 (2.0 +. (3.0 *. log 5.0)) (Fit.eval_log f 5.0))

let test_fit_interpolate_log () =
  (* Exact through both endpoints. *)
  let y = Fit.interpolate_log (16.0, 2.0) (256.0, 6.0) 16.0 in
  check_float "left endpoint" 2.0 y;
  let y = Fit.interpolate_log (16.0, 2.0) (256.0, 6.0) 256.0 in
  check_float "right endpoint" 6.0 y;
  let y = Fit.interpolate_log (16.0, 2.0) (256.0, 6.0) 64.0 in
  check_float "midpoint in log space" 4.0 y

let test_fit_multiple_linear () =
  (* y = 1 + 2a + 3b *)
  let rows =
    [ ([| 0.0; 0.0 |], 1.0); ([| 1.0; 0.0 |], 3.0); ([| 0.0; 1.0 |], 4.0);
      ([| 1.0; 1.0 |], 6.0); ([| 2.0; 1.0 |], 8.0) ]
  in
  let w = Fit.multiple_linear rows in
  Alcotest.(check bool) "intercept" true (feq ~eps:1e-4 1.0 w.(0));
  Alcotest.(check bool) "wa" true (feq ~eps:1e-4 2.0 w.(1));
  Alcotest.(check bool) "wb" true (feq ~eps:1e-4 3.0 w.(2));
  Alcotest.(check bool) "eval" true
    (feq ~eps:1e-4 13.0 (Fit.eval_multiple w [| 3.0; 2.0 |]))

let prop_linear_fit_residual_orthogonal =
  QCheck.Test.make ~name:"linear fit minimizes squared error vs perturbations"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 3 20) (pair (float_range 0. 10.) (float_range (-5.) 5.)))
    (fun pts ->
      (* Need x variance. *)
      let xs = List.map fst pts in
      let distinct = List.sort_uniq compare xs in
      QCheck.assume (List.length distinct >= 2);
      let f = Fit.linear pts in
      let sse slope intercept =
        List.fold_left
          (fun acc (x, y) -> acc +. ((y -. ((slope *. x) +. intercept)) ** 2.0))
          0.0 pts
      in
      let best = sse f.slope f.intercept in
      best <= sse (f.slope +. 0.01) f.intercept +. 1e-9
      && best <= sse f.slope (f.intercept +. 0.01) +. 1e-9)

(* ---- Int_heap ---- *)

let test_heap_order () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 5; 1; 9; 3; 7; 1 ];
  let drained = List.init 6 (fun _ -> Int_heap.pop h) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 5; 7; 9 ] drained;
  Alcotest.(check bool) "empty" true (Int_heap.is_empty h)

let test_heap_pop_while_le () =
  let h = Int_heap.create () in
  List.iter (Int_heap.push h) [ 2; 4; 6; 8 ];
  Alcotest.(check int) "popped" 2 (Int_heap.pop_while_le h 5);
  Alcotest.(check int) "min left" 6 (Int_heap.min_elt h)

let test_heap_errors () =
  let h = Int_heap.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_heap.pop: empty heap")
    (fun () -> ignore (Int_heap.pop h))

let test_heap_growth () =
  let h = Int_heap.create () in
  for i = 1000 downto 1 do
    Int_heap.push h i
  done;
  Alcotest.(check int) "size" 1000 (Int_heap.size h);
  Alcotest.(check int) "min" 1 (Int_heap.min_elt h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let h = Int_heap.create () in
      List.iter (Int_heap.push h) xs;
      let drained = List.init (List.length xs) (fun _ -> Int_heap.pop h) in
      drained = List.sort compare xs)

(* ---- Table ---- *)

let test_table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  (* short row padded, no exception *)
  Alcotest.(check bool) "has three lines + rows" true
    (List.length (String.split_on_char '\n' out) >= 4)

let test_table_formats () =
  Alcotest.(check string) "float" "1.235" (Table.fmt_f 1.2349);
  Alcotest.(check string) "pct" "9.3%" (Table.fmt_pct 0.093)

(* ---- Parallel ---- *)

let test_parallel_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * 37) + 1 in
  Alcotest.(check (list int)) "jobs=4 preserves order" (List.map f xs)
    (Parallel.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 fallback" (List.map f xs)
    (Parallel.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "default sequential" (List.map f xs)
    (Parallel.map f xs);
  (* more workers than elements: each worker gets at most one item *)
  Alcotest.(check (list int)) "jobs > length" (List.map f [ 1; 2; 3 ])
    (Parallel.map ~jobs:64 f [ 1; 2; 3 ])

let test_parallel_mapi_indices () =
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  let got = Parallel.mapi ~jobs:3 (fun i s -> Printf.sprintf "%d%s" i s) xs in
  Alcotest.(check (list string)) "indices in input order"
    [ "0a"; "1b"; "2c"; "3d"; "4e" ] got

let test_parallel_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~jobs:8 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Parallel.map ~jobs:8 (fun x -> x + 1) [ 6 ])

let test_parallel_map_array () =
  let xs = Array.init 37 Fun.id in
  Alcotest.(check (array int)) "array order"
    (Array.map (fun x -> 2 * x) xs)
    (Parallel.map_array ~jobs:4 (fun x -> 2 * x) xs)

exception Boom of int

let test_parallel_map_propagates_exception () =
  let xs = List.init 64 Fun.id in
  match Parallel.map ~jobs:4 (fun x -> if x = 40 then raise (Boom x) else x) xs with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 40 -> ()

let prop_parallel_map_equals_list_map =
  QCheck.Test.make ~name:"Parallel.map = List.map for any jobs" ~count:100
    QCheck.(pair (int_range 1 9) (small_list small_int))
    (fun (jobs, xs) ->
      Parallel.map ~jobs (fun x -> (x * x) - (3 * x)) xs
      = List.map (fun x -> (x * x) - (3 * x)) xs)

(* ---- Minijson ---- *)

(* Bytes the printer must escape (quote, backslash, control bytes) mixed
   with plain ASCII and non-ASCII bytes. *)
let gen_json_string =
  QCheck.Gen.(
    string_size (int_bound 8)
      ~gen:
        (oneof
           [
             oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '/'; '\127' ];
             printable;
             map Char.chr (int_range 0x80 0xff);
           ]))

(* Negative and positive; integral (exact below 2^53, rounded above) and
   fractional, from tiny to huge magnitudes. *)
let gen_json_float =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map2 ldexp (float_range (-1.0) 1.0) (int_range (-60) 80);
        map2 (fun m e -> Float.round (ldexp m e)) (float_range (-1.0) 1.0)
          (int_range 0 70);
      ])

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Minijson.Null;
                 map (fun b -> Minijson.Bool b) bool;
                 map (fun f -> Minijson.Num f) gen_json_float;
                 map (fun s -> Minijson.Str s) gen_json_string;
               ]
           in
           if n <= 1 then leaf
           else
             let child = self (n / 3) in
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Minijson.Arr l) (list_size (int_bound 4) child));
                 ( 1,
                   map
                     (fun l -> Minijson.Obj l)
                     (list_size (int_bound 4) (pair gen_json_string child)) );
               ]))

(* Equality with numbers compared through the printer's %.9g rounding. *)
let rec json_equal a b =
  match (a, b) with
  | Minijson.Num x, Minijson.Num y ->
    Printf.sprintf "%.9g" x = Printf.sprintf "%.9g" y
  | Arr xs, Arr ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

let prop_json_print_parse =
  QCheck.Test.make ~name:"Minijson.parse (print v) = v" ~count:500
    (QCheck.make ~print:Minijson.print gen_json)
    (fun v ->
      match Minijson.parse ~context:"test" (Minijson.print v) with
      | Ok w -> json_equal v w
      | Error ft -> QCheck.Test.fail_reportf "%s" (Fault.to_string ft))

let test_json_layout () =
  Alcotest.(check string) "non-finite numbers print as null"
    "[\n  null,\n  null,\n  null\n]\n"
    (Minijson.print (Arr [ Num nan; Num infinity; Num neg_infinity ]));
  Alcotest.(check string) "indent, member order, numbers"
    "{\n  \"b\": [],\n  \"a\": {\n    \"n\": 81,\n    \"x\": 0.12,\n    \
     \"big\": 1e+300,\n    \"e\": {}\n  },\n  \"s\": \"q\\\"\\u0001\"\n}\n"
    (Minijson.print
       (Obj
          [
            ("b", Arr []);
            ( "a",
              Obj
                [ ("n", Num 81.0); ("x", Num 0.12); ("big", Num 1e300); ("e", Obj []) ]
            );
            ("s", Str "q\"\001");
          ]))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int rejects nonpositive" `Quick
            test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_p1;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "choose weighted" `Quick test_rng_choose_weighted;
          Alcotest.test_case "choose weighted errors" `Quick
            test_rng_choose_weighted_errors;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic counts" `Quick test_hist_basic;
          Alcotest.test_case "mean" `Quick test_hist_mean;
          Alcotest.test_case "fraction above" `Quick test_hist_fraction_above;
          Alcotest.test_case "sorted iteration" `Quick test_hist_sorted_iteration;
          Alcotest.test_case "merge and scale" `Quick test_hist_merge_scale;
          Alcotest.test_case "quantile" `Quick test_hist_quantile;
          Alcotest.test_case "normalize" `Quick test_hist_normalize;
          Alcotest.test_case "top k" `Quick test_hist_top_k;
          Alcotest.test_case "dense/spill boundaries" `Quick
            test_hist_dense_spill_boundaries;
          Alcotest.test_case "zero count is noop" `Quick
            test_hist_zero_count_is_noop;
          Alcotest.test_case "copy independence" `Quick test_hist_copy_independent;
          QCheck_alcotest.to_alcotest prop_hist_total;
          QCheck_alcotest.to_alcotest prop_hist_merge_commutes;
          QCheck_alcotest.to_alcotest prop_hist_cached_view_equivalence;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean stdev" `Quick test_stats_mean_stdev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "mean abs" `Quick test_stats_mean_abs;
          Alcotest.test_case "relative error" `Quick test_stats_relative_error;
          Alcotest.test_case "box summary" `Quick test_stats_box;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_fit_linear_exact;
          Alcotest.test_case "linear errors" `Quick test_fit_linear_errors;
          Alcotest.test_case "log fit" `Quick test_fit_log;
          Alcotest.test_case "log interpolation" `Quick test_fit_interpolate_log;
          Alcotest.test_case "multiple linear" `Quick test_fit_multiple_linear;
          QCheck_alcotest.to_alcotest prop_linear_fit_residual_orthogonal;
        ] );
      ( "int_heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "pop while le" `Quick test_heap_pop_while_le;
          Alcotest.test_case "errors" `Quick test_heap_errors;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_parallel_map_matches_sequential;
          Alcotest.test_case "mapi indices" `Quick test_parallel_mapi_indices;
          Alcotest.test_case "empty and singleton" `Quick
            test_parallel_map_empty_and_singleton;
          Alcotest.test_case "map_array" `Quick test_parallel_map_array;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_map_propagates_exception;
          QCheck_alcotest.to_alcotest prop_parallel_map_equals_list_map;
        ] );
      ( "minijson",
        [
          Alcotest.test_case "layout" `Quick test_json_layout;
          QCheck_alcotest.to_alcotest prop_json_print_parse;
        ] );
    ]
