(* Tests for the synthetic workload substrate. *)

open Workload_spec

let collect name n =
  let gen = Workload_gen.create (Benchmarks.find name) ~seed:1 in
  let uops = ref [] in
  Workload_gen.iter_uops gen ~n_instructions:n ~f:(fun u -> uops := u :: !uops);
  (gen, List.rev !uops)

let test_determinism () =
  let _, a = collect "astar" 5000 in
  let _, b = collect "astar" 5000 in
  Alcotest.(check bool) "identical streams" true (a = b)

let test_different_seeds_differ () =
  let g1 = Workload_gen.create (Benchmarks.find "astar") ~seed:1 in
  let g2 = Workload_gen.create (Benchmarks.find "astar") ~seed:2 in
  let addr_sum g =
    let s = ref 0 in
    Workload_gen.iter_uops g ~n_instructions:2000 ~f:(fun (u : Isa.uop) ->
        s := !s lxor u.addr);
    !s
  in
  Alcotest.(check bool) "different" true (addr_sum g1 <> addr_sum g2)

let test_29_benchmarks () =
  Alcotest.(check int) "29 benchmarks" 29 (List.length Benchmarks.all);
  Alcotest.(check int) "names match" 29 (List.length Benchmarks.names);
  List.iter
    (fun (name, spec) ->
      Alcotest.(check string) "wname matches key" name spec.wname;
      match Workload_spec.validate spec with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" name msg)
    Benchmarks.all

let test_find_raises () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Benchmarks.find "quake3"))

let test_memory_bound_and_phased_subsets () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " exists") true (List.mem n Benchmarks.names))
    (Benchmarks.memory_bound @ Benchmarks.phased);
  Alcotest.(check bool) "some phased benchmarks" true (Benchmarks.phased <> []);
  (* phased really have >1 phase *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " multi-phase") true
        (Array.length (Benchmarks.find n).phases > 1))
    Benchmarks.phased

let test_instruction_counting () =
  let gen, uops = collect "gamess" 1000 in
  Alcotest.(check int) "instructions" 1000 (Workload_gen.instructions_emitted gen);
  let begins =
    List.length (List.filter (fun (u : Isa.uop) -> u.begins_instruction) uops)
  in
  Alcotest.(check int) "begin flags count instructions" 1000 begins;
  Alcotest.(check int) "uop count matches" (Workload_gen.uops_emitted gen)
    (List.length uops)

let test_fast_forward_matches_sequential () =
  (* A fresh generator fast-forwarded to instruction k continues with
     exactly the stream a sequential walk emits from k — the property the
     sharded profiler's region workers rely on. *)
  let k = 1234 and n = 2000 in
  let seq = Workload_gen.create (Benchmarks.find "mcf") ~seed:7 in
  Workload_gen.skip seq ~n_instructions:k;
  let ff = Workload_gen.create (Benchmarks.find "mcf") ~seed:7 in
  Workload_gen.fast_forward ff ~to_instruction:k;
  Alcotest.(check int) "position" k (Workload_gen.instructions_emitted ff);
  Alcotest.(check int) "uop position" (Workload_gen.uops_emitted seq)
    (Workload_gen.uops_emitted ff);
  let tail g =
    let uops = ref [] in
    Workload_gen.iter_uops g ~n_instructions:n ~f:(fun u -> uops := u :: !uops);
    List.rev !uops
  in
  Alcotest.(check bool) "identical continuation" true (tail seq = tail ff)

let test_fast_forward_rejects_rewind () =
  let gen = Workload_gen.create (Benchmarks.find "mcf") ~seed:7 in
  Workload_gen.skip gen ~n_instructions:100;
  Alcotest.check_raises "rewind"
    (Invalid_argument "Workload_gen.fast_forward: cannot rewind the stream")
    (fun () -> Workload_gen.fast_forward gen ~to_instruction:50)

let test_uop_ratio_range () =
  List.iter
    (fun (name, spec) ->
      let gen = Workload_gen.create spec ~seed:3 in
      Workload_gen.skip gen ~n_instructions:20_000;
      let ratio =
        float_of_int (Workload_gen.uops_emitted gen)
        /. float_of_int (Workload_gen.instructions_emitted gen)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s ratio %.2f in [1, 1.5]" name ratio)
        true
        (ratio >= 1.0 && ratio <= 1.5))
    Benchmarks.all

let test_gems_has_highest_uop_ratio () =
  (* Fig 3.1: GemsFDTD ~1.38, lbm lowest. *)
  let ratio name =
    let gen = Workload_gen.create (Benchmarks.find name) ~seed:3 in
    Workload_gen.skip gen ~n_instructions:20_000;
    float_of_int (Workload_gen.uops_emitted gen)
    /. float_of_int (Workload_gen.instructions_emitted gen)
  in
  Alcotest.(check bool) "GemsFDTD > lbm" true (ratio "GemsFDTD" > ratio "lbm" +. 0.2)

let test_dep_distances_positive_and_bounded () =
  let gen = Workload_gen.create (Benchmarks.find "mcf") ~seed:1 in
  let count = ref 0 in
  Workload_gen.iter_uops gen ~n_instructions:5000 ~f:(fun (u : Isa.uop) ->
      incr count;
      Alcotest.(check bool) "dep1 sane" true (u.dep1 >= 0);
      Alcotest.(check bool) "dep2 sane" true (u.dep2 >= 0))

let test_deps_never_predate_stream () =
  let gen = Workload_gen.create (Benchmarks.find "bwaves") ~seed:9 in
  let idx = ref 0 in
  Workload_gen.iter_uops gen ~n_instructions:3000 ~f:(fun (u : Isa.uop) ->
      if u.dep1 > 0 then
        Alcotest.(check bool) "dep1 within stream" true (u.dep1 <= !idx);
      if u.dep2 > 0 then
        Alcotest.(check bool) "dep2 within stream" true (u.dep2 <= !idx);
      incr idx)

let test_strided_load_pattern () =
  (* A single-group strided spec produces constant-stride addresses per
     static load. *)
  let spec =
    {
      wname = "stride-test";
      phase_length = 1_000_000;
      phases =
        [|
          {
            default_phase with
            templates = [| (0.5, T_load); (0.5, T_alu) |];
            load_groups =
              [| { lg_weight = 1.0; lg_pattern = Fixed_strides [ 16 ];
                   lg_footprint_bytes = 1 lsl 22 } |];
            body_size = 16;
            n_bodies = 1;
          };
        |];
    }
  in
  let gen = Workload_gen.create spec ~seed:4 in
  let per_static : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  Workload_gen.iter_uops gen ~n_instructions:600 ~f:(fun (u : Isa.uop) ->
      if u.cls = Isa.Load then
        Hashtbl.replace per_static u.static_id
          (u.addr
          :: Option.value (Hashtbl.find_opt per_static u.static_id) ~default:[]));
  Alcotest.(check bool) "several static loads" true (Hashtbl.length per_static >= 2);
  Hashtbl.iter
    (fun _ addrs ->
      let addrs = List.rev addrs in
      let rec strides = function
        | a :: (b :: _ as rest) -> (b - a) :: strides rest
        | _ -> []
      in
      List.iter
        (fun s -> Alcotest.(check int) "stride 16" 16 s)
        (strides addrs))
    per_static

let test_unique_loads_always_fresh () =
  let spec =
    {
      wname = "unique-test";
      phase_length = 1_000_000;
      phases =
        [|
          {
            default_phase with
            templates = [| (0.5, T_load); (0.5, T_alu) |];
            load_groups =
              [| { lg_weight = 1.0; lg_pattern = Unique; lg_footprint_bytes = 0 } |];
          };
        |];
    }
  in
  let gen = Workload_gen.create spec ~seed:4 in
  let lines = Hashtbl.create 64 in
  let dup = ref 0 in
  Workload_gen.iter_uops gen ~n_instructions:2000 ~f:(fun (u : Isa.uop) ->
      if u.cls = Isa.Load then begin
        let line = u.addr asr 6 in
        if Hashtbl.mem lines line then incr dup;
        Hashtbl.replace lines line ()
      end);
  Alcotest.(check int) "no repeated lines" 0 !dup

let test_loop_branch_outcomes () =
  let spec =
    {
      wname = "loop-test";
      phase_length = 1_000_000;
      phases =
        [|
          {
            default_phase with
            templates = [| (0.5, T_branch); (0.5, T_alu) |];
            branch_groups = [| { bg_weight = 1.0; bg_kind = Loop_every 4 } |];
            body_size = 8;
          };
        |];
    }
  in
  let gen = Workload_gen.create spec ~seed:4 in
  let per_static : (int, bool list) Hashtbl.t = Hashtbl.create 8 in
  Workload_gen.iter_uops gen ~n_instructions:400 ~f:(fun (u : Isa.uop) ->
      if u.cls = Isa.Branch then
        Hashtbl.replace per_static u.static_id
          (u.taken
          :: Option.value (Hashtbl.find_opt per_static u.static_id) ~default:[]));
  Hashtbl.iter
    (fun _ outcomes ->
      let outcomes = Array.of_list (List.rev outcomes) in
      Array.iteri
        (fun i taken ->
          Alcotest.(check bool) "loop pattern" (i mod 4 <> 3) taken)
        outcomes)
    per_static

let test_validation_rejects_bad_specs () =
  let bad name phases = Workload_spec.validate { wname = name; phase_length = 10; phases } in
  (match bad "no-phases" [||] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted empty phases");
  (match bad "bad-dep" [| { default_phase with dep_mean = 0.5 } |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted dep_mean < 1");
  (match bad "bad-loop" [| { default_phase with
                              branch_groups = [| { bg_weight = 1.0; bg_kind = Loop_every 1 } |] } |]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted Loop_every 1");
  match Workload_spec.validate (Benchmarks.find "gcc") with
  | Ok () -> ()
  | Error m -> Alcotest.failf "gcc spec invalid: %s" m

let test_create_rejects_invalid () =
  Alcotest.check_raises "invalid spec"
    (Invalid_argument "Workload_gen.create: no phases") (fun () ->
      ignore
        (Workload_gen.create { wname = "x"; phase_length = 1; phases = [||] } ~seed:1))

let test_phase_switching_changes_mix () =
  (* gcc's two phases have different load fractions; check the stream mix
     changes across the phase boundary. *)
  let spec = Benchmarks.find "gcc" in
  let gen = Workload_gen.create spec ~seed:1 in
  let load_frac n =
    let loads = ref 0 and total = ref 0 in
    Workload_gen.iter_uops gen ~n_instructions:n ~f:(fun (u : Isa.uop) ->
        incr total;
        if u.cls = Isa.Load then incr loads);
    float_of_int !loads /. float_of_int !total
  in
  let f1 = load_frac 100_000 in
  Workload_gen.skip gen ~n_instructions:310_000;
  (* now inside phase 2 *)
  let f2 = load_frac 100_000 in
  Alcotest.(check bool) "mix shifts across phases" true (Float.abs (f1 -. f2) > 0.005)

let test_skip_equals_consumed_iteration () =
  let g1 = Workload_gen.create (Benchmarks.find "milc") ~seed:8 in
  let g2 = Workload_gen.create (Benchmarks.find "milc") ~seed:8 in
  Workload_gen.skip g1 ~n_instructions:777;
  Workload_gen.iter_uops g2 ~n_instructions:777 ~f:(fun _ -> ());
  let next g = Workload_gen.next_instruction g in
  Alcotest.(check bool) "same continuation" true (next g1 = next g2)

let prop_template_uop_counts =
  QCheck.Test.make ~name:"1-2 uops, first begins" ~count:40
    QCheck.(int_range 0 1000)
    (fun seed ->
      let gen = Workload_gen.create (Benchmarks.find "GemsFDTD") ~seed in
      let ok = ref true in
      for _ = 1 to 200 do
        let uops = Workload_gen.next_instruction gen in
        let n = List.length uops in
        if n < 1 || n > 2 then ok := false;
        (match uops with
        | first :: rest ->
          if not first.Isa.begins_instruction then ok := false;
          if List.exists (fun (u : Isa.uop) -> u.begins_instruction) rest then
            ok := false
        | [] -> ok := false)
      done;
      !ok)

(* ---- Workload text format ---- *)

let test_parser_roundtrip_all_benchmarks () =
  List.iter
    (fun (name, spec) ->
      match Workload_parser.parse (Workload_parser.to_text spec) with
      | Error ft -> Alcotest.failf "%s failed to round-trip: %s" name (Fault.to_string ft)
      | Ok restored ->
        Alcotest.(check string) "name preserved" spec.Workload_spec.wname
          restored.wname;
        Alcotest.(check int) "phase count" (Array.length spec.phases)
          (Array.length restored.phases);
        (* The restored spec must generate the *identical* stream. *)
        let ga = Workload_gen.create spec ~seed:5 in
        let gb = Workload_gen.create restored ~seed:5 in
        let stream g =
          let acc = ref [] in
          Workload_gen.iter_uops g ~n_instructions:2_000 ~f:(fun u -> acc := u :: !acc);
          !acc
        in
        Alcotest.(check bool) (name ^ " identical stream") true
          (stream ga = stream gb))
    Benchmarks.all

let test_parser_example_from_docs () =
  let text = {|
name mybench
phase_length 100000

phase main
  mix alu=0.30 load=0.22 store=0.08 branch=0.10 move=0.10
  dep_prob 0.6
  dep_mean 5.0
  body 256 bodies 2 burst 10000
  load stride 8,64 64K 0.6   # two-strided array walk
  load random 256K 0.3
  load unique 0.1
  store_footprint 32K
  branch loop 16 0.5
  branch pattern TTFT 0.3
  branch biased 0.7 0.2
|}
  in
  match Workload_parser.parse text with
  | Error ft -> Alcotest.failf "docs example rejected: %s" (Fault.to_string ft)
  | Ok spec ->
    Alcotest.(check string) "name" "mybench" spec.wname;
    Alcotest.(check int) "phase_length" 100_000 spec.phase_length;
    let p = spec.phases.(0) in
    Alcotest.(check int) "body" 256 p.body_size;
    Alcotest.(check int) "three load groups" 3 (Array.length p.load_groups);
    Alcotest.(check int) "three branch groups" 3 (Array.length p.branch_groups);
    (match p.load_groups.(0).lg_pattern with
    | Workload_spec.Fixed_strides [ 8; 64 ] -> ()
    | _ -> Alcotest.fail "strides not parsed");
    Alcotest.(check int) "footprint 64K" (64 * 1024)
      p.load_groups.(0).lg_footprint_bytes;
    (* a parsed spec must actually run *)
    let g = Workload_gen.create spec ~seed:1 in
    Workload_gen.skip g ~n_instructions:1_000;
    Alcotest.(check int) "generates" 1_000 (Workload_gen.instructions_emitted g)

let test_parser_errors () =
  let expect_error text fragment =
    match Workload_parser.parse text with
    | Ok _ -> Alcotest.failf "accepted bad input (wanted %s)" fragment
    | Error ft ->
      let msg = Fault.to_string ft in
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg fragment)
        true (contains msg fragment)
  in
  expect_error "phase main
  mix alu=1.0
  load unique 1.0
  branch loop 4 1.0
"
    "missing name";
  expect_error "name x
bogus 12
" "unknown directive";
  expect_error "name x
mix alu=1.0
" "outside a phase";
  expect_error "name x
phase p
  mix zorp=1.0
  load unique 1.0
  branch loop 4 1.0
"
    "unknown template";
  expect_error "name x
phase p
  mix alu=1.0
  branch loop 4 1.0
" "no load";
  expect_error
    "name x
phase p
  mix alu=1.0
  load unique 1.0
  branch pattern TXF 1.0
"
    "pattern character";
  List.iter
    (fun burst ->
      expect_error
        (Printf.sprintf
           "name x
phase p
  mix alu=1.0
  body 16 bodies 2 burst %d
  load unique 1.0
  branch loop 4 1.0
"
           burst)
        "body_burst must be positive")
    [ 0; -3 ]

let test_parser_sizes () =
  let text =
    "name s
phase p
  mix alu=1.0 load=0.2
  load random 2M 1.0
       store_footprint 512
  branch loop 4 1.0
"
  in
  match Workload_parser.parse text with
  | Error ft -> Alcotest.failf "rejected: %s" (Fault.to_string ft)
  | Ok spec ->
    Alcotest.(check int) "2M" (2 * 1024 * 1024)
      spec.phases.(0).load_groups.(0).lg_footprint_bytes;
    Alcotest.(check int) "bare bytes" 512 spec.phases.(0).store_footprint_bytes

let test_shipped_workload_files () =
  (* Every .workload file in workloads/ must parse, validate, and run. *)
  let dir =
    (* tests run from the build sandbox; look for the source tree *)
    List.find_opt Sys.file_exists
      [ "workloads"; "../workloads"; "../../workloads"; "../../../workloads";
        "../../../../workloads" ]
  in
  match dir with
  | None -> () (* source tree not visible from the sandbox: nothing to check *)
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".workload")
    in
    Alcotest.(check bool) "found shipped files" true (files <> []);
    List.iter
      (fun f ->
        match Workload_parser.load (Filename.concat dir f) with
        | Error ft -> Alcotest.failf "%s: %s" f (Fault.to_string ft)
        | Ok spec ->
          let g = Workload_gen.create spec ~seed:1 in
          Workload_gen.skip g ~n_instructions:500;
          Alcotest.(check int) (f ^ " runs") 500
            (Workload_gen.instructions_emitted g))
      files

(* ---- Packed streams ---- *)

(* Every micro-op of a stream, decoded through a cursor with the same
   accessors the simulator reads. *)
let decode_cursor c =
  let classes = Array.of_list Isa.all_classes in
  let rec go acc =
    if Uop_stream.at_end c then List.rev acc
    else begin
      let w0 = Uop_stream.word0 c and w1 = Uop_stream.word1 c in
      let u =
        {
          Isa.cls = classes.(Uop_word.class_index w0);
          dep1 = Uop_word.dep1 w1;
          dep2 = Uop_word.dep2 w1;
          addr = Uop_stream.word2 c;
          taken = Uop_word.taken w0;
          static_id = Uop_word.static_id w0;
          begins_instruction = Uop_word.begins_instruction w0;
        }
      in
      Uop_stream.advance c;
      go (u :: acc)
    end
  in
  go []

let decode stream = decode_cursor (Uop_stream.cursor stream)

(* A recorded stream of n > Uop_stream.chunk_uops instructions (so at
   least one chunk boundary) decodes to the generator's own micro-ops, in
   order, every field. *)
let prop_stream_decodes_to_generator =
  QCheck.Test.make ~name:"stream decodes to generator uops" ~count:12
    QCheck.(
      triple
        (int_range 0 (List.length Benchmarks.names - 1))
        (int_range 0 1000)
        (int_range (Uop_stream.chunk_uops + 1) 6000))
    (fun (b, seed, n) ->
      let spec = Benchmarks.find (List.nth Benchmarks.names b) in
      let stream = Uop_stream.record spec ~seed ~n_instructions:n in
      let gen = Workload_gen.create spec ~seed in
      let expected = ref [] in
      Workload_gen.iter_uops gen ~n_instructions:n ~f:(fun u ->
          expected := u :: !expected);
      let decoded = decode stream in
      List.length decoded > Uop_stream.chunk_uops
      && Uop_stream.name stream = spec.wname
      && decoded = List.rev !expected)

(* A window from instruction [start] on holds exactly what the record
   decoder yields after [start] instructions, across chunk refills and
   the instructions that straddle them (up to five refills a case, one
   in six or so straddled). *)
let prop_window_decodes_to_generator =
  QCheck.Test.make ~name:"window from any start = generator" ~count:12
    QCheck.(
      quad
        (int_range 0 (List.length Benchmarks.names - 1))
        (int_range 0 1000)
        (int_range (Uop_stream.chunk_uops + 1) 20_000)
        (int_range 0 3000))
    (fun (b, seed, n, start) ->
      let spec = Benchmarks.find (List.nth Benchmarks.names b) in
      let gen = Workload_gen.create spec ~seed in
      Workload_gen.skip gen ~n_instructions:start;
      let expected = ref [] in
      Workload_gen.iter_uops gen ~n_instructions:n ~f:(fun u ->
          expected := u :: !expected);
      decode_cursor (Uop_stream.window ~start spec ~seed ~n_instructions:n)
      = List.rev !expected)

let test_stream_refuses_oversized_fields () =
  let refuses field (u : Isa.uop) =
    match Uop_stream.of_list [ Isa.nop; u ] with
    | _ -> Alcotest.failf "packed an oversized %s" field
    | exception Invalid_argument msg ->
      if not (String.starts_with ~prefix:("Uop_stream: " ^ field ^ " ") msg) then
        Alcotest.failf "error %S does not name %s" msg field
  in
  refuses "dep1" { Isa.nop with dep1 = Uop_word.max_dep };
  refuses "dep2" { Isa.nop with dep2 = Uop_word.max_dep };
  refuses "dep1" { Isa.nop with dep1 = -1 };
  refuses "static_id" { Isa.nop with static_id = Uop_word.max_static_id };
  refuses "static_id" { Isa.nop with static_id = -1 };
  (* The largest values that fit round-trip exactly. *)
  let u =
    {
      Isa.cls = Branch;
      dep1 = Uop_word.max_dep - 1;
      dep2 = Uop_word.max_dep - 1;
      addr = max_int;
      taken = true;
      static_id = Uop_word.max_static_id - 1;
      begins_instruction = false;
    }
  in
  Alcotest.(check bool) "extremes round-trip" true
    (decode (Uop_stream.of_list [ u ]) = [ u ])

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_different_seeds_differ;
          Alcotest.test_case "instruction counting" `Quick test_instruction_counting;
          Alcotest.test_case "dep distances" `Quick test_dep_distances_positive_and_bounded;
          Alcotest.test_case "deps within stream" `Quick test_deps_never_predate_stream;
          Alcotest.test_case "strided pattern" `Quick test_strided_load_pattern;
          Alcotest.test_case "unique pattern" `Quick test_unique_loads_always_fresh;
          Alcotest.test_case "loop branches" `Quick test_loop_branch_outcomes;
          Alcotest.test_case "phase switching" `Quick test_phase_switching_changes_mix;
          Alcotest.test_case "skip = iterate" `Quick test_skip_equals_consumed_iteration;
          Alcotest.test_case "fast-forward = sequential" `Quick
            test_fast_forward_matches_sequential;
          Alcotest.test_case "fast-forward rejects rewind" `Quick
            test_fast_forward_rejects_rewind;
          Alcotest.test_case "create rejects invalid" `Quick test_create_rejects_invalid;
          QCheck_alcotest.to_alcotest prop_template_uop_counts;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "29 valid benchmarks" `Quick test_29_benchmarks;
          Alcotest.test_case "find raises" `Quick test_find_raises;
          Alcotest.test_case "subsets" `Quick test_memory_bound_and_phased_subsets;
          Alcotest.test_case "uop ratio range" `Slow test_uop_ratio_range;
          Alcotest.test_case "GemsFDTD ratio highest" `Quick
            test_gems_has_highest_uop_ratio;
        ] );
      ( "spec",
        [ Alcotest.test_case "validation" `Quick test_validation_rejects_bad_specs ] );
      ( "uop_stream",
        [
          QCheck_alcotest.to_alcotest prop_stream_decodes_to_generator;
          QCheck_alcotest.to_alcotest prop_window_decodes_to_generator;
          Alcotest.test_case "refuses oversized fields" `Quick
            test_stream_refuses_oversized_fields;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round-trips all 29 benchmarks" `Quick
            test_parser_roundtrip_all_benchmarks;
          Alcotest.test_case "docs example" `Quick test_parser_example_from_docs;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "sizes" `Quick test_parser_sizes;
          Alcotest.test_case "shipped workload files" `Quick
            test_shipped_workload_files;
        ] );
    ]
