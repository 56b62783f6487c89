(* Tests for the micro-architecture independent profiler: dependence
   chains (incl. the thesis' Fig 3.3 worked example), stride
   classification, cold statistics, sampling. *)

let uop ?(cls = Isa.Int_alu) ?(dep1 = 0) ?(dep2 = 0) ?(addr = 0) ?(taken = false)
    ?(static_id = 0) ?(begins = true) () =
  { Isa.cls; dep1; dep2; addr; taken; static_id; begins_instruction = begins }

(* Example 3.1 / Fig 3.2-3.3: the vector-sum loop.  Micro-ops:
   a MOV, b MOV, c MOV, d1 LD (dep c), e1 ADD (deps b, d1),
   f1 ADD (dep c), g1 BNE (dep f1), d2 LD (dep f1). *)
let example_3_1 =
  [|
    uop ~cls:Isa.Move ();
    uop ~cls:Isa.Move ();
    uop ~cls:Isa.Move ();
    uop ~cls:Isa.Load ~dep1:1 ();
    uop ~cls:Isa.Int_alu ~dep1:3 ~dep2:1 ();
    uop ~cls:Isa.Int_alu ~dep1:3 ();
    uop ~cls:Isa.Branch ~dep1:1 ();
    uop ~cls:Isa.Load ~dep1:2 ();
  |]

let test_fig_3_3_depths () =
  let depths = Dep_chains.window_depths example_3_1 ~lo:0 ~hi:8 in
  Alcotest.(check (array int)) "Fig 3.3 first window" [| 1; 1; 1; 2; 3; 2; 3; 3 |]
    depths

let test_fig_3_3_chain_stats () =
  let cs = Dep_chains.analyze ~rob_sizes:[| 8 |] example_3_1 in
  Alcotest.(check (float 1e-9)) "AP = 2" 2.0 cs.ap.(0);
  Alcotest.(check (float 1e-9)) "CP = 3" 3.0 cs.cp.(0);
  Alcotest.(check (float 1e-9)) "ABP = 3 (branch g1)" 3.0 cs.abp.(0)

let test_depths_ignore_out_of_window_producers () =
  let uops =
    [| uop (); uop ~dep1:1 (); uop ~dep1:1 (); uop ~dep1:1 () |]
  in
  (* window of 2 starting at index 2: producer of uop 2 is outside *)
  let depths = Dep_chains.window_depths uops ~lo:2 ~hi:4 in
  Alcotest.(check (array int)) "window-relative" [| 1; 2 |] depths

let test_serial_chain_critical_path () =
  let n = 16 in
  let uops = Array.init n (fun i -> uop ~dep1:(if i = 0 then 0 else 1) ()) in
  let cs = Dep_chains.analyze ~rob_sizes:[| n |] uops in
  Alcotest.(check (float 1e-9)) "fully serial CP = n" (float_of_int n) cs.cp.(0);
  let independent = Array.init n (fun _ -> uop ()) in
  let cs = Dep_chains.analyze ~rob_sizes:[| n |] independent in
  Alcotest.(check (float 1e-9)) "independent CP = 1" 1.0 cs.cp.(0)

let test_load_depth_distribution () =
  (* L1 -> alu -> L2 -> L3 (chained through dependences), plus one
     independent load. *)
  let uops =
    [|
      uop ~cls:Isa.Load ();           (* depth 1 *)
      uop ~cls:Isa.Int_alu ~dep1:1 ();
      uop ~cls:Isa.Load ~dep1:1 ();   (* depth 2 via the alu *)
      uop ~cls:Isa.Load ~dep1:1 ();   (* depth 3 *)
      uop ~cls:Isa.Load ();           (* depth 1 *)
    |]
  in
  let h = Dep_chains.load_depth_distribution ~window:16 uops in
  Alcotest.(check int) "depth-1 loads" 2 (Histogram.count h 1);
  Alcotest.(check int) "depth-2 loads" 1 (Histogram.count h 2);
  Alcotest.(check int) "depth-3 loads" 1 (Histogram.count h 3)

let test_chain_interpolation_matches_log () =
  let cs =
    {
      Profile.rob_sizes = [| 16; 64; 256 |];
      ap = [| 2.0; 3.0; 4.0 |];
      abp = [| 2.0; 3.0; 4.0 |];
      cp = [| 4.0; 6.0; 8.0 |];
      abp_windows = [| 1; 1; 1 |];
    }
  in
  Alcotest.(check (float 1e-9)) "exact at profiled size" 3.0
    (Profile.chain_at cs ~which:`Ap 64);
  (* 32 is the log-midpoint of 16 and 64 *)
  Alcotest.(check (float 1e-6)) "log midpoint" 2.5 (Profile.chain_at cs ~which:`Ap 32);
  (* CP interpolation between 64 and 256: log-midpoint at 128 *)
  Alcotest.(check (float 1e-6)) "cp midpoint" 7.0 (Profile.chain_at cs ~which:`Cp 128);
  (* clamping below/above the profiled range extrapolates the end segment *)
  Alcotest.(check bool) "small rob below first" true
    (Profile.chain_at cs ~which:`Ap 8 < 2.0)

(* ---- Stride classification ---- *)

let static_load ?(count = 10) strides =
  let h = Histogram.create () in
  List.iter (fun (s, c) -> Histogram.add h ~count:c s) strides;
  {
    Profile.sl_static_id = 1;
    sl_first_pos = 0;
    sl_count = count;
    sl_spacing = Histogram.create ();
    sl_strides = h;
    sl_reuse = Histogram.create ();
    sl_cold = 0;
    sl_stack = lazy (Statstack.of_reuse_histogram (Histogram.create ()));
  }

let test_stride_classification () =
  (match Stride_class.classify (static_load ~count:1 []) with
  | Stride_class.Unique -> ()
  | _ -> Alcotest.fail "single occurrence should be Unique");
  (match Stride_class.classify (static_load [ (8, 100) ]) with
  | Stride_class.Strided [ 8 ] -> ()
  | _ -> Alcotest.fail "pure stride should be 1-strided");
  (* 50/50 two strides: needs the 70% two-stride cutoff *)
  (match Stride_class.classify (static_load [ (4, 50); (8, 50) ]) with
  | Stride_class.Strided l when List.length l = 2 -> ()
  | _ -> Alcotest.fail "two equal strides should be 2-strided");
  (* many rare strides: random *)
  let spread = List.init 20 (fun i -> (i * 8, 5)) in
  match Stride_class.classify (static_load spread) with
  | Stride_class.Random_strided -> ()
  | _ -> Alcotest.fail "spread strides should be random"

let test_stride_cutoffs_prefer_simplest () =
  (* 65% one stride + noise: classified 1-strided even though 2 would
     also clear its cutoff. *)
  match Stride_class.classify (static_load [ (8, 65); (16, 20); (24, 15) ]) with
  | Stride_class.Strided [ 8 ] -> ()
  | Stride_class.Strided l ->
    Alcotest.failf "expected single stride, got %d" (List.length l)
  | _ -> Alcotest.fail "expected strided"

let test_fig_labels () =
  Alcotest.(check string) "unique" "UNIQUE"
    (Stride_class.fig_label (static_load ~count:1 []));
  Alcotest.(check string) "pure stride" "STRIDE"
    (Stride_class.fig_label (static_load [ (8, 100) ]));
  Alcotest.(check string) "filtered" "FILTER-1"
    (Stride_class.fig_label (static_load [ (8, 80); (64, 12); (-8, 8) ]));
  Alcotest.(check string) "random" "RANDOM"
    (Stride_class.fig_label (static_load (List.init 20 (fun i -> (i * 8, 5)))))

let test_cutoffs_are_papers () =
  Alcotest.(check (array (float 1e-9))) "60/70/80/90" [| 0.6; 0.7; 0.8; 0.9 |]
    Stride_class.cutoffs

(* ---- End-to-end profiling ---- *)

let profile_of name n =
  Profiler.profile (Benchmarks.find name) ~seed:1 ~n_instructions:n

let test_profile_structure () =
  let p = profile_of "astar" 50_000 in
  Alcotest.(check int) "micro-trace count" 5 (Array.length p.p_microtraces);
  Array.iter
    (fun (mt : Profile.microtrace) ->
      Alcotest.(check int) "instructions per trace" 1000 mt.mt_instructions;
      Alcotest.(check bool) "uops >= instructions" true
        (mt.mt_uops >= mt.mt_instructions);
      Alcotest.(check int) "mix total = uops" mt.mt_uops
        (Isa.Class_counts.total mt.mt_mix))
    p.p_microtraces;
  Alcotest.(check bool) "entropy in [0,1]" true
    (p.p_entropy >= 0.0 && p.p_entropy <= 1.0);
  Alcotest.(check bool) "uops/instr > 1" true (p.p_uops_per_instruction > 1.0)

let test_profile_chain_invariants () =
  let p = profile_of "mcf" 50_000 in
  Array.iter
    (fun (mt : Profile.microtrace) ->
      let cs = mt.Profile.mt_chains in
      Array.iteri
        (fun i rob ->
          Alcotest.(check bool) "AP <= CP" true (cs.ap.(i) <= cs.cp.(i) +. 1e-9);
          Alcotest.(check bool) "CP <= rob" true (cs.cp.(i) <= float_of_int rob);
          Alcotest.(check bool) "AP >= 1" true (cs.ap.(i) >= 1.0))
        cs.rob_sizes)
    p.p_microtraces

let test_profile_determinism () =
  let p1 = profile_of "gcc" 30_000 and p2 = profile_of "gcc" 30_000 in
  Alcotest.(check (float 1e-12)) "entropy equal" p1.p_entropy p2.p_entropy;
  Alcotest.(check int) "same uop totals"
    (Isa.Class_counts.total (Profile.total_mix p1))
    (Isa.Class_counts.total (Profile.total_mix p2))

let test_sampled_mix_close_to_full () =
  (* Fig 5.2: sampling error per micro-op category stays small. *)
  let name = "bzip2" in
  let n = 100_000 in
  let p = profile_of name n in
  let sampled = Profile.total_mix p in
  let full = Profiler.full_instruction_mix (Benchmarks.find name) ~seed:1
      ~n_instructions:n in
  let st = float_of_int (Isa.Class_counts.total sampled) in
  let ft = float_of_int (Isa.Class_counts.total full) in
  List.iter
    (fun cls ->
      let s = float_of_int (Isa.Class_counts.get sampled cls) /. st in
      let f = float_of_int (Isa.Class_counts.get full cls) /. ft in
      Alcotest.(check bool)
        (Isa.class_to_string cls ^ " within 2%")
        true
        (Float.abs (s -. f) < 0.02))
    Isa.all_classes

let test_sampled_chains_close_to_full () =
  (* Fig 5.5: dependence chains from micro-traces track the unsampled
     profile. *)
  let spec = Benchmarks.find "hmmer" in
  let full = Profiler.full_chains ~rob_sizes:[| 128 |] spec ~seed:1
      ~n_instructions:30_000 in
  let p =
    Profiler.profile spec ~seed:1 ~n_instructions:30_000
  in
  let sampled_cp = Profile.mean_chain p ~which:`Cp ~rob:128 in
  let rel = Float.abs (sampled_cp -. full.cp.(0)) /. full.cp.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "CP sampling error %.1f%% < 15%%" (100. *. rel))
    true (rel < 0.15)

let test_inst_cold_rate_is_exact () =
  (* Finite code: cold instruction lines = static footprint, counted once
     regardless of sampling. *)
  let p = profile_of "gamess" 100_000 in
  Alcotest.(check bool) "tiny exact inst cold rate" true
    (p.p_inst_cold_fraction < 0.005)

let test_cold_correction_bounds () =
  List.iter
    (fun name ->
      let p = profile_of name 50_000 in
      let c = Profile.cold_correction p in
      Alcotest.(check bool) (name ^ " correction in (0, 2]") true (c > 0.0 && c <= 2.0))
    [ "gamess"; "lbm"; "mcf" ]

let test_mem_sample_accounting () =
  let p = profile_of "milc" 50_000 in
  Array.iter
    (fun (mt : Profile.microtrace) ->
      let loads = Isa.Class_counts.get mt.mt_mix Isa.Load in
      let stores = Isa.Class_counts.get mt.mt_mix Isa.Store in
      Alcotest.(check int) "samples = loads + stores" (loads + stores)
        mt.mt_mem_samples;
      let recorded =
        Histogram.total mt.mt_reuse_load + Histogram.total mt.mt_reuse_store
        + mt.mt_mem_cold
      in
      Alcotest.(check int) "reuse + cold = samples" mt.mt_mem_samples recorded)
    p.p_microtraces

let test_static_loads_recorded () =
  let p = profile_of "libquantum" 20_000 in
  let mt = p.p_microtraces.(1) in
  Alcotest.(check bool) "has static loads" true (mt.mt_static_loads <> []);
  List.iter
    (fun (sl : Profile.static_load) ->
      Alcotest.(check bool) "count >= 1" true (sl.sl_count >= 1);
      Alcotest.(check int) "strides = count - 1" (sl.sl_count - 1)
        (Histogram.total sl.sl_strides);
      Alcotest.(check bool) "first pos within trace" true
        (sl.sl_first_pos >= 0 && sl.sl_first_pos < mt.mt_uops))
    mt.mt_static_loads

let test_libquantum_is_stride_dominated () =
  (* Fig 4.7: libquantum's loads are overwhelmingly single-strided. *)
  let p = profile_of "libquantum" 50_000 in
  let strided = ref 0 and other = ref 0 in
  Array.iter
    (fun (mt : Profile.microtrace) ->
      List.iter
        (fun sl ->
          match Stride_class.classify sl with
          | Stride_class.Strided _ -> strided := !strided + sl.Profile.sl_count
          | _ -> other := !other + sl.Profile.sl_count)
        mt.mt_static_loads)
    p.p_microtraces;
  Alcotest.(check bool) "mostly strided" true
    (float_of_int !strided > 3.0 *. float_of_int !other)

let test_cold_stats_consistency () =
  let p = profile_of "omnetpp" 30_000 in
  Array.iter
    (fun (mt : Profile.microtrace) ->
      let c = mt.Profile.mt_cold in
      Array.iteri
        (fun i _ ->
          Alcotest.(check bool) "hit windows <= windows" true
            (c.cold_windows_hit.(i) <= c.cold_windows.(i));
          Alcotest.(check bool) "total >= hit windows" true
            (c.cold_total.(i) >= c.cold_windows_hit.(i)))
        c.cold_rob_sizes)
    p.p_microtraces

let test_chain_at_positive () =
  (* Every ROB size the model can ask for, including those below the
     smallest profiled one, where the log fit extrapolates downwards
     (CP at ROB 2 would be 3.0 + 1.1 * log2(2/16) = -0.3 unclamped). *)
  let cs =
    {
      Profile.rob_sizes = [| 16; 32; 64; 128; 256 |];
      ap = [| 1.5; 1.8; 2.2; 2.5; 2.9 |];
      abp = [| 1.2; 1.5; 1.9; 2.2; 2.4 |];
      cp = [| 3.0; 4.1; 5.5; 7.2; 9.0 |];
      abp_windows = [| 1; 1; 1; 1; 1 |];
    }
  in
  for rob = 1 to 512 do
    List.iter
      (fun which ->
        let v = Profile.chain_at cs ~which rob in
        if not (v >= 1.0) then Alcotest.failf "chain length %g < 1 at rob %d" v rob)
      [ `Ap; `Abp; `Cp ]
  done

(* ---- Profile serialization ---- *)

let profiles_equal (a : Profile.t) (b : Profile.t) =
  (* Structural comparison that ignores lazies and histogram ids. *)
  let hist_eq x y = Histogram.to_sorted_list x = Histogram.to_sorted_list y in
  let static_eq (x : Profile.static_load) (y : Profile.static_load) =
    x.sl_static_id = y.sl_static_id && x.sl_first_pos = y.sl_first_pos
    && x.sl_count = y.sl_count && x.sl_cold = y.sl_cold
    && hist_eq x.sl_spacing y.sl_spacing
    && hist_eq x.sl_strides y.sl_strides
    && hist_eq x.sl_reuse y.sl_reuse
  in
  let sort_statics l =
    List.sort (fun (x : Profile.static_load) y -> compare x.sl_static_id y.sl_static_id) l
  in
  let mt_eq (x : Profile.microtrace) (y : Profile.microtrace) =
    x.mt_index = y.mt_index && x.mt_start_instruction = y.mt_start_instruction
    && x.mt_instructions = y.mt_instructions && x.mt_uops = y.mt_uops
    && x.mt_branches = y.mt_branches && x.mt_mem_samples = y.mt_mem_samples
    && x.mt_mem_cold = y.mt_mem_cold && x.mt_store_cold = y.mt_store_cold
    && Isa.Class_counts.to_list x.mt_mix = Isa.Class_counts.to_list y.mt_mix
    && x.mt_chains.rob_sizes = y.mt_chains.rob_sizes
    && x.mt_chains.ap = y.mt_chains.ap && x.mt_chains.abp = y.mt_chains.abp
    && x.mt_chains.cp = y.mt_chains.cp
    && x.mt_chains.abp_windows = y.mt_chains.abp_windows
    && hist_eq x.mt_load_depth y.mt_load_depth
    && hist_eq x.mt_reuse_load y.mt_reuse_load
    && hist_eq x.mt_reuse_store y.mt_reuse_store
    && x.mt_cold = y.mt_cold
    && List.length x.mt_static_loads = List.length y.mt_static_loads
    && List.for_all2 static_eq (sort_statics x.mt_static_loads)
         (sort_statics y.mt_static_loads)
  in
  a.p_workload = b.p_workload
  && a.p_window_instructions = b.p_window_instructions
  && a.p_microtrace_instructions = b.p_microtrace_instructions
  && a.p_total_instructions = b.p_total_instructions
  && a.p_line_bytes = b.p_line_bytes
  && a.p_entropy = b.p_entropy
  && a.p_branch_fraction = b.p_branch_fraction
  && a.p_uops_per_instruction = b.p_uops_per_instruction
  && a.p_inst_cold_fraction = b.p_inst_cold_fraction
  && a.p_inst_samples = b.p_inst_samples
  && a.p_data_accesses = b.p_data_accesses
  && a.p_data_cold = b.p_data_cold
  && hist_eq a.p_reuse_inst b.p_reuse_inst
  && Array.length a.p_microtraces = Array.length b.p_microtraces
  && Array.for_all2 mt_eq a.p_microtraces b.p_microtraces

let expect_bad_input what = function
  | Ok _ -> Alcotest.failf "accepted %s" what
  | Error (Fault.Bad_input _) -> ()
  | Error ft ->
    Alcotest.failf "%s rejected with the wrong fault kind: %s" what
      (Fault.to_string ft)

let contains msg sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
  go 0

(* The fault message of a rejected input, failing the test if it was
   accepted. *)
let rejection what = function
  | Ok _ -> Alcotest.failf "accepted %s" what
  | Error ft -> Fault.to_string ft

let test_profile_io_rejects_garbage () =
  expect_bad_input "garbage" (Profile_io.of_string "not a profile");
  let text = "mipp-profile 2\nworkload gcc\n" in
  expect_bad_input "text profile" (Profile_io.of_string text);
  Alcotest.(check bool) "text profile refusal names the format" true
    (contains (rejection "text profile" (Profile_io.of_string text)) "text profiles")

(* The serialized profile with its version field replaced and the CRC
   trailer recomputed, so only the version check can reject it. *)
let with_version s version =
  let b = Bytes.of_string (String.sub s 0 (String.length s - 4)) in
  (* Versions 0..63 are one zigzag varint byte, just after the magic. *)
  Bytes.set b 4 (Char.chr (version lsl 1));
  let body = Bytes.to_string b in
  let tail = Bytes.create 4 in
  Bytes.set_int32_le tail 0 (Int32.of_int (Crc32.string body));
  body ^ Bytes.to_string tail

let test_profile_io_version_errors () =
  let s = Profile_io.to_binary_string (profile_of "gcc" 20_000) in
  Alcotest.(check bool) "current version loads" true
    (Result.is_ok (Profile_io.of_string (with_version s Profile_io.binary_version)));
  let newer = rejection "version 4" (Profile_io.of_string (with_version s 4)) in
  Alcotest.(check bool) "version 4 is newer" true (contains newer "newer");
  let older = rejection "version 2" (Profile_io.of_string (with_version s 2)) in
  Alcotest.(check bool) "version 2 is not newer" false (contains older "newer");
  Alcotest.(check bool) "version 2 is unsupported" true
    (contains older "unsupported binary format version 2")

let test_profile_io_validates_semantics () =
  (* A structurally well-formed file with impossible numbers must be
     rejected by the validation pass, not accepted silently.  Set the
     whole-run branch fraction to 2.0 and serialize (with a fresh
     checksum) so only semantic validation can catch it. *)
  let p = profile_of "gcc" 20_000 in
  let doctored = { p with p_branch_fraction = 2.0 } in
  expect_bad_input "impossible branch fraction"
    (Profile_io.of_string (Profile_io.to_binary_string doctored))

(* A negative reuse distance makes StatStack raise, so the load path must
   refuse it as bad input.  The doctored micro-trace keeps its reuse mass
   consistent with its sample count, and the encoding gets a fresh
   checksum, so only the reuse-distance check can catch it. *)
let test_profile_io_rejects_negative_reuse () =
  let p = profile_of "gcc" 20_000 in
  let doctor_mt f =
    let mts = Array.copy p.p_microtraces in
    mts.(0) <- f mts.(0);
    { p with p_microtraces = mts }
  in
  let with_negative h =
    let h = Histogram.copy h in
    Histogram.add h (-5);
    h
  in
  let rejects what doctored =
    let result = Profile_io.of_string (Profile_io.to_binary_string doctored) in
    expect_bad_input what result;
    let msg = rejection what result in
    Alcotest.(check bool) (what ^ " names micro-trace 0") true
      (contains msg "microtrace 0");
    msg
  in
  ignore
    (rejects "negative load reuse"
       (doctor_mt (fun mt ->
            {
              mt with
              mt_reuse_load = with_negative mt.mt_reuse_load;
              mt_mem_samples = mt.mt_mem_samples + 1;
            })));
  let mt0 = p.p_microtraces.(0) in
  match mt0.mt_static_loads with
  | [] -> Alcotest.fail "gcc micro-trace 0 has no static loads"
  | sl :: rest ->
    let msg =
      rejects "negative static-load reuse"
        (doctor_mt (fun mt ->
             {
               mt with
               mt_static_loads =
                 { sl with sl_reuse = with_negative sl.sl_reuse } :: rest;
             }))
    in
    Alcotest.(check bool) "names the static load" true
      (contains msg (Printf.sprintf "static load %d" sl.sl_static_id))

(* A decoded profile is held by every sweep, validation and serve cache
   entry, so its in-memory form must stay proportional to its encoding:
   nearly all of its thousands of histograms hold one or two keys. *)
let test_decoded_footprint_bounded () =
  List.iter
    (fun name ->
      let s = Profile_io.to_binary_string (profile_of name 20_000) in
      let decoded = Fault.or_raise (Profile_io.of_string s) in
      let bytes = Obj.reachable_words (Obj.repr decoded) * (Sys.word_size / 8) in
      if bytes > 100 * String.length s then
        Alcotest.failf "%s: decoded profile takes %d bytes, %dx its %d-byte encoding"
          name bytes (bytes / String.length s) (String.length s))
    Benchmarks.names

let test_binary_roundtrip () =
  let p = profile_of "milc" 30_000 in
  let restored = Fault.or_raise (Profile_io.of_string (Profile_io.to_binary_string p)) in
  Alcotest.(check bool) "binary round-trip preserves everything" true
    (profiles_equal p restored)

let test_binary_file_roundtrip () =
  let p = profile_of "hmmer" 20_000 in
  let path = Filename.temp_file "mipp" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile_io.save path p;
      let restored = Fault.or_raise (Profile_io.load path) in
      Alcotest.(check bool) "binary file round-trip" true
        (profiles_equal p restored))

let test_binary_same_predictions () =
  let p = profile_of "astar" 30_000 in
  let restored =
    Fault.or_raise (Profile_io.of_string (Profile_io.to_binary_string p))
  in
  let a = Interval_model.predict Uarch.reference p in
  let b = Interval_model.predict Uarch.reference restored in
  Alcotest.(check (float 1e-9)) "identical prediction" a.pr_cycles b.pr_cycles

let test_binary_rejects_bit_flip () =
  (* The CRC trailer covers every payload byte, so any flip must be
     caught — there is no line structure to hide behind. *)
  let p = profile_of "bzip2" 20_000 in
  let s = Bytes.of_string (Profile_io.to_binary_string p) in
  List.iter
    (fun i ->
      let orig = Bytes.get s i in
      Bytes.set s i (Char.chr (Char.code orig lxor 0x01));
      expect_bad_input
        (Printf.sprintf "binary byte flip at %d" i)
        (Profile_io.of_string (Bytes.to_string s));
      Bytes.set s i orig)
    [ 8; Bytes.length s / 2; Bytes.length s - 2 ]

let test_binary_rejects_truncation () =
  let p = profile_of "povray" 20_000 in
  let s = Profile_io.to_binary_string p in
  List.iter
    (fun n ->
      expect_bad_input
        (Printf.sprintf "binary truncated to %d bytes" n)
        (Profile_io.of_string (String.sub s 0 n)))
    [ 0; 3; 16; String.length s / 2; String.length s - 1 ]

(* Corruption fuzzer: no corruption — truncation anywhere, any byte
   overwritten, a span of bytes cut out — may crash, hang, or be silently
   accepted as a different profile.  The only acceptable outcomes are a
   structured [Error _] or (for corruptions the format cannot see, e.g.
   a no-op overwrite) a successful parse. *)
let prop_binary_corruption_total =
  let base = lazy (Profile_io.to_binary_string (profile_of "gcc" 20_000)) in
  QCheck.Test.make ~name:"corrupt binary profiles never escape the result type"
    ~count:120
    QCheck.(quad (int_range 0 2) (int_bound 100_000) (int_bound 255) (int_range 1 512))
    (fun (mode, pos, byte, span) ->
      let s = Lazy.force base in
      let n = String.length s in
      let at = pos mod n in
      let corrupted =
        match mode with
        | 0 -> String.sub s 0 at (* truncate *)
        | 1 ->
          (* overwrite one byte *)
          let b = Bytes.of_string s in
          Bytes.set b at (Char.chr byte);
          Bytes.to_string b
        | _ ->
          (* cut a span of bytes out *)
          let span = min span (n - at) in
          String.sub s 0 at ^ String.sub s (at + span) (n - at - span)
      in
      match Profile_io.of_string corrupted with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e))

(* ---- Sharded profiling ---- *)

let test_shard_jobs1_bit_identical () =
  (* The sharded pipeline at jobs:1 must be the legacy sequential
     profiler, down to the serialized byte. *)
  let spec = Benchmarks.find "gcc" in
  let legacy = Profiler.profile_legacy spec ~seed:1 ~n_instructions:50_000 in
  let sharded = Profiler.profile spec ~jobs:1 ~seed:1 ~n_instructions:50_000 in
  Alcotest.(check bool) "bit-identical serialization" true
    (Profile_io.to_binary_string sharded = Profile_io.to_binary_string legacy)

let prop_shard_unbounded_warmup_exact =
  (* With an unbounded warm-up every shard replays the full stream prefix
     before recording, so the merged histograms, entropy and counters must
     equal the single-stream profile exactly — for any shard count and any
     stream length (window-aligned or not). *)
  QCheck.Test.make ~name:"merged shards = single stream when warm-up unbounded"
    ~count:8
    QCheck.(pair (int_range 2 5) (int_range 15_000 45_000))
    (fun (k, n) ->
      let spec = Benchmarks.find "mcf" in
      let legacy = Profiler.profile_legacy spec ~seed:3 ~n_instructions:n in
      let sharded =
        Profiler.profile spec ~jobs:k ~warmup:max_int ~seed:3 ~n_instructions:n
      in
      Profile_io.to_binary_string sharded = Profile_io.to_binary_string legacy)

let test_shard_merge_renumbering () =
  (* Bounded warm-up: classifications at shard boundaries may shift, but
     the merged profile's structure must be intact — microtrace indices
     renumbered 0..n-1 in stream order, sampling grid unmoved, totals
     preserved. *)
  let n = 50_000 in
  let spec = Benchmarks.find "astar" in
  let p = Profiler.profile spec ~jobs:3 ~seed:1 ~n_instructions:n in
  Alcotest.(check int) "microtrace count" 5 (Array.length p.p_microtraces);
  Alcotest.(check int) "total instructions" n p.p_total_instructions;
  Array.iteri
    (fun i (mt : Profile.microtrace) ->
      Alcotest.(check int) "renumbered index" i mt.mt_index;
      Alcotest.(check int) "sampling grid position"
        (i * p.p_window_instructions) mt.mt_start_instruction;
      let recorded =
        Histogram.total mt.mt_reuse_load + Histogram.total mt.mt_reuse_store
        + mt.mt_mem_cold
      in
      Alcotest.(check int) "reuse + cold = samples" mt.mt_mem_samples recorded)
    p.p_microtraces

let test_shard_bounded_warmup_invariants () =
  (* Warm-up length changes only reuse/cold classification near shard
     boundaries: sample counts, totals and the sampling grid are
     warm-up-independent, and losing history can only inflate cold
     rates, never deflate them. *)
  let n = 60_000 in
  let spec = Benchmarks.find "gcc" in
  let legacy = Profiler.profile_legacy spec ~seed:1 ~n_instructions:n in
  let sharded = Profiler.profile spec ~jobs:4 ~seed:1 ~n_instructions:n in
  Alcotest.(check int) "total instructions" legacy.p_total_instructions
    sharded.p_total_instructions;
  Alcotest.(check int) "microtrace count"
    (Array.length legacy.p_microtraces)
    (Array.length sharded.p_microtraces);
  Alcotest.(check int) "inst samples" legacy.p_inst_samples
    sharded.p_inst_samples;
  Alcotest.(check int) "data accesses" legacy.p_data_accesses
    sharded.p_data_accesses;
  Alcotest.(check (float 1e-12)) "uops per instruction"
    legacy.p_uops_per_instruction sharded.p_uops_per_instruction;
  Alcotest.(check bool) "cold rate only inflates" true
    (Profile.cold_miss_rate sharded >= Profile.cold_miss_rate legacy -. 1e-12);
  Alcotest.(check bool) "data cold only inflates" true
    (sharded.p_data_cold >= legacy.p_data_cold)

let test_shard_rejects_bad_args () =
  let spec = Benchmarks.find "gcc" in
  Alcotest.check_raises "jobs 0"
    (Invalid_argument "Profiler.profile: jobs must be >= 1") (fun () ->
      ignore (Profiler.profile spec ~jobs:0 ~seed:1 ~n_instructions:1000));
  Alcotest.check_raises "negative warmup"
    (Invalid_argument "Profiler.profile: warmup must be >= 0") (fun () ->
      ignore (Profiler.profile spec ~warmup:(-1) ~seed:1 ~n_instructions:1000))

let () =
  Alcotest.run "profiler"
    [
      ( "dep_chains",
        [
          Alcotest.test_case "Fig 3.3 depths" `Quick test_fig_3_3_depths;
          Alcotest.test_case "Fig 3.3 AP/ABP/CP" `Quick test_fig_3_3_chain_stats;
          Alcotest.test_case "window boundaries" `Quick
            test_depths_ignore_out_of_window_producers;
          Alcotest.test_case "serial vs independent" `Quick
            test_serial_chain_critical_path;
          Alcotest.test_case "load depth distribution" `Quick
            test_load_depth_distribution;
          Alcotest.test_case "log interpolation" `Quick
            test_chain_interpolation_matches_log;
          Alcotest.test_case "interpolated chains stay positive" `Quick
            test_chain_at_positive;
        ] );
      ( "stride_class",
        [
          Alcotest.test_case "classification" `Quick test_stride_classification;
          Alcotest.test_case "prefers simplest" `Quick
            test_stride_cutoffs_prefer_simplest;
          Alcotest.test_case "fig labels" `Quick test_fig_labels;
          Alcotest.test_case "paper cutoffs" `Quick test_cutoffs_are_papers;
        ] );
      ( "profile_io",
        [
          Alcotest.test_case "rejects garbage" `Quick test_profile_io_rejects_garbage;
          Alcotest.test_case "version errors" `Quick test_profile_io_version_errors;
          Alcotest.test_case "validates semantics" `Quick
            test_profile_io_validates_semantics;
          Alcotest.test_case "rejects negative reuse" `Quick
            test_profile_io_rejects_negative_reuse;
          Alcotest.test_case "decoded footprint bounded" `Quick
            test_decoded_footprint_bounded;
          Alcotest.test_case "binary round-trip" `Quick test_binary_roundtrip;
          Alcotest.test_case "binary file round-trip" `Quick
            test_binary_file_roundtrip;
          Alcotest.test_case "binary identical predictions" `Quick
            test_binary_same_predictions;
          Alcotest.test_case "binary rejects byte flips" `Quick
            test_binary_rejects_bit_flip;
          Alcotest.test_case "binary rejects truncation" `Quick
            test_binary_rejects_truncation;
          QCheck_alcotest.to_alcotest prop_binary_corruption_total;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "structure" `Quick test_profile_structure;
          Alcotest.test_case "chain invariants" `Quick test_profile_chain_invariants;
          Alcotest.test_case "determinism" `Quick test_profile_determinism;
          Alcotest.test_case "sampled mix vs full (Fig 5.2)" `Quick
            test_sampled_mix_close_to_full;
          Alcotest.test_case "sampled chains vs full (Fig 5.5)" `Quick
            test_sampled_chains_close_to_full;
          Alcotest.test_case "exact inst cold rate" `Quick test_inst_cold_rate_is_exact;
          Alcotest.test_case "cold correction bounds" `Quick
            test_cold_correction_bounds;
          Alcotest.test_case "memory sample accounting" `Quick
            test_mem_sample_accounting;
          Alcotest.test_case "static loads" `Quick test_static_loads_recorded;
          Alcotest.test_case "libquantum stride-dominated (Fig 4.7)" `Quick
            test_libquantum_is_stride_dominated;
          Alcotest.test_case "cold stats consistency" `Quick
            test_cold_stats_consistency;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "jobs:1 bit-identical to legacy" `Quick
            test_shard_jobs1_bit_identical;
          QCheck_alcotest.to_alcotest prop_shard_unbounded_warmup_exact;
          Alcotest.test_case "merge renumbers microtraces" `Quick
            test_shard_merge_renumbering;
          Alcotest.test_case "bounded warm-up invariants" `Quick
            test_shard_bounded_warmup_invariants;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_shard_rejects_bad_args;
        ] );
    ]
