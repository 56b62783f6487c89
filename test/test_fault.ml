(* The robustness layer: CRC-32, structured faults, fault-isolated
   parallel map, and the crash-tolerant checkpoint log. *)

(* ---- Crc32 ---- *)

let test_crc32_vectors () =
  (* The two standard IEEE 802.3 check values. *)
  Alcotest.(check string) "check value" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""));
  Alcotest.(check int) "incremental = whole"
    (Crc32.string "hello world")
    (Crc32.update (Crc32.string "hello ") "world" ~pos:0 ~len:5)

let test_crc32_hex_roundtrip () =
  List.iter
    (fun s ->
      let crc = Crc32.string s in
      match Crc32.of_hex (Crc32.to_hex crc) with
      | Some back -> Alcotest.(check int) ("hex round-trip " ^ s) crc back
      | None -> Alcotest.fail "of_hex rejected to_hex output")
    [ ""; "a"; "checkpoint line"; String.make 1000 'x' ];
  Alcotest.(check bool) "rejects junk" true (Crc32.of_hex "zzzzzzzz" = None);
  Alcotest.(check bool) "rejects short" true (Crc32.of_hex "abc" = None)

(* ---- Fault ---- *)

let test_fault_line_roundtrip () =
  let faults =
    [ Fault.bad_input ~line:7 ~context:"profile" "bad integer \"x\"";
      Fault.numeric "design point 3: non-finite watts (nan)";
      Fault.worker_crash (Failure "boom\nwith newline") (Printexc.get_callstack 0);
      Fault.timeout "per-request deadline exceeded";
      Fault.overload "admission queue full (64 pending)" ]
  in
  List.iter
    (fun ft ->
      let line = Fault.to_line ft in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match String.index_opt line ' ' with
      | None -> Alcotest.fail "to_line has no tag separator"
      | Some i -> (
        let tag = String.sub line 0 i in
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        match Fault.of_line ~tag rest with
        | None -> Alcotest.failf "of_line rejected %S" line
        | Some back ->
          Alcotest.(check string) "tag survives" (Fault.tag ft) (Fault.tag back)))
    faults;
  Alcotest.(check bool) "unknown tag rejected" true
    (Fault.of_line ~tag:"martian" "msg" = None)

let test_serving_faults_roundtrip_exactly () =
  (* Timeout/Overload carry plain messages, so — unlike Worker_crash,
     which loses its exception identity — their round-trip through a log
     line or wire frame is exact. *)
  List.iter
    (fun ft ->
      let line = Fault.to_line ft in
      let i = String.index line ' ' in
      let tag = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match Fault.of_line ~tag rest with
      | Some back -> Alcotest.(check bool) ("exact: " ^ line) true (ft = back)
      | None -> Alcotest.failf "of_line rejected %S" line)
    [
      Fault.timeout "deadline exceeded after 250 ms";
      Fault.timeout "";
      Fault.overload "queue full";
      Fault.overload "degraded mode: batch requests shed";
    ]

let test_fault_line_renders_the_same () =
  (* [of_line] inverts [to_line] for rendering: a resumed log or a wire
     reply prints a fault exactly as the fault that was raised. *)
  let through ft =
    let line = Fault.to_line ft in
    let i = String.index line ' ' in
    Fault.of_line ~tag:(String.sub line 0 i)
      (String.sub line (i + 1) (String.length line - i - 1))
  in
  List.iter
    (fun ft ->
      match through ft with
      | None -> Alcotest.failf "of_line rejected %S" (Fault.to_line ft)
      | Some back ->
        Alcotest.(check string) "renders the same" (Fault.to_string ft)
          (Fault.to_string back);
        Alcotest.(check string) "same line again" (Fault.to_line ft)
          (Fault.to_line back))
    [
      Fault.bad_input ~context:"profile gcc" "microtrace 0: negative reuse";
      Fault.bad_input ~line:7 ~context:"profile" "bad integer \"x\"";
      Fault.numeric "design point 3: non-finite watts (nan)";
      Fault.timeout "per-request deadline exceeded";
      Fault.overload "admission queue full (64 pending)";
      Fault.worker_crash (Failure "boom") (Printexc.get_callstack 0);
    ]

(* ---- Parallel.map_result ---- *)

let test_map_result_isolation () =
  let f x = if x mod 3 = 0 then failwith ("bad " ^ string_of_int x) else x * x in
  List.iter
    (fun jobs ->
      let results = Parallel.map_result ~jobs f [ 1; 2; 3; 4; 5; 6; 7 ] in
      Alcotest.(check int) "length" 7 (List.length results);
      List.iteri
        (fun i r ->
          let x = i + 1 in
          match r with
          | Ok v ->
            Alcotest.(check bool) "ok only off-multiples" true (x mod 3 <> 0);
            Alcotest.(check int) "value" (x * x) v
          | Error (Fault.Worker_crash (Failure msg, _)) ->
            Alcotest.(check bool) "crash only on multiples" true (x mod 3 = 0);
            Alcotest.(check string) "message" ("bad " ^ string_of_int x) msg
          | Error ft ->
            Alcotest.failf "wrong fault kind: %s" (Fault.to_string ft))
        results)
    [ 1; 4 ]

let test_map_result_passes_faults_through () =
  (* A function raising [Fault.Error] keeps its fault untouched instead
     of being double-wrapped as a crash. *)
  let f x = if x = 2 then Fault.raise_error (Fault.numeric "nan cpi") else x in
  match Parallel.map_result f [ 1; 2 ] with
  | [ Ok 1; Error (Fault.Numeric "nan cpi") ] -> ()
  | _ -> Alcotest.fail "fault was rewrapped or reordered"

let prop_map_result_jobs_invariant =
  QCheck.Test.make ~name:"map_result verdicts independent of jobs" ~count:30
    QCheck.(pair (int_range 0 40) (int_range 2 6))
    (fun (n, jobs) ->
      let xs = List.init n Fun.id in
      let f x = if x mod 5 = 4 then failwith "die" else x + 1 in
      let strip = List.map (Result.map_error Fault.tag) in
      strip (Parallel.map_result ~jobs:1 f xs)
      = strip (Parallel.map_result ~jobs f xs))

(* ---- Checkpoint ---- *)

let with_temp f =
  let path = Filename.temp_file "mipp" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let vec i = [| 1.0 +. (0.125 *. float_of_int i); float_of_int (1000 * i); 3.5;
                1e-6; 1e-5; 1e-17 |]

let header = Checkpoint.point_header ~workload:"gcc" ~n_points:5 ~width:6
let decode = Checkpoint.decode_point ~n_points:5 ~width:6
let record i r = Checkpoint.encode_point ~width:6 i r

let open_log path = Fault.or_raise (Checkpoint.open_ path ~header ~decode)

let append_records path records =
  let t, _ = open_log path in
  Checkpoint.append t (List.map (fun (i, r) -> record i r) records);
  Checkpoint.close t

let restored_indices path =
  let t, back = open_log path in
  Checkpoint.close t;
  List.map fst back

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      Sys.remove path;
      let records =
        [ (0, Ok (vec 0)); (1, Error (Fault.numeric "non-finite watts"));
          (2, Ok [| Float.nan; Float.infinity; -0.0; 1.0; 2.0; 3.0 |]) ]
      in
      append_records path records;
      let t, back = open_log path in
      Checkpoint.close t;
      Alcotest.(check int) "records" 3 (List.length back);
      List.iter2
        (fun (i, a) (j, b) ->
          Alcotest.(check int) "index" i j;
          match (a, b) with
          | Ok x, Ok y ->
            (* raw IEEE-754 bits round-trip exactly, NaN and -0 included *)
            Alcotest.(check bool) "floats bit-identical" true
              (Array.map Int64.bits_of_float x = Array.map Int64.bits_of_float y)
          | Error x, Error y ->
            Alcotest.(check string) "fault tag" (Fault.tag x) (Fault.tag y)
          | _ -> Alcotest.fail "Ok/Error mismatch")
        records back;
      (* block records, through the same log *)
      Sys.remove path;
      let blk =
        { Checkpoint.b_index = 2; b_stats = vec 7;
          b_front = [ (17, 1e-3, 4.5); (18, 2e-3, 3.25) ] }
      in
      let header =
        Checkpoint.block_header ~workload:"gcc" ~n_points:100 ~width:6
          ~block_size:16 ~offset:0 ~length:100
      in
      let decode = Checkpoint.decode_block ~n_blocks:7 ~width:6 in
      let t, _ = Fault.or_raise (Checkpoint.open_ path ~header ~decode) in
      Checkpoint.append t [ Checkpoint.encode_block blk ];
      Checkpoint.close t;
      let t, back = Fault.or_raise (Checkpoint.open_ path ~header ~decode) in
      Checkpoint.close t;
      Alcotest.(check bool) "block round-trips" true (back = [ blk ]))

let test_checkpoint_torn_tail () =
  with_temp (fun path ->
      Sys.remove path;
      append_records path [ (0, Ok (vec 0)); (1, Ok (vec 1)) ];
      (* simulate a kill mid-append: half a record, bad CRC *)
      append_raw path "deadbeef ok 2 3ff8000000000000 3ff8";
      Alcotest.(check (list int)) "torn record dropped" [ 0; 1 ]
        (restored_indices path);
      (* the reopen truncated the torn bytes: appends land on a fresh line *)
      append_records path [ (2, Ok (vec 2)) ];
      Alcotest.(check (list int)) "append after a torn tail" [ 0; 1; 2 ]
        (restored_indices path))

let test_checkpoint_unterminated_record () =
  with_temp (fun path ->
      Sys.remove path;
      append_records path [ (0, Ok (vec 0)); (1, Ok (vec 1)) ];
      (* a write cut short exactly before its newline: the record's CRC
         still checks out, but it must count as torn *)
      let s = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub s 0 (String.length s - 1)));
      append_records path [ (2, Ok (vec 2)); (3, Ok (vec 3)) ];
      Alcotest.(check (list int)) "later appends survive" [ 0; 2; 3 ]
        (restored_indices path))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_checkpoint_header_mismatch () =
  with_temp (fun path ->
      Sys.remove path;
      let remedy = "delete it or choose another --checkpoint path" in
      let mismatch = [ "written by another run or an older format"; remedy ] in
      let refused what ~says header =
        match
          Checkpoint.open_ path ~header ~decode:(fun _ -> Some ())
        with
        | Ok (t, _) ->
          Checkpoint.close t;
          Alcotest.failf "accepted %s" what
        | Error (Fault.Bad_input { message; _ }) ->
          List.iter
            (fun part ->
              if not (contains message part) then
                Alcotest.failf "%s: %S does not say %S" what message part)
            says
        | Error ft -> Alcotest.failf "%s: wrong fault: %s" what (Fault.to_string ft)
      in
      append_records path [ (0, Ok (vec 0)) ];
      let before = In_channel.with_open_bin path In_channel.input_all in
      let other = Checkpoint.point_header ~workload:"gcc" ~n_points:7 ~width:6 in
      (* the raw headers follow the explanation *)
      refused "a checkpoint from a different sweep" other
        ~says:(mismatch @ [ String.escaped header; String.escaped other ]);
      refused "a per-point log as a block log" ~says:mismatch
        (Checkpoint.block_header ~workload:"gcc" ~n_points:5 ~width:6
           ~block_size:5 ~offset:0 ~length:5);
      Alcotest.(check string) "refused file untouched" before
        (In_channel.with_open_bin path In_channel.input_all);
      (* a version-2 log, as earlier releases wrote it *)
      let v2 = "header 2 5 6 gcc" in
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "%s %s\n"
            (Crc32.to_hex (Crc32.string v2)) v2);
      refused "an older-format log" ~says:mismatch header;
      Out_channel.with_open_bin path (fun oc -> output_string oc "garbage\n");
      refused "garbage" ~says:[ "not a checkpoint log"; remedy ] header)

let test_run_id_digests_inputs () =
  let id = Checkpoint.run_id ~workload:"gcc" in
  Alcotest.(check string) "deterministic" (id [ "a"; "b" ]) (id [ "a"; "b" ]);
  Alcotest.(check bool) "starts with the workload" true
    (String.starts_with ~prefix:"gcc " (id [ "a" ]));
  List.iter
    (fun (what, other) ->
      Alcotest.(check bool) what false (id [ "ab"; "c" ] = id other))
    [
      ("another input", [ "ab"; "d" ]);
      ("another split", [ "a"; "bc" ]);
      ("another count", [ "ab"; "c"; "" ]);
    ];
  Alcotest.(check bool) "another workload" false
    (id [ "a" ] = Checkpoint.run_id ~workload:"mcf" [ "a" ])

let () =
  Alcotest.run "fault"
    [
      ( "crc32",
        [
          Alcotest.test_case "standard vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "hex round-trip" `Quick test_crc32_hex_roundtrip;
        ] );
      ( "fault",
        [
          Alcotest.test_case "line round-trip" `Quick test_fault_line_roundtrip;
          Alcotest.test_case "timeout/overload exact round-trip" `Quick
            test_serving_faults_roundtrip_exactly;
          Alcotest.test_case "of_line renders as raised" `Quick
            test_fault_line_renders_the_same;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "per-item isolation" `Quick test_map_result_isolation;
          Alcotest.test_case "fault passthrough" `Quick
            test_map_result_passes_faults_through;
          QCheck_alcotest.to_alcotest prop_map_result_jobs_invariant;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick test_checkpoint_torn_tail;
          Alcotest.test_case "unterminated last record is torn" `Quick
            test_checkpoint_unterminated_record;
          Alcotest.test_case "header mismatch refused" `Quick
            test_checkpoint_header_mismatch;
          Alcotest.test_case "run id digests its inputs" `Quick
            test_run_id_digests_inputs;
        ] );
    ]
