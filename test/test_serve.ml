(* The serving layer: retry schedule, wire protocol (including a
   corruption fuzzer), and the live daemon end to end — fault isolation,
   admission control, deadlines, degraded mode and graceful drain. *)

(* ---- Retry ---- *)

let test_retry_backoff_schedule () =
  (* Deterministic, jitterless: 1ms doubling to a 100ms ceiling. *)
  List.iteri
    (fun attempt expected ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "backoff %d" attempt)
        expected
        (Retry.backoff_s ~attempt))
    [ 0.001; 0.002; 0.004; 0.008; 0.016; 0.032; 0.064; 0.1; 0.1; 0.1 ]

let test_retry_transient_classification () =
  Alcotest.(check bool) "EINTR" true
    (Retry.is_transient (Unix.Unix_error (Unix.EINTR, "read", "")));
  Alcotest.(check bool) "EAGAIN" true
    (Retry.is_transient (Unix.Unix_error (Unix.EAGAIN, "read", "")));
  Alcotest.(check bool) "EBADF is fatal" false
    (Retry.is_transient (Unix.Unix_error (Unix.EBADF, "read", "")));
  Alcotest.(check bool) "non-unix is fatal" false
    (Retry.is_transient Exit)

let test_retry_gives_up () =
  (* A persistently-EAGAIN operation must exhaust its budget, not spin. *)
  let calls = ref 0 in
  match
    Retry.with_retries ~attempts:3 ~what:"test" (fun () ->
        incr calls;
        raise (Unix.Unix_error (Unix.EAGAIN, "test", "")))
  with
  | _ -> Alcotest.fail "expected Unix_error"
  | exception Unix.Unix_error (Unix.EAGAIN, what, _) ->
    Alcotest.(check int) "attempts bounded" 4 !calls;
    Alcotest.(check bool) "labelled exhausted" true
      (String.length what >= 4)

(* ---- Protocol codecs ---- *)

let roundtrip_request env =
  match Protocol.decode_request (Protocol.encode_request env) with
  | Ok back -> back
  | Error f -> Alcotest.failf "decode_request: %s" (Fault.to_string f)

let test_request_roundtrip () =
  List.iter
    (fun env ->
      Alcotest.(check bool)
        "request round-trips" true
        (roundtrip_request env = env))
    [
      { Protocol.rq_seq = 1; rq_timeout_ms = None; rq_body = Ping };
      { rq_seq = 2; rq_timeout_ms = Some 250; rq_body = Health };
      { rq_seq = 3; rq_timeout_ms = None; rq_body = Crash };
      {
        rq_seq = 4;
        rq_timeout_ms = Some 0;
        rq_body =
          Predict
            { rq_profile = "abc123"; rq_config = "reference";
              rq_prefetch = true };
      };
      {
        rq_seq = 5;
        rq_timeout_ms = None;
        rq_body =
          Sweep
            { rq_profile = "def"; rq_space = "default"; rq_offset = 17;
              rq_limit = 64 };
      };
      (* raw bytes survive, including newlines and NULs *)
      { rq_seq = 6; rq_timeout_ms = None;
        rq_body = Load "line1\nline2\x00binary\xff" };
    ]

let test_reply_roundtrip () =
  (* Fault payloads round-trip through their wire line: Timeout and
     Overload exactly (their payload is the message), Bad_input with its
     context/line folded into the message (same lossy rendering the
     checkpoint log documents) — but always the same fault class. *)
  let equivalent (a : Protocol.reply_envelope) (b : Protocol.reply_envelope) =
    a.rp_seq = b.rp_seq
    &&
    match (a.rp_body, b.rp_body) with
    | Ok_reply { rp_op = xo; rp_kv = xk }, Ok_reply { rp_op = yo; rp_kv = yk }
      ->
      xo = yo && xk = yk
    | Fault_reply (Fault.Timeout x), Fault_reply (Fault.Timeout y) -> x = y
    | Fault_reply (Fault.Overload x), Fault_reply (Fault.Overload y) -> x = y
    | Fault_reply x, Fault_reply y -> Fault.tag x = Fault.tag y
    | _ -> false
  in
  List.iter
    (fun env ->
      match Protocol.decode_reply (Protocol.encode_reply env) with
      | Ok back ->
        Alcotest.(check bool) "reply round-trips" true (equivalent back env)
      | Error f -> Alcotest.failf "decode_reply: %s" (Fault.to_string f))
    [
      { Protocol.rp_seq = 9;
        rp_body = Ok_reply { rp_op = "pong"; rp_kv = [] } };
      {
        rp_seq = 10;
        rp_body =
          Ok_reply
            { rp_op = "predict";
              rp_kv = [ Protocol.float_kv "cpi" 1.2345;
                        Protocol.float_kv "watts" 33.3 ] };
      };
      { rp_seq = 11; rp_body = Fault_reply (Fault.timeout "too slow") };
      { rp_seq = 12; rp_body = Fault_reply (Fault.overload "queue full") };
      { rp_seq = 0;
        rp_body =
          Fault_reply (Fault.bad_input ~context:"protocol" "frame CRC mismatch") };
    ]

let test_float_kv_exact () =
  List.iter
    (fun v ->
      let _, s = Protocol.float_kv "x" v in
      Alcotest.(check bool) "hex float is bit-exact" true
        (Int64.equal (Int64.bits_of_float v)
           (Int64.bits_of_float (float_of_string s))))
    [ 1.0 /. 3.0; 9.62061835; 1e-300; 0.0; 123456789.123456789 ]

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let wire = Protocol.frame Request payload in
      match Protocol.decode_frame wire with
      | Ok (Protocol.Request, back, consumed) ->
        Alcotest.(check string) "payload" payload back;
        Alcotest.(check int) "consumed" (String.length wire) consumed
      | Ok _ -> Alcotest.fail "wrong kind"
      | Error f -> Alcotest.failf "decode_frame: %s" (Fault.to_string f))
    [ ""; "x"; "op ping\n"; String.make 100_000 '\xab' ]

(* ---- Corruption fuzzer ----

   Every mutation of a valid frame must yield a structured protocol
   fault from the pure decoder — never an exception, never a silent
   accept of corrupt bytes. *)

let valid_frame =
  Protocol.frame Request
    (Protocol.encode_request
       { rq_seq = 42; rq_timeout_ms = Some 100; rq_body = Ping })

let expect_fault what buf =
  match Protocol.decode_frame buf with
  | Ok _ -> Alcotest.failf "%s: corrupt frame accepted" what
  | Error (Fault.Bad_input { context = "protocol"; _ }) -> ()
  | Error f ->
    Alcotest.failf "%s: wrong fault class %s" what (Fault.to_string f)
  | exception e ->
    Alcotest.failf "%s: decoder raised %s" what (Printexc.to_string e)

let test_fuzz_truncations () =
  for len = 0 to String.length valid_frame - 1 do
    expect_fault
      (Printf.sprintf "truncated to %d" len)
      (String.sub valid_frame 0 len)
  done

let test_fuzz_bit_flips () =
  (* Flip one bit in every byte position: header corruption desyncs,
     payload/CRC corruption fails the checksum — all structured. *)
  let n = String.length valid_frame in
  for pos = 0 to n - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string valid_frame in
      Bytes.set b pos
        (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      expect_fault
        (Printf.sprintf "bit %d of byte %d flipped" bit pos)
        (Bytes.to_string b)
    done
  done

let test_fuzz_oversized_length () =
  (* A hostile length prefix must be rejected by the cap, not allocated. *)
  let b = Bytes.of_string valid_frame in
  Bytes.set b 6 '\xff';
  Bytes.set b 7 '\xff';
  Bytes.set b 8 '\xff';
  Bytes.set b 9 '\x7f';
  expect_fault "2GB declared length" (Bytes.to_string b)

let prop_fuzz_random_mutations =
  QCheck.Test.make ~name:"random frame mutations never crash the decoder"
    ~count:500
    QCheck.(
      triple (int_range 0 (String.length valid_frame - 1)) (int_range 0 255)
        small_string)
    (fun (pos, byte, tail) ->
      let b = Bytes.of_string (valid_frame ^ tail) in
      Bytes.set b pos (Char.chr byte);
      (match Protocol.decode_frame (Bytes.to_string b) with
       | Ok (_, payload, _) ->
         (* Only reachable when the mutation was a no-op byte. *)
         ignore payload
       | Error (Fault.Bad_input _) -> ()
       | Error _ -> QCheck.Test.fail_report "non-protocol fault");
      true)

(* ---- Profile cache ---- *)

(* Four distinct small profiles (the cache is content-addressed). *)
let cache_profiles =
  lazy
    (List.map
       (fun bench ->
         Profile_io.to_binary_string
           (Profiler.profile (Benchmarks.find bench) ~seed:1 ~n_instructions:20_000))
       [ "gcc"; "mcf"; "milc"; "sjeng" ])

let cache_configs =
  [ Uarch.reference; Uarch.low_power;
    Uarch.with_prefetcher_kind Uarch.reference Uarch.Pf_stride ]

let cache_load cache bytes =
  match Profile_cache.load cache bytes with
  | Ok key -> key
  | Error ft -> Alcotest.failf "load: %s" (Fault.to_string ft)

let cache_predictions cache key =
  match Profile_cache.find cache key with
  | Error ft -> Alcotest.failf "find: %s" (Fault.to_string ft)
  | Ok p ->
    List.map
      (fun u -> Marshal.to_string (Interval_model.predict u p) [ Marshal.No_sharing ])
      cache_configs

let constructions f =
  let before = Statstack.construction_count () in
  f ();
  Statstack.construction_count () - before

(* An eviction frees the victim's derived state and nothing else: loading
   the newcomer builds exactly the newcomer's own structures, and the
   survivors answer bit for bit as before. *)
let test_cache_eviction_builds_only_newcomer () =
  let b0, b1, b2, b3 =
    match Lazy.force cache_profiles with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  let cache = Profile_cache.create ~capacity:3 in
  let k0 = cache_load cache b0 in
  let k1 = cache_load cache b1 in
  let k2 = cache_load cache b2 in
  (* Querying in this order leaves k0 least recently used. *)
  let before = List.map (cache_predictions cache) [ k0; k1; k2 ] in
  let own =
    match Profile_io.of_string b3 with
    | Ok p -> constructions (fun () -> Profile.prepare p)
    | Error ft -> Alcotest.failf "decode: %s" (Fault.to_string ft)
  in
  let built = constructions (fun () -> ignore (cache_load cache b3 : string)) in
  Alcotest.(check int) "one eviction" 1 (Profile_cache.stats cache).evictions;
  Alcotest.(check int) "only the newcomer's structures are built" own built;
  Alcotest.(check bool) "victim gone" true
    (Result.is_error (Profile_cache.find cache k0));
  List.iter2
    (fun key expected ->
      Alcotest.(check bool) "survivor predictions bit-identical" true
        (cache_predictions cache key = expected))
    [ k1; k2 ] (List.tl before)

(* Cycling more profiles than the cache holds, with a few predicts per
   load, keeps the live heap flat: an evicted profile leaves nothing
   behind.  When memos were process-global tables keyed by histogram
   identity, each eviction here left about 57 kB (14 MB over 240), so a
   4 MB bound is a wide margin. *)
let test_cache_heap_bounded () =
  let all = Lazy.force cache_profiles in
  let cache = Profile_cache.create ~capacity:2 in
  let cycle rounds =
    for _ = 1 to rounds do
      List.iter
        (fun bytes -> ignore (cache_predictions cache (cache_load cache bytes)))
        all
    done
  in
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).live_words * (Sys.word_size / 8)
  in
  cycle 5;
  let warm = live_bytes () and warm_evictions = (Profile_cache.stats cache).evictions in
  cycle 60;
  let later = live_bytes () and evictions = (Profile_cache.stats cache).evictions in
  Alcotest.(check bool) "hundreds of evictions" true (evictions - warm_evictions >= 200);
  let growth = later - warm in
  if growth > 4 * 1024 * 1024 then
    Alcotest.failf "live heap grew %d bytes over %d evictions" growth
      (evictions - warm_evictions)

(* ---- Live daemon ---- *)

let profile =
  lazy (Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:50_000)

let profile_bytes = lazy (Profile_io.to_binary_string (Lazy.force profile))

let sock_counter = ref 0

let with_server ?(cfg = Server.default_config) f =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mipp-t%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let server =
    Fault.or_raise (Server.start { cfg with socket_path = Some path })
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.join server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f path server)

let with_client path f =
  let client = Fault.or_raise (Client.connect_unix path) in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let ok = function
  | Ok v -> v
  | Error f -> Alcotest.failf "unexpected fault: %s" (Fault.to_string f)

let health_int client key =
  let kv = ok (Client.health client) in
  match List.assoc_opt key kv with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "health reply missing %s" key

let rec poll_until ?(tries = 100) what pred =
  if tries = 0 then Alcotest.failf "timed out waiting for %s" what
  else if pred () then ()
  else begin
    Thread.delay 0.05;
    poll_until ~tries:(tries - 1) what pred
  end

let test_serve_predict_exact () =
  with_server (fun path _server ->
      with_client path (fun client ->
          ok (Client.ping client);
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          Alcotest.(check string) "content key is the md5"
            (Digest.to_hex (Digest.string (Lazy.force profile_bytes)))
            key;
          (* Loading the same bytes again is a cheap cache hit, same key. *)
          Alcotest.(check string) "idempotent load" key
            (ok (Client.load client (Lazy.force profile_bytes)));
          let pr =
            ok (Client.predict client ~profile:key ~config:"reference" ())
          in
          (* The daemon must answer bit-identically to calling the model
             in-process: same profile, same config, hex-float wire format. *)
          let u = Fault.or_raise (Uarch.of_name "reference") in
          let pred = Interval_model.predict u (Lazy.force profile) in
          let ev = Sweep.of_prediction u ~index:0 pred in
          Alcotest.(check bool) "CPI bit-exact" true
            (Int64.equal
               (Int64.bits_of_float pr.Client.pr_cpi)
               (Int64.bits_of_float ev.Sweep.sw_cpi));
          Alcotest.(check bool) "watts bit-exact" true
            (Int64.equal
               (Int64.bits_of_float pr.pr_watts)
               (Int64.bits_of_float ev.sw_watts));
          Alcotest.(check bool) "ed2p bit-exact" true
            (Int64.equal
               (Int64.bits_of_float pr.pr_ed2p)
               (Int64.bits_of_float ev.sw_ed2p));
          let stack_total =
            List.fold_left (fun acc (_, v) -> acc +. v) 0.0 pr.pr_stack
          in
          Alcotest.(check (float 1e-6)) "stack sums to CPI" pr.pr_cpi
            stack_total))

let calibrator =
  lazy
    (let report =
       Fault.or_raise
         (Validate.run_workload ~jobs:2 ~seed:1 ~n_instructions:8_000
            ~spec:(Benchmarks.find "gcc")
            (Validate.matrix_configs `Quick))
     in
     let rows = Validate.matrix_of_report (Validate.summarize [ report ]) in
     match Calibrate.train rows with
     | Ok (m, _) -> m
     | Error ft -> Alcotest.failf "train: %s" (Fault.to_string ft))

let test_serve_calibrated_predict_exact () =
  (* A daemon configured with a calibration model must answer exactly
     what applying the model in-process yields: same calibrated cycles,
     same calibrated stack, down to the bit (hex-float wire format). *)
  let cal = Lazy.force calibrator in
  with_server
    ~cfg:{ Server.default_config with calibrator = Some cal }
    (fun path _server ->
      with_client path (fun client ->
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          let pr =
            ok (Client.predict client ~profile:key ~config:"reference" ())
          in
          let u = Fault.or_raise (Uarch.of_name "reference") in
          let p = Lazy.force profile in
          let pred = Interval_model.predict u p in
          let stats = Validate.profile_stats p in
          let cycles = Calibrate.calibrated_cycles cal ~stats u pred in
          Alcotest.(check bool) "calibrated cycles bit-exact" true
            (Int64.equal
               (Int64.bits_of_float pr.Client.pr_cycles)
               (Int64.bits_of_float cycles));
          let cal_stack, _ =
            Calibrate.apply_stack cal ~stats u
              (Interval_model.cpi_stack pred, Interval_model.cpi pred)
          in
          List.iter
            (fun comp ->
              let name = "stack_" ^ Cpi_stack.to_string comp in
              match List.assoc_opt (Cpi_stack.to_string comp) pr.pr_stack with
              | None -> Alcotest.failf "reply missing %s" name
              | Some v ->
                Alcotest.(check bool) (name ^ " bit-exact") true
                  (Int64.equal (Int64.bits_of_float v)
                     (Int64.bits_of_float (Cpi_stack.get cal_stack comp))))
            Cpi_stack.all;
          (* The calibrated reply must differ from the uncalibrated one
             somewhere, or the wiring is dead. *)
          let raw = Sweep.of_prediction u ~index:0 pred in
          Alcotest.(check bool) "calibration changed the cycles" false
            (Int64.equal
               (Int64.bits_of_float pr.pr_cycles)
               (Int64.bits_of_float raw.Sweep.sw_cycles))))

let test_serve_sweep_exact () =
  with_server (fun path _server ->
      with_client path (fun client ->
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          let points, faulted =
            ok
              (Client.sweep client ~profile:key ~space:"default" ~offset:40
                 ~limit:5 ())
          in
          Alcotest.(check int) "no faulted points" 0 faulted;
          Alcotest.(check int) "five points" 5 (List.length points);
          let space = Fault.or_raise (Config_space.find "default") in
          List.iteri
            (fun i (p : Client.sweep_point) ->
              let index = 40 + i in
              Alcotest.(check int) "index order" index p.sp_index;
              let u = Config_space.config_of_index space index in
              let ev =
                Sweep.of_prediction u ~index
                  (Interval_model.predict u (Lazy.force profile))
              in
              Alcotest.(check bool) "point CPI bit-exact" true
                (Int64.equal
                   (Int64.bits_of_float p.sp_cpi)
                   (Int64.bits_of_float ev.Sweep.sw_cpi)))
            points))

let test_serve_bad_requests_fault () =
  with_server (fun path _server ->
      with_client path (fun client ->
          (match Client.predict client ~profile:"feedfacefeedface" ~config:"reference" () with
           | Error (Fault.Bad_input _) -> ()
           | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
           | Ok _ -> Alcotest.fail "predict against unknown profile succeeded");
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          (match Client.predict client ~profile:key ~config:"not-a-config" () with
           | Error (Fault.Bad_input _) -> ()
           | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
           | Ok _ -> Alcotest.fail "unknown config accepted");
          (match
             Client.sweep client ~profile:key ~space:"default" ~offset:0
               ~limit:100_000 ()
           with
           | Error (Fault.Overload _) -> ()
           | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
           | Ok _ -> Alcotest.fail "oversized batch accepted");
          (* malformed profile bytes: structured fault, daemon healthy *)
          (match Client.load client "not a profile at all" with
           | Error (Fault.Bad_input _) -> ()
           | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
           | Ok _ -> Alcotest.fail "garbage profile accepted");
          ok (Client.ping client)))

let test_serve_deadline_timeout () =
  with_server (fun path _server ->
      with_client path (fun client ->
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          match
            Client.sweep client ~timeout_ms:0 ~profile:key ~space:"default"
              ~offset:0 ~limit:243 ()
          with
          | Error (Fault.Timeout _) -> ok (Client.ping client)
          | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
          | Ok _ -> Alcotest.fail "expired deadline still answered"))

let test_serve_overload_sheds () =
  let cfg = { Server.default_config with workers = 1; queue_capacity = 1 } in
  with_server ~cfg (fun path _server ->
      with_client path (fun client ->
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          (* Pipeline six whole-space sweeps without reading replies: one
             runs, one queues, the rest must shed with Overload — the
             queue is bounded, backpressure is explicit. *)
          let n = 6 in
          for seq = 100 to 99 + n do
            Protocol.write_frame (Client.fd client) Request
              (Protocol.encode_request
                 {
                   rq_seq = seq;
                   rq_timeout_ms = None;
                   rq_body =
                     Sweep
                       { rq_profile = key; rq_space = "default";
                         rq_offset = 0; rq_limit = 243 };
                 })
          done;
          let oks = ref 0 and overloads = ref 0 in
          for _ = 1 to n do
            match Protocol.read_frame (Client.fd client) with
            | Ok (Reply, payload) ->
              (match Fault.or_raise (Protocol.decode_reply payload) with
               | { rp_body = Ok_reply { rp_op = "sweep"; _ }; _ } -> incr oks
               | { rp_body = Fault_reply (Fault.Overload _); _ } ->
                 incr overloads
               | { rp_body = Fault_reply f; _ } ->
                 Alcotest.failf "wrong fault: %s" (Fault.to_string f)
               | _ -> Alcotest.fail "unexpected reply op")
            | _ -> Alcotest.fail "lost a reply"
          done;
          Alcotest.(check bool) "some work admitted" true (!oks >= 1);
          Alcotest.(check bool) "some work shed" true (!overloads >= 1);
          Alcotest.(check int) "every request answered" n (!oks + !overloads)))

let test_serve_corrupt_frame_keeps_connection () =
  with_server (fun path _server ->
      with_client path (fun client ->
          ok (Client.ping client);
          (* Valid header, CRC-corrupt payload: the server consumed the
             declared bytes, so the stream is in sync — it must fault and
             keep serving this very connection. *)
          let wire =
            Bytes.of_string
              (Protocol.frame Request
                 (Protocol.encode_request
                    { rq_seq = 7; rq_timeout_ms = None; rq_body = Ping }))
          in
          let mid = Bytes.length wire - 6 in
          Bytes.set wire mid
            (Char.chr (Char.code (Bytes.get wire mid) lxor 0x40));
          Retry.write_all (Client.fd client) wire 0 (Bytes.length wire);
          (match Protocol.read_frame (Client.fd client) with
           | Ok (Reply, payload) ->
             (match Fault.or_raise (Protocol.decode_reply payload) with
              | { rp_seq = 0; rp_body = Fault_reply (Fault.Bad_input _) } -> ()
              | _ -> Alcotest.fail "expected a protocol fault reply")
           | _ -> Alcotest.fail "no reply to corrupt frame");
          (* ...and the connection still works. *)
          ok (Client.ping client)))

let test_serve_desync_closes_connection () =
  with_server (fun path server ->
      ignore server;
      with_client path (fun client ->
          (* Garbage that cannot be framed: fault reply, then close. *)
          let garbage = "this is definitely not a MIPQ frame......" in
          Retry.write_all (Client.fd client)
            (Bytes.of_string garbage)
            0 (String.length garbage);
          (match Protocol.read_frame (Client.fd client) with
           | Ok (Reply, payload) ->
             (match Fault.or_raise (Protocol.decode_reply payload) with
              | { rp_body = Fault_reply (Fault.Bad_input _); _ } -> ()
              | _ -> Alcotest.fail "expected protocol fault")
           | Error _ -> ()  (* close can beat the reply; that's fine *)
           | Ok _ -> Alcotest.fail "unexpected frame");
          match Protocol.read_frame (Client.fd client) with
          | Error Protocol.Closed -> ()
          | Ok _ -> Alcotest.fail "connection survived desync"
          | Error _ -> ());
      (* The daemon itself survives and accepts fresh connections. *)
      with_client path (fun client -> ok (Client.ping client)))

let test_serve_slow_loris_dropped () =
  let cfg = { Server.default_config with recv_timeout_s = 0.15 } in
  with_server ~cfg (fun path _server ->
      with_client path (fun client ->
          (* Half a header, then silence: the mid-frame stall guard must
             drop the connection after recv_timeout_s. *)
          Retry.write_all (Client.fd client) (Bytes.of_string "MIP") 0 3;
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec drain () =
            match Protocol.read_frame (Client.fd client) with
            | Ok _ -> if Unix.gettimeofday () < deadline then drain ()
            | Error _ -> ()
          in
          drain ());
      (* Other clients are unaffected. *)
      with_client path (fun client -> ok (Client.ping client)))

let test_serve_crash_isolated_and_respawned () =
  let cfg =
    {
      Server.default_config with
      fault_injection = true;
      workers = 2;
      degraded_crash_threshold = 100 (* keep degraded mode out of this test *);
    }
  in
  with_server ~cfg (fun path _server ->
      with_client path (fun client ->
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          ok (Client.crash client);
          (* The daemon survives the worker death, keeps answering, and
             the supervisor replaces the dead domain. *)
          ok (Client.ping client);
          poll_until "respawn" (fun () -> health_int client "respawns" >= 1);
          Alcotest.(check bool) "crash counted" true
            (health_int client "crashes" >= 1);
          let pr =
            ok (Client.predict client ~profile:key ~config:"reference" ())
          in
          Alcotest.(check bool) "still predicting" true (pr.Client.pr_cpi > 0.0)))

let test_serve_degraded_mode_sheds_heavy () =
  let cfg =
    {
      Server.default_config with
      fault_injection = true;
      workers = 2;
      degraded_crash_threshold = 2;
      degraded_window_s = 30.0;
      degraded_cooldown_s = 0.7;
    }
  in
  with_server ~cfg (fun path _server ->
      with_client path (fun client ->
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          ok (Client.crash client);
          ok (Client.crash client);
          poll_until "degraded trip" (fun () ->
              List.assoc_opt "degraded" (ok (Client.health client))
              = Some "true");
          (* Heavy work is shed... *)
          (match
             Client.sweep client ~profile:key ~space:"default" ~offset:0
               ~limit:8 ()
           with
           | Error (Fault.Overload _) -> ()
           | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)
           | Ok _ -> Alcotest.fail "degraded mode admitted a batch");
          (* ...while point queries keep flowing: graceful degradation,
             not an outage. *)
          ignore (ok (Client.predict client ~profile:key ~config:"reference" ()));
          (* The cooldown clears it. *)
          poll_until "cooldown clears" (fun () ->
              List.assoc_opt "degraded" (ok (Client.health client))
              = Some "false");
          let points, _ =
            ok
              (Client.sweep client ~profile:key ~space:"default" ~offset:0
                 ~limit:8 ())
          in
          Alcotest.(check int) "batches admitted again" 8 (List.length points)))

let test_serve_graceful_drain_completes_inflight () =
  with_server (fun path server ->
      with_client path (fun client ->
          let key = ok (Client.load client (Lazy.force profile_bytes)) in
          (* Fire a whole-space sweep and immediately ask for shutdown:
             the drain must finish the admitted request and deliver its
             reply before the connection is torn down. *)
          Protocol.write_frame (Client.fd client) Request
            (Protocol.encode_request
               {
                 rq_seq = 777;
                 rq_timeout_ms = None;
                 rq_body =
                   Sweep
                     { rq_profile = key; rq_space = "default"; rq_offset = 0;
                       rq_limit = 243 };
               });
          Server.stop server;
          (match Protocol.read_frame (Client.fd client) with
           | Ok (Reply, payload) ->
             (match Fault.or_raise (Protocol.decode_reply payload) with
              | { rp_seq = 777; rp_body = Ok_reply { rp_op = "sweep"; rp_kv } } ->
                Alcotest.(check (option string)) "all points evaluated"
                  (Some "243")
                  (List.assoc_opt "n" rp_kv)
              | _ -> Alcotest.fail "in-flight request lost in drain")
           | _ -> Alcotest.fail "no reply during drain");
          Server.join server))

let test_serve_abrupt_disconnect_harmless () =
  with_server (fun path _server ->
      (* Send a request and slam the connection without reading the
         reply; the daemon must shrug (EPIPE is a counted drop). *)
      (let client = Fault.or_raise (Client.connect_unix path) in
       let key_req =
         Protocol.encode_request
           { rq_seq = 1; rq_timeout_ms = None;
             rq_body = Load (Lazy.force profile_bytes) }
       in
       Protocol.write_frame (Client.fd client) Request key_req;
       Client.close client);
      with_client path (fun client ->
          ok (Client.ping client);
          poll_until "connection reaped" (fun () ->
              health_int client "connections_open" = 1)))

let () =
  Alcotest.run "serve"
    [
      ( "eviction",
        [
          Alcotest.test_case "builds only the newcomer" `Quick
            test_cache_eviction_builds_only_newcomer;
          Alcotest.test_case "heap bounded" `Quick
            test_cache_heap_bounded;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule" `Quick
            test_retry_backoff_schedule;
          Alcotest.test_case "transient classification" `Quick
            test_retry_transient_classification;
          Alcotest.test_case "bounded attempts" `Quick test_retry_gives_up;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "hex floats bit-exact" `Quick test_float_kv_exact;
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "truncations" `Quick test_fuzz_truncations;
          Alcotest.test_case "bit flips" `Quick test_fuzz_bit_flips;
          Alcotest.test_case "oversized length" `Quick
            test_fuzz_oversized_length;
          QCheck_alcotest.to_alcotest prop_fuzz_random_mutations;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "predict bit-exact" `Quick test_serve_predict_exact;
          Alcotest.test_case "calibrated predict bit-exact" `Quick
            test_serve_calibrated_predict_exact;
          Alcotest.test_case "sweep bit-exact" `Quick test_serve_sweep_exact;
          Alcotest.test_case "bad requests fault" `Quick
            test_serve_bad_requests_fault;
          Alcotest.test_case "deadline timeout" `Quick
            test_serve_deadline_timeout;
          Alcotest.test_case "overload sheds" `Quick test_serve_overload_sheds;
          Alcotest.test_case "corrupt frame keeps connection" `Quick
            test_serve_corrupt_frame_keeps_connection;
          Alcotest.test_case "desync closes connection" `Quick
            test_serve_desync_closes_connection;
          Alcotest.test_case "slow-loris dropped" `Quick
            test_serve_slow_loris_dropped;
          Alcotest.test_case "crash isolated, worker respawned" `Quick
            test_serve_crash_isolated_and_respawned;
          Alcotest.test_case "degraded mode" `Quick
            test_serve_degraded_mode_sheds_heavy;
          Alcotest.test_case "graceful drain" `Quick
            test_serve_graceful_drain_completes_inflight;
          Alcotest.test_case "abrupt disconnect" `Quick
            test_serve_abrupt_disconnect_harmless;
        ] );
    ]
