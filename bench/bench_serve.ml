(* Sustained query throughput and tail latency against a live in-process
   daemon, then the fault drills: a worker crash storm, a barrage of
   malformed frames, slow-loris connections and an overload burst — the
   daemon must answer every valid request, shed with structured faults,
   and drain cleanly.  Gates: [qps_gate] queries/s sustained and a clean
   fault ledger (no lost replies, no daemon death). *)
let qps_gate = 1000.0

let serve () =
  Table.section "Model-serving daemon: throughput, tails and fault drills";
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mipp-bench-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    {
      Server.default_config with
      socket_path = Some sock;
      workers = 2;
      (* small enough that the pipelined overload burst overflows it,
         ample for 4 synchronous clients *)
      queue_capacity = 8;
      fault_injection = true;
      recv_timeout_s = 0.3;
      degraded_crash_threshold = 1000 (* drills must not trip degradation *);
    }
  in
  let server = Fault.or_raise (Server.start cfg) in
  let ok what = function
    | Ok v -> v
    | Error f -> failwith (Printf.sprintf "serve: %s: %s" what (Fault.to_string f))
  in
  let with_client f =
    let c = ok "connect" (Client.connect_unix sock) in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  in
  let profile =
    Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:50_000
  in
  let bytes = Profile_io.to_binary_string profile in
  let key = with_client (fun c -> ok "load" (Client.load c bytes)) in

  (* -- sustained throughput, concurrent clients -- *)
  let clients = 4 and per_client = 2000 in
  let warmup = 200 in
  with_client (fun c ->
      for _ = 1 to warmup do
        ignore (ok "warmup" (Client.predict c ~profile:key ~config:"reference" ()))
      done);
  let latencies = Array.make (clients * per_client) 0.0 in
  let (), elapsed =
    Harness.time @@ fun () ->
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            with_client (fun c ->
                for q = 0 to per_client - 1 do
                  latencies.((ci * per_client) + q) <-
                    snd
                      (Harness.time (fun () ->
                           ok "predict"
                             (Client.predict c ~profile:key ~config:"reference"
                                ())))
                done))
          ())
    |> List.iter Thread.join
  in
  let queries = clients * per_client in
  let qps = float_of_int queries /. elapsed in
  let latencies = Array.to_list latencies in
  let p50_us = 1e6 *. Stats.percentile latencies 50.0 in
  let p99_us = 1e6 *. Stats.percentile latencies 99.0 in
  Printf.printf
    "%d clients x %d predicts: %.0f queries/s sustained, p50 %.0f us, p99 \
     %.0f us\n"
    clients per_client qps p50_us p99_us;

  (* -- crash storm: repeated worker deaths, daemon keeps serving -- *)
  let storm = 5 in
  with_client (fun c ->
      for _ = 1 to storm do
        ok "crash" (Client.crash c);
        ok "ping after crash" (Client.ping c)
      done);
  (* The dying worker replies before it is torn down, so the crash and
     respawn counters can trail the acknowledgement; poll briefly. *)
  let read_counters () =
    let health = with_client (fun c -> ok "health" (Client.health c)) in
    let stat k =
      match List.assoc_opt k health with Some v -> int_of_string v | None -> 0
    in
    (stat "crashes", stat "respawns")
  in
  let rec settle tries =
    let crashes, respawns = read_counters () in
    if (crashes >= storm && respawns >= 1) || tries = 0 then (crashes, respawns)
    else begin
      Thread.delay 0.05;
      settle (tries - 1)
    end
  in
  let crashes, respawns = settle 100 in
  Printf.printf "crash storm: %d injected, %d counted, %d workers respawned\n"
    storm crashes respawns;

  (* -- malformed-frame barrage: every frame answered, connection kept -- *)
  let malformed = 100 in
  let answered = ref 0 in
  with_client (fun c ->
      let rng = Rng.create 7 in
      for _ = 1 to malformed do
        let wire =
          Bytes.of_string
            (Protocol.frame Request
               (Protocol.encode_request
                  { rq_seq = 1; rq_timeout_ms = None; rq_body = Ping }))
        in
        (* corrupt payload or CRC, never the header: stream stays in sync *)
        let pos = 10 + Rng.int rng (Bytes.length wire - 10) in
        Bytes.set wire pos
          (Char.chr (Char.code (Bytes.get wire pos) lxor (1 + Rng.int rng 255)));
        Retry.write_all (Client.fd c) wire 0 (Bytes.length wire);
        match Protocol.read_frame (Client.fd c) with
        | Ok (Reply, payload) ->
          (match Protocol.decode_reply payload with
           | Ok { rp_body = Fault_reply (Fault.Bad_input _); _ } ->
             incr answered
           | _ -> failwith "serve: malformed frame got a non-fault reply")
        | _ -> failwith "serve: malformed frame lost its reply";
      done;
      ok "ping after barrage" (Client.ping c));
  Printf.printf "malformed frames: %d sent, %d structured fault replies\n"
    malformed !answered;

  (* -- slow-loris trio: stalled connections reaped, others unaffected -- *)
  let loris = 3 in
  let loris_fds =
    List.init loris (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        ignore (Unix.write fd (Bytes.of_string "MIPQ\x01") 0 5);
        fd)
  in
  Thread.delay (cfg.recv_timeout_s +. 0.3);
  let reaped =
    List.for_all
      (fun fd ->
        (* The server sends a best-effort fault reply, then closes; keep
           reading until the close shows as EOF (or a reset). *)
        let buf = Bytes.create 4096 in
        let rec drained tries =
          if tries = 0 then false
          else
            match Unix.read fd buf 0 4096 with
            | 0 -> true
            | _ -> drained (tries - 1)
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              true
        in
        let closed = drained 32 in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        closed)
      loris_fds
  in
  with_client (fun c -> ok "ping after slow-loris" (Client.ping c));
  Printf.printf "slow-loris: %d stalled connections, all reaped: %b\n" loris
    reaped;

  (* -- overload burst: bounded queue sheds explicitly -- *)
  let burst = 24 in
  let oks = ref 0 and sheds = ref 0 in
  with_client (fun c ->
      for seq = 1000 to 999 + burst do
        Protocol.write_frame (Client.fd c) Request
          (Protocol.encode_request
             {
               rq_seq = seq;
               rq_timeout_ms = None;
               rq_body =
                 Sweep
                   { rq_profile = key; rq_space = "default"; rq_offset = 0;
                     rq_limit = 243 };
             })
      done;
      for _ = 1 to burst do
        match Protocol.read_frame (Client.fd c) with
        | Ok (Reply, payload) ->
          (match Protocol.decode_reply payload with
           | Ok { rp_body = Ok_reply _; _ } -> incr oks
           | Ok { rp_body = Fault_reply (Fault.Overload _); _ } -> incr sheds
           | _ -> failwith "serve: unexpected burst reply")
        | _ -> failwith "serve: burst reply lost"
      done);
  Printf.printf "overload burst: %d sweeps pipelined, %d served, %d shed\n"
    burst !oks !sheds;

  (* -- graceful drain -- *)
  let (), drain_s =
    Harness.time (fun () ->
        Server.stop server;
        Server.join server)
  in
  Printf.printf "drain: stopped and joined in %.3fs\n" drain_s;

  (* Hard gates (the issue's acceptance criteria). *)
  if qps < qps_gate then
    failwith
      (Printf.sprintf "serve: %.0f queries/s below the %.0f qps gate" qps
         qps_gate);
  if crashes < storm || respawns < 1 then
    failwith "serve: crash storm not fully counted or no respawn";
  if !answered <> malformed then
    failwith "serve: a malformed frame went unanswered";
  if not reaped then failwith "serve: a slow-loris connection survived";
  if !sheds = 0 || !oks = 0 then
    failwith "serve: overload burst did not both serve and shed";

  Harness.write_report "BENCH_serve.json"
    Minijson.
      [
        ("benchmark", Str "gcc");
        ("clients", int clients);
        ("queries", int queries);
        ("queries_per_second", Num qps);
        ("qps_gate", Num qps_gate);
        ("p50_us", Num p50_us);
        ("p99_us", Num p99_us);
        ("crash_storm", int storm);
        ("crashes_counted", int crashes);
        ("workers_respawned", int respawns);
        ("malformed_frames", int malformed);
        ("malformed_answered", int !answered);
        ("slow_loris_connections", int loris);
        ("slow_loris_reaped", Bool reaped);
        ("overload_burst", int burst);
        ("overload_served", int !oks);
        ("overload_shed", int !sheds);
        ("drain_seconds", Num drain_s);
      ]
