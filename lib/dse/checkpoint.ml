(* Append-only sweep checkpoint log.

   One record per line, each protected by its own CRC-32 so a torn tail
   write (process killed mid-append) invalidates only the last line:
   [load] stops at the first corrupt record and discards it, and the
   sweep simply re-evaluates those points.  Floats are stored as hex
   literals, so a resumed sweep reproduces the uninterrupted results
   bit for bit.

   Line format:    <crc32-hex8> <payload>
   Header payload: header 2 <n_configs> <width> <workload>
                   (version 1 omitted <width>; it is implied 6, the
                   design-sweep payload, so v1 logs still load)
   Entry payloads: ok <index> <width raw-IEEE-754 floats>
                   err <index> <fault-line>   (see Fault.to_line)

   The payload is a flat float vector of fixed per-file width rather
   than a fixed record, so different sweeps can checkpoint different
   shapes through one log format: the design sweep stores 6 numbers
   (cpi/cycles/watts/seconds/energy/ed2p), the model-vs-simulator
   validation matrix stores its wider model+sim stack payload.  The
   width lives in the header and every record is checked against it.

   Result floats are stored as their raw IEEE-754 bit pattern, 16 hex
   digits: bit-exact by construction (including NaN payloads, which
   printf-style float formats lose), and an order of magnitude cheaper
   to serialize than printf [%h] — checkpointing sits on the sweep's
   critical path. *)

type t = {
  fd : Unix.file_descr;
  path : string;
  width : int;
  mutable last_sync : float;
}

(* The micro-architecture-independent numbers of one evaluated design
   point — everything [Sweep.eval] holds except the config itself, which
   the resuming sweep reconstructs from the design point's index. *)
type numbers = {
  nm_cpi : float;
  nm_cycles : float;
  nm_watts : float;
  nm_seconds : float;
  nm_energy_j : float;
  nm_ed2p : float;
}

type entry = { e_index : int; e_result : (numbers, Fault.t) result }

type vec_entry = { v_index : int; v_result : (float array, Fault.t) result }

let log_version = 2
let numbers_width = 6

let framed payload = Crc32.to_hex (Crc32.string payload) ^ " " ^ payload ^ "\n"

let unframe line =
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    match Crc32.of_hex (String.sub line 0 8) with
    | None -> None
    | Some crc ->
      let payload = String.sub line 9 (String.length line - 9) in
      if Crc32.string payload = crc then Some payload else None

let header_payload ~n_configs ~width ~workload =
  Printf.sprintf "header %d %d %d %s" log_version n_configs width workload

let hex_digits = "0123456789abcdef"

let add_float_bits buf f =
  let v = Int64.bits_of_float f in
  for i = 15 downto 0 do
    let nibble = Int64.to_int (Int64.shift_right_logical v (4 * i)) land 0xf in
    Buffer.add_char buf hex_digits.[nibble]
  done

let float_of_bits_hex s =
  if String.length s <> 16 then None
  else
    Option.map Int64.float_of_bits (Int64.of_string_opt ("0x" ^ s))

let add_entry_payload buf (e : vec_entry) =
  match e.v_result with
  | Ok values ->
    Buffer.add_string buf "ok ";
    Buffer.add_string buf (string_of_int e.v_index);
    Array.iter
      (fun f ->
        Buffer.add_char buf ' ';
        add_float_bits buf f)
      values
  | Error ft ->
    Buffer.add_string buf (Printf.sprintf "err %d %s" e.v_index (Fault.to_line ft))

let parse_entry ~width payload =
  match String.split_on_char ' ' payload with
  | "ok" :: index :: floats when List.length floats = width ->
    Option.bind (int_of_string_opt index) (fun v_index ->
        let values = List.filter_map float_of_bits_hex floats in
        if List.length values <> width then None
        else Some { v_index; v_result = Ok (Array.of_list values) })
  | "err" :: index :: tag :: rest ->
    Option.bind (int_of_string_opt index) (fun v_index ->
        Option.map
          (fun ft -> { v_index; v_result = Error ft })
          (Fault.of_line ~tag (String.concat " " rest)))
  | _ -> None

(* Version 1 headers (pre-validation logs) carry no width field: every
   v1 record is the 6-float design-sweep payload. *)
let parse_header payload =
  match String.split_on_char ' ' payload with
  | "header" :: "1" :: n_configs :: workload ->
    Option.map
      (fun n -> (n, numbers_width, String.concat " " workload))
      (int_of_string_opt n_configs)
  | "header" :: "2" :: n_configs :: width :: workload ->
    Option.bind (int_of_string_opt n_configs) (fun n ->
        Option.bind (int_of_string_opt width) (fun w ->
            if w <= 0 then None
            else Some (n, w, String.concat " " workload)))
  | _ -> None

(* Group commit.  A completed [write] already survives the death of this
   process (the page cache persists it), so per-batch fsync buys nothing
   against kills — it only narrows the power-failure window, and at
   ~0.5 ms apiece it would dominate a fast analytical sweep.  So records
   are written per batch and fsync'd at most once per [sync_interval_s]:
   a power failure loses at most the last second of progress, and the
   per-line CRC catches any torn tail it leaves, truncated away on the
   next open. *)
let sync_interval_s = 1.0

(* Transient syscall failures (EINTR from an operator signal landing
   mid-append, EAGAIN from a momentarily saturated device) retry on the
   bounded deterministic schedule instead of killing the sweep — a
   checkpoint write is exactly the work we must not lose to a signal. *)
let write_all fd s =
  let bytes = Bytes.of_string s in
  Retry.write_all fd bytes 0 (Bytes.length bytes)

let maybe_sync t =
  let now = Unix.gettimeofday () in
  if now -. t.last_sync >= sync_interval_s then begin
    Retry.fsync t.fd;
    t.last_sync <- now
  end

(* ---- Signal-driven flushing ----

   Long sweeps field SIGTERM/SIGINT; the handler must be able to push
   every open checkpoint to disk before exiting, without knowing which
   logs the run has open.  Every [open_]-family call registers its handle
   here; [close] unregisters it.  [sync_all] is best-effort by design: it
   runs from a signal handler racing normal operation, so a handle closed
   (EBADF) or mid-append under its feet must not turn a clean shutdown
   into a crash — the per-line CRCs already make a torn tail harmless. *)

let active : t list ref = ref []
let active_mutex = Mutex.create ()

let register t =
  Mutex.protect active_mutex (fun () -> active := t :: !active)

let unregister t =
  Mutex.protect active_mutex (fun () ->
      active := List.filter (fun u -> u != t) !active)

let sync t =
  Retry.fsync t.fd;
  t.last_sync <- Unix.gettimeofday ()

let sync_all () =
  let snapshot = Mutex.protect active_mutex (fun () -> !active) in
  List.iter (fun t -> try sync t with _ -> ()) snapshot

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Decode as many valid records as the file holds, stopping at the first
   line whose CRC does not check out (torn tail or corruption: everything
   after it is untrusted).  Also reports the byte length of the trusted
   prefix, so [open_vec] can truncate a torn tail away before appending —
   otherwise the next record would be glued onto the partial line and
   lost with it. *)
let decode ~path lines =
  match lines with
  | [] -> Error (Fault.bad_input ~context:("checkpoint " ^ path) "empty file")
  | header_line :: rest -> (
    match Option.bind (unframe header_line) parse_header with
    | None ->
      Error
        (Fault.bad_input ~context:("checkpoint " ^ path) ~line:1
           "bad or corrupt header line")
    | Some (n_configs, width, workload) ->
      let entries = ref [] in
      let valid_bytes = ref (String.length header_line + 1) in
      (try
         List.iter
           (fun l ->
             match Option.bind (unframe l) (parse_entry ~width) with
             | Some e when e.v_index >= 0 && e.v_index < n_configs ->
               entries := e :: !entries;
               valid_bytes := !valid_bytes + String.length l + 1
             | _ -> raise Exit)
           rest
       with Exit -> ());
      Ok (n_configs, width, workload, List.rev !entries, !valid_bytes))

let load_vec path =
  match read_lines path with
  | exception Sys_error msg ->
    Error (Fault.bad_input ~context:("checkpoint " ^ path) msg)
  | lines ->
    Result.map
      (fun (n, width, w, entries, _) -> (n, width, w, entries))
      (decode ~path lines)

(* Open for appending.  A fresh file gets the header; an existing file
   must carry a matching header (same sweep shape, same payload width),
   otherwise resuming would silently mix results from different sweeps. *)
let open_vec path ~n_configs ~width ~workload =
  if width <= 0 then
    Error
      (Fault.bad_input ~context:("checkpoint " ^ path)
         (Printf.sprintf "payload width must be positive, got %d" width))
  else
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    with
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Fault.bad_input ~context:("checkpoint " ^ path) (Unix.error_message err))
    | fd ->
      (* An empty file — just created, or touched in advance — is a fresh
         log, not a corrupt one. *)
      if (Unix.fstat fd).st_size = 0 then begin
        write_all fd (framed (header_payload ~n_configs ~width ~workload));
        let t = { fd; path; width; last_sync = Unix.gettimeofday () } in
        register t;
        Ok t
      end
      else begin
        match Result.bind (try Ok (read_lines path) with Sys_error msg ->
                  Error (Fault.bad_input ~context:("checkpoint " ^ path) msg))
                (decode ~path)
        with
        | Error ft ->
          Unix.close fd;
          Error ft
        | Ok (n, fw, w, _, _) when n <> n_configs || fw <> width || w <> workload
          ->
          Unix.close fd;
          Error
            (Fault.bad_input ~context:("checkpoint " ^ path)
               (Printf.sprintf
                  "header mismatch: file is for %d configs of %S (width %d), \
                   sweep has %d configs of %S (width %d)"
                  n w fw n_configs workload width))
        | Ok (_, _, _, _, valid_bytes) ->
          (* Drop a torn tail (kill mid-append) so new records start on a
             fresh line instead of being glued to — and lost with — the
             partial one. *)
          if (Unix.fstat fd).st_size > valid_bytes then
            Unix.ftruncate fd valid_bytes;
          let t = { fd; path; width; last_sync = Unix.gettimeofday () } in
          register t;
          Ok t
      end

(* One write per batch, two buffers total: the scratch holds each payload
   long enough to CRC it, the batch buffer accumulates the framed lines.
   Per-entry string allocation here is measurable against a memoized
   analytical sweep (~25 us per design point). *)
let append_vec t entries =
  List.iter
    (fun e ->
      match e.v_result with
      | Ok values when Array.length values <> t.width ->
        Fault.raise_error
          (Fault.bad_input ~context:("checkpoint " ^ t.path)
             (Printf.sprintf "record width %d does not match file width %d"
                (Array.length values) t.width))
      | _ -> ())
    entries;
  let scratch = Buffer.create 160 in
  let buf = Buffer.create (160 * List.length entries) in
  List.iter
    (fun e ->
      Buffer.clear scratch;
      add_entry_payload scratch e;
      let payload = Buffer.contents scratch in
      Buffer.add_string buf (Crc32.to_hex (Crc32.string payload));
      Buffer.add_char buf ' ';
      Buffer.add_string buf payload;
      Buffer.add_char buf '\n')
    entries;
  if Buffer.length buf > 0 then begin
    write_all t.fd (Buffer.contents buf);
    maybe_sync t
  end

let close t =
  unregister t;
  maybe_sync t;
  Unix.close t.fd

(* ---- Version 3: streaming block records ----

   A streaming sweep over a generated (possibly million-point) space
   cannot checkpoint per point — the log would be larger than the sweep
   is fast — and does not keep per-point results at all.  It reduces each
   fixed-size index block to a small summary the moment the block
   completes: a fixed-width vector of commutative-enough accumulators
   (sums and argmins, combined in block order on resume) plus the block's
   local Pareto front.  One CRC'd line per block rides the existing
   framing, so the torn-tail and group-commit guarantees carry over
   unchanged, and a killed sweep resumes at the first un-checkpointed
   block with bit-identical final output.

   Header payload: header 3 <n_points> <stats_width> <block_size>
                            <offset> <length> <workload>
   Block payload:  blk <block#> <stats_width floats> <front#>
                       {<id> <delay> <power>}*
   (floats as raw IEEE-754 bit patterns, like v2 records). *)

type stream_meta = {
  sm_n_points : int;  (* size of the whole config space *)
  sm_stats_width : int;
  sm_block_size : int;
  sm_offset : int;  (* first point index of the swept sub-range *)
  sm_length : int;  (* points in the swept sub-range *)
  sm_workload : string;
}

type stream_block = {
  b_index : int;  (* block number within the sub-range, from 0 *)
  b_stats : float array;  (* length = sm_stats_width *)
  b_front : (int * float * float) list;  (* point id, delay, power *)
}

let stream_version = 3

let stream_header_payload m =
  Printf.sprintf "header %d %d %d %d %d %d %s" stream_version m.sm_n_points
    m.sm_stats_width m.sm_block_size m.sm_offset m.sm_length m.sm_workload

let parse_stream_header payload =
  match String.split_on_char ' ' payload with
  | "header" :: "3" :: n :: width :: block :: offset :: length :: workload ->
    Option.bind (int_of_string_opt n) (fun sm_n_points ->
        Option.bind (int_of_string_opt width) (fun sm_stats_width ->
            Option.bind (int_of_string_opt block) (fun sm_block_size ->
                Option.bind (int_of_string_opt offset) (fun sm_offset ->
                    Option.bind (int_of_string_opt length) (fun sm_length ->
                        if sm_stats_width <= 0 || sm_block_size <= 0 then None
                        else
                          Some
                            {
                              sm_n_points;
                              sm_stats_width;
                              sm_block_size;
                              sm_offset;
                              sm_length;
                              sm_workload = String.concat " " workload;
                            })))))
  | _ -> None

let add_block_payload buf (b : stream_block) =
  Buffer.add_string buf "blk ";
  Buffer.add_string buf (string_of_int b.b_index);
  Array.iter
    (fun f ->
      Buffer.add_char buf ' ';
      add_float_bits buf f)
    b.b_stats;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (List.length b.b_front));
  List.iter
    (fun (id, delay, power) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int id);
      Buffer.add_char buf ' ';
      add_float_bits buf delay;
      Buffer.add_char buf ' ';
      add_float_bits buf power)
    b.b_front

let parse_block ~stats_width payload =
  match String.split_on_char ' ' payload with
  | "blk" :: index :: rest when List.length rest >= stats_width + 1 ->
    Option.bind (int_of_string_opt index) (fun b_index ->
        let stats_l, rest = List.filteri (fun i _ -> i < stats_width) rest,
                            List.filteri (fun i _ -> i >= stats_width) rest in
        let stats = List.filter_map float_of_bits_hex stats_l in
        if List.length stats <> stats_width then None
        else
          match rest with
          | count :: triples -> (
            match int_of_string_opt count with
            | Some k when List.length triples = 3 * k ->
              let rec take acc = function
                | [] -> Some (List.rev acc)
                | id :: d :: p :: tl ->
                  Option.bind (int_of_string_opt id) (fun id ->
                      Option.bind (float_of_bits_hex d) (fun d ->
                          Option.bind (float_of_bits_hex p) (fun p ->
                              take ((id, d, p) :: acc) tl)))
                | _ -> None
              in
              Option.map
                (fun front ->
                  { b_index; b_stats = Array.of_list stats; b_front = front })
                (take [] triples)
            | _ -> None)
          | [] -> None)
  | _ -> None

(* Decode a stream log: meta, valid blocks (stopping at the first corrupt
   line), and the byte length of the trusted prefix. *)
let decode_stream ~path lines =
  match lines with
  | [] -> Error (Fault.bad_input ~context:("checkpoint " ^ path) "empty file")
  | header_line :: rest -> (
    match Option.bind (unframe header_line) parse_stream_header with
    | None ->
      Error
        (Fault.bad_input ~context:("checkpoint " ^ path) ~line:1
           "not a v3 streaming checkpoint (bad or corrupt header line)")
    | Some meta ->
      let n_blocks =
        if meta.sm_block_size <= 0 then 0
        else (meta.sm_length + meta.sm_block_size - 1) / meta.sm_block_size
      in
      let blocks = ref [] in
      let valid_bytes = ref (String.length header_line + 1) in
      (try
         List.iter
           (fun l ->
             match
               Option.bind (unframe l) (parse_block ~stats_width:meta.sm_stats_width)
             with
             | Some b when b.b_index >= 0 && b.b_index < n_blocks ->
               blocks := b :: !blocks;
               valid_bytes := !valid_bytes + String.length l + 1
             | _ -> raise Exit)
           rest
       with Exit -> ());
      Ok (meta, List.rev !blocks, !valid_bytes))

let load_stream path =
  match read_lines path with
  | exception Sys_error msg ->
    Error (Fault.bad_input ~context:("checkpoint " ^ path) msg)
  | lines ->
    Result.map (fun (meta, blocks, _) -> (meta, blocks)) (decode_stream ~path lines)

(* Open a stream log for appending, returning the blocks already present.
   A fresh (or empty) file gets the v3 header; an existing one must carry
   an identical meta record — resuming must not mix sweeps of different
   spaces, sub-ranges, block sizes or payload shapes. *)
let open_stream path ~(meta : stream_meta) =
  if meta.sm_stats_width <= 0 || meta.sm_block_size <= 0 then
    Error
      (Fault.bad_input ~context:("checkpoint " ^ path)
         "stream meta: stats width and block size must be positive")
  else
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    with
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Fault.bad_input ~context:("checkpoint " ^ path) (Unix.error_message err))
    | fd ->
      let header = framed (stream_header_payload meta) in
      let size = (Unix.fstat fd).st_size in
      (* A kill while the header was being written leaves a prefix of it
         and no blocks: start the log afresh rather than refuse it. *)
      let torn_header () =
        size < String.length header
        && String.starts_with ~prefix:(In_channel.with_open_bin path In_channel.input_all)
             header
      in
      if size = 0 || torn_header () then begin
        Unix.ftruncate fd 0;
        write_all fd header;
        let t = { fd; path; width = meta.sm_stats_width;
                  last_sync = Unix.gettimeofday () } in
        register t;
        Ok (t, [])
      end
      else begin
        match
          Result.bind
            (try Ok (read_lines path)
             with Sys_error msg ->
               Error (Fault.bad_input ~context:("checkpoint " ^ path) msg))
            (decode_stream ~path)
        with
        | Error ft ->
          Unix.close fd;
          Error ft
        | Ok (file_meta, _, _) when file_meta <> meta ->
          Unix.close fd;
          Error
            (Fault.bad_input ~context:("checkpoint " ^ path)
               (Printf.sprintf
                  "stream header mismatch: file is %d points of %S \
                   (block %d, offset %d, length %d, width %d); sweep wants \
                   %d points of %S (block %d, offset %d, length %d, width %d)"
                  file_meta.sm_n_points file_meta.sm_workload
                  file_meta.sm_block_size file_meta.sm_offset
                  file_meta.sm_length file_meta.sm_stats_width meta.sm_n_points
                  meta.sm_workload meta.sm_block_size meta.sm_offset
                  meta.sm_length meta.sm_stats_width))
        | Ok (_, blocks, valid_bytes) ->
          if (Unix.fstat fd).st_size > valid_bytes then
            Unix.ftruncate fd valid_bytes;
          let t = { fd; path; width = meta.sm_stats_width;
                    last_sync = Unix.gettimeofday () } in
          register t;
          Ok (t, blocks)
      end

let append_blocks t blocks =
  List.iter
    (fun b ->
      if Array.length b.b_stats <> t.width then
        Fault.raise_error
          (Fault.bad_input ~context:("checkpoint " ^ t.path)
             (Printf.sprintf "block stats width %d does not match file width %d"
                (Array.length b.b_stats) t.width)))
    blocks;
  let scratch = Buffer.create 512 in
  let buf = Buffer.create (512 * List.length blocks) in
  List.iter
    (fun b ->
      Buffer.clear scratch;
      add_block_payload scratch b;
      let payload = Buffer.contents scratch in
      Buffer.add_string buf (Crc32.to_hex (Crc32.string payload));
      Buffer.add_char buf ' ';
      Buffer.add_string buf payload;
      Buffer.add_char buf '\n')
    blocks;
  if Buffer.length buf > 0 then begin
    write_all t.fd (Buffer.contents buf);
    maybe_sync t
  end

(* The design-sweep view: a fixed 6-float payload with named fields.
   Kept as the primary interface for [Sweep]; it is a thin encode/decode
   shim over the vector records. *)

let vec_of_numbers (n : numbers) =
  [| n.nm_cpi; n.nm_cycles; n.nm_watts; n.nm_seconds; n.nm_energy_j;
     n.nm_ed2p |]

let numbers_of_vec v =
  if Array.length v <> numbers_width then None
  else
    Some
      { nm_cpi = v.(0); nm_cycles = v.(1); nm_watts = v.(2);
        nm_seconds = v.(3); nm_energy_j = v.(4); nm_ed2p = v.(5) }

let vec_entry_of_entry (e : entry) =
  { v_index = e.e_index; v_result = Result.map vec_of_numbers e.e_result }

let entry_of_vec_entry (e : vec_entry) =
  match e.v_result with
  | Error ft -> Some { e_index = e.v_index; e_result = Error ft }
  | Ok v ->
    Option.map
      (fun n -> { e_index = e.v_index; e_result = Ok n })
      (numbers_of_vec v)

let open_ path ~n_configs ~workload =
  open_vec path ~n_configs ~width:numbers_width ~workload

let append t entries = append_vec t (List.map vec_entry_of_entry entries)

let load path =
  Result.bind (load_vec path) (fun (n, width, w, entries) ->
      if width <> numbers_width then
        Error
          (Fault.bad_input ~context:("checkpoint " ^ path)
             (Printf.sprintf
                "payload width %d is not a design-sweep log (width %d)" width
                numbers_width))
      else Ok (n, w, List.filter_map entry_of_vec_entry entries))
