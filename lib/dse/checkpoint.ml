(* Append-only checkpoint log.

   One record per line, each protected by its own CRC-32 so a torn tail
   write (process killed mid-append) invalidates only the last line:
   reopening stops at the first corrupt record and truncates it away,
   and the sweep simply re-evaluates what it held.

   Line format:    <crc32-hex8> <payload>\n
   Header payload: checkpoint 5 <header>
   Record payload: produced by the record codec below

   The header string is opaque here: the sweep builds it from everything
   that must match for its records to be reusable, and a reopen compares
   it byte for byte.  Logs of earlier formats (a "header <version>" line,
   or an older "checkpoint" tag) are refused by that comparison like any
   other foreign file.

   Result floats are stored as their raw IEEE-754 bit pattern, 16 hex
   digits: bit-exact by construction (including NaN payloads, which
   printf-style float formats lose), and an order of magnitude cheaper
   to serialize than printf [%h] — checkpointing sits on the sweep's
   critical path. *)

type t = { fd : Unix.file_descr; mutable last_sync : float }

let format_tag = "checkpoint 5 "

let add_framed buf payload =
  Buffer.add_string buf (Crc32.to_hex (Crc32.string payload));
  Buffer.add_char buf ' ';
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n'

let unframe line =
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    match Crc32.of_hex (String.sub line 0 8) with
    | None -> None
    | Some crc ->
      let payload = String.sub line 9 (String.length line - 9) in
      if Crc32.string payload = crc then Some payload else None

(* Group commit.  A completed [write] already survives the death of this
   process (the page cache persists it), so per-batch fsync buys nothing
   against kills — it only narrows the power-failure window, and at
   ~0.5 ms apiece it would dominate a fast analytical sweep.  So records
   are written per batch and fsync'd at most once per [sync_interval_s]:
   a power failure loses at most the last second of progress, and the
   per-line CRC catches any torn tail it leaves, truncated away on the
   next open. *)
let sync_interval_s = 1.0

let maybe_sync t =
  let now = Clock.now () in
  if now -. t.last_sync >= sync_interval_s then begin
    Retry.fsync t.fd;
    t.last_sync <- now
  end

(* ---- Signal-driven flushing ----

   Long sweeps field SIGTERM/SIGINT; the handler must be able to push
   every open checkpoint to disk before exiting, without knowing which
   logs the run has open.  [open_] registers each handle here; [close]
   unregisters it.  [sync_all] is best-effort by design: it runs from a
   signal handler racing normal operation, so a handle closed (EBADF) or
   mid-append under its feet must not turn a clean shutdown into a
   crash — the per-line CRCs already make a torn tail harmless. *)

let active : t list ref = ref []
let active_mutex = Mutex.create ()

let register t =
  Mutex.protect active_mutex (fun () -> active := t :: !active)

let unregister t =
  Mutex.protect active_mutex (fun () ->
      active := List.filter (fun u -> u != t) !active)

let sync t =
  Retry.fsync t.fd;
  t.last_sync <- Clock.now ()

let sync_all () =
  let snapshot = Mutex.protect active_mutex (fun () -> !active) in
  List.iter (fun t -> try sync t with _ -> ()) snapshot

(* Transient syscall failures (EINTR from an operator signal landing
   mid-append, EAGAIN from a momentarily saturated device) retry on the
   bounded deterministic schedule instead of killing the sweep — a
   checkpoint write is exactly the work we must not lose to a signal. *)
let write_buffer fd buf =
  Retry.write_all fd (Buffer.to_bytes buf) 0 (Buffer.length buf)

(* The records of [s] from byte [pos] on, decoded up to the first line
   whose CRC fails, that [decode] rejects, or that has no newline (a
   write cut short exactly before its '\n' still checks out, but the
   next append would be glued onto it).  Also returns the byte length of
   the trusted prefix. *)
let trusted_records s pos decode =
  let rec go pos acc =
    match String.index_from_opt s pos '\n' with
    | None -> (List.rev acc, pos)
    | Some nl -> (
      match Option.bind (unframe (String.sub s pos (nl - pos))) decode with
      | Some r -> go (nl + 1) (r :: acc)
      | None -> (List.rev acc, pos))
  in
  go pos []

let open_ path ~header ~decode =
  let fail msg = Error (Fault.bad_input ~context:("checkpoint " ^ path) msg) in
  if String.contains header '\n' then fail "header contains a newline"
  else
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    with
    | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)
    | fd -> (
      let header_buf = Buffer.create 128 in
      add_framed header_buf (format_tag ^ header);
      let header_line = Buffer.contents header_buf in
      let start records =
        let t = { fd; last_sync = Clock.now () } in
        register t;
        Ok (t, records)
      in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg ->
        Unix.close fd;
        fail msg
      | s when String.starts_with ~prefix:s header_line ->
        (* Empty, or a kill while the header was being written: a fresh
           log, not a corrupt one. *)
        Unix.ftruncate fd 0;
        write_buffer fd header_buf;
        start []
      | s when String.starts_with ~prefix:header_line s ->
        let records, valid =
          trusted_records s (String.length header_line) decode
        in
        if valid < String.length s then Unix.ftruncate fd valid;
        start records
      | s ->
        Unix.close fd;
        let first = List.hd (String.split_on_char '\n' s) in
        let remedy = "delete it or choose another --checkpoint path" in
        fail
          (match unframe first with
          | Some payload ->
            Printf.sprintf
              "this log was written by another run or an older format; %s \
               (file header %S, this run's %S)"
              remedy payload (format_tag ^ header)
          | None ->
            Printf.sprintf "not a checkpoint log, or its header is corrupt; %s"
              remedy))

(* One write per batch: a killed process loses at most the batch in
   flight, and the write is cheap enough to sit on the sweep's critical
   path. *)
let append t payloads =
  let buf = Buffer.create 4096 in
  List.iter (add_framed buf) payloads;
  if Buffer.length buf > 0 then begin
    write_buffer t.fd buf;
    maybe_sync t
  end

let close t =
  unregister t;
  maybe_sync t;
  Unix.close t.fd

(* ---- Record codec ----

   Header:  points <n_points> <run, OCaml-quoted>
   Record:  ok <index> <floats>
            err <index> <fault-line>   (see Fault.to_line)

   Floats are raw IEEE-754 bit patterns, 16 hex digits each; how many a
   record holds is the caller's to check.  <run> is the workload name, a
   space and the MD5 digest of the run's inputs (see [run_id]). *)

(* A digest of the inputs' digests: fixed-width parts need no framing
   to keep ["ab"; "c"] apart from ["a"; "bc"], and nothing is copied. *)
let run_id ~workload inputs =
  workload ^ " "
  ^ Digest.to_hex (Digest.string (String.concat "" (List.map Digest.string inputs)))

let hex_digits = "0123456789abcdef"

let add_float_bits buf f =
  let v = Int64.bits_of_float f in
  for i = 15 downto 0 do
    let nibble = Int64.to_int (Int64.shift_right_logical v (4 * i)) land 0xf in
    Buffer.add_char buf hex_digits.[nibble]
  done

let float_of_bits_hex s =
  if String.length s <> 16 then None
  else Option.map Int64.float_of_bits (Int64.of_string_opt ("0x" ^ s))

let point_header ~workload ~n_points = Printf.sprintf "points %d %S" n_points workload

let encode_point index result =
  match result with
  | Ok values ->
    let buf = Buffer.create (24 + (17 * Array.length values)) in
    Buffer.add_string buf "ok ";
    Buffer.add_string buf (string_of_int index);
    Array.iter
      (fun f ->
        Buffer.add_char buf ' ';
        add_float_bits buf f)
      values;
    Buffer.contents buf
  | Error ft -> Printf.sprintf "err %d %s" index (Fault.to_line ft)

let decode_point ~n_points payload =
  let in_range i = if i >= 0 && i < n_points then Some i else None in
  let rec floats acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | x :: tl -> Option.bind (float_of_bits_hex x) (fun f -> floats (f :: acc) tl)
  in
  match String.split_on_char ' ' payload with
  | "ok" :: index :: fields -> (
    match (Option.bind (int_of_string_opt index) in_range, floats [] fields) with
    | Some i, Some values -> Some (i, Ok values)
    | _ -> None)
  | "err" :: index :: tag :: rest ->
    Option.bind (Option.bind (int_of_string_opt index) in_range) (fun i ->
        Option.map
          (fun ft -> (i, Error ft))
          (Fault.of_line ~tag (String.concat " " rest)))
  | _ -> None
