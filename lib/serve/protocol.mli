(** Wire protocol of the model-serving daemon.

    Length-prefixed, CRC-framed messages over a byte stream (Unix socket
    or TCP).  Frame layout:

    {v
      bytes 0..3   magic "MIPQ"
      byte  4      protocol version (1)
      byte  5      kind: 'Q' request, 'R' reply
      bytes 6..9   payload length, little-endian uint32
      bytes 10..   payload
      last 4       CRC-32 (little-endian) of everything before it
    v}

    The payload is line-oriented [key value] text, except that a request
    carrying raw bytes (a profile upload) ends its header with
    [data <n>] followed by exactly [n] raw bytes.  Floats in replies are
    hex float literals ([%h]) so values round-trip bit-exactly.

    Malformed input is classified so the server can react precisely:
    a frame whose header or CRC is bad yields a structured
    [Fault.Bad_input] (context ["protocol"]) — never an exception — and
    the error distinguishes whether the stream is still in sync (bad CRC
    after a well-formed header: the bytes were consumed, the connection
    can continue) from desynchronized garbage (bad magic / implausible
    length: the connection must close after the fault reply). *)

val version : int

type kind = Request | Reply

(** {1 Messages} *)

type request =
  | Ping
  | Health
  | Load of string  (** raw profile bytes (text or binary format) *)
  | Predict of { rq_profile : string;  (** content hash from [Load] *)
                 rq_config : string;
                 rq_prefetch : bool }
  | Sweep of { rq_profile : string;
               rq_space : string;
               rq_offset : int;
               rq_limit : int }
  | Crash  (** fault injection: kills the worker that picks it up *)

type envelope = {
  rq_seq : int;  (** echoed verbatim in the reply *)
  rq_timeout_ms : int option;  (** per-request deadline *)
  rq_body : request;
}

type reply =
  | Ok_reply of { rp_op : string; rp_kv : (string * string) list }
  | Fault_reply of Fault.t

type reply_envelope = { rp_seq : int; rp_body : reply }

(** {1 Payload encoding} *)

val encode_request : envelope -> string
val decode_request : string -> (envelope, Fault.t) result

val encode_reply : reply_envelope -> string
val decode_reply : string -> (reply_envelope, Fault.t) result

(** {1 Framing} *)

val frame : kind -> string -> string
(** The full wire bytes of one message. *)

type frame_error =
  | Closed  (** clean EOF between frames *)
  | Desync of Fault.t
      (** unusable stream: bad magic/version/kind, implausible length,
          EOF or stall mid-frame — reply (best-effort) then close *)
  | Corrupt of Fault.t
      (** well-formed header but payload CRC mismatch: the declared
          bytes were consumed, the stream is still in sync — reply and
          keep the connection *)

val read_frame :
  ?should_stop:(unit -> bool) ->
  Unix.file_descr -> (kind * string, frame_error) result
(** Read one frame.  Blocking; honours the descriptor's receive timeout
    ([SO_RCVTIMEO]) as a slow-loris guard: a timeout while {e idle}
    (zero bytes of the next frame read) re-checks [should_stop] and
    keeps waiting (or returns [Closed] when stopping), a timeout
    {e mid-frame} is a [Desync].  A declared payload over 64 MiB is a
    [Desync] too: a corrupt or hostile length prefix must not trigger a
    giant allocation.  Never raises on malformed input. *)

val write_frame : Unix.file_descr -> kind -> string -> unit
(** Frame and send; transient syscall failures retry on the [Retry]
    schedule.  Raises [Unix.Unix_error] (e.g. [EPIPE]) when the peer is
    gone — the caller counts and drops. *)

val decode_frame : string -> (kind * string * int, Fault.t) result
(** Pure decoder for one complete frame at the head of a buffer:
    [Ok (kind, payload, bytes_consumed)].  For tests and fuzzing. *)

val float_kv : string -> float -> string * string
(** Key + hex-float value, the exact-round-trip reply encoding. *)
