(** Append-only, crash-tolerant checkpoint log.

    One format serves every sweep: a header line holding an opaque string
    that identifies the sweep, then one record per line.  Every line
    carries its own CRC-32, so a torn tail write (a kill mid-append)
    invalidates only the last record: reopening truncates it away and the
    resumed sweep re-evaluates what it held.  Records are written in small
    batches and fsync'd at most once per second (group commit), so a
    killed process loses at most the in-flight batch and a power failure
    at most the last second of progress.

    What a record holds is up to the sweep: one point's index and outcome
    as a float vector ({!encode_point}), the one record codec of every
    sweep.  Floats are stored as raw IEEE-754 bit patterns, which makes a
    kill-and-resume sweep bit-identical to an uninterrupted one. *)

type t
(** An open checkpoint file, ready for appending. *)

val open_ :
  string -> header:string -> decode:(string -> 'a option) ->
  (t * 'a list, Fault.t) result
(** [open_ path ~header ~decode] creates [path] holding [header] (which
    must not contain a newline), or reopens it and returns the records it
    already holds, in file order.

    On reopen the stored header must be byte-identical to [header]:
    anything else — another sweep, another range or block size, a log in
    an older format — is refused with [Fault.Bad_input], never misparsed; its
    message names that cause and the remedy (delete the log or choose
    another [--checkpoint] path), then both raw headers.  A file
    holding only a prefix of [header] (a kill while the header was being
    written) restarts as a fresh log.  Records are trusted up to the
    first line whose CRC fails, that [decode] rejects, or that has no
    terminating newline; that line and everything after it is truncated
    away, so new records never get glued onto a partial line. *)

val append : t -> string list -> unit
(** Append record payloads (no newlines) in one write, fsync'ing at most
    once per second (group commit).  Raises [Fault.Error] on a failed
    write. *)

val close : t -> unit

val sync_all : unit -> unit
(** Fsync every checkpoint currently open in this process.  Safe to call
    from a signal handler racing normal operation: per-handle failures
    (a log closed concurrently) are swallowed — the per-line CRCs make
    any torn tail harmless on the next open.  This is what lets a
    SIGTERM'd [mipp sweep]/[mipp validate] guarantee the log is durable
    before exiting. *)

val run_id : workload:string -> string list -> string
(** [run_id ~workload inputs] names a run in a checkpoint header: the
    workload name, a space and the hex MD5 digest of [inputs], every
    input the run's results depend on, serialised (profile bytes, seed,
    options, swept points, calibration).  Runs that differ in any input
    get different names, so the log of one is refused by the other
    rather than resumed. *)

(** {1 Point records}

    One record per evaluated point: its index and its outcome as a flat
    float vector.  Failed points are recorded too, so a resume under
    keep-going does not re-run known-bad points.  Every caller records
    its points this way: a streaming sweep's point is one index block. *)

val point_header : workload:string -> n_points:int -> string
(** [workload] is the run's name, normally built by {!run_id}. *)

val encode_point : int -> (float array, Fault.t) result -> string
(** [encode_point index result] is the record of point [index]. *)

val decode_point :
  n_points:int -> string -> (int * (float array, Fault.t) result) option
(** Inverse of {!encode_point}; [None] for a malformed record or an index
    outside [0, n_points).  The vector may have any length: its shape is
    the caller's to check, inside the [decode] it hands {!open_}, so a
    record of the wrong shape ends the trusted prefix. *)
