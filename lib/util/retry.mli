(** Bounded retry with a deterministic exponential-backoff schedule.

    Transient syscall failures ([EINTR] from a signal, [EAGAIN] /
    [EWOULDBLOCK] from a socket timeout or a momentarily full pipe) are
    facts of life for a long-running daemon and for checkpointed sweeps
    that field operator signals.  This module gives every such site one
    policy instead of ad-hoc loops:

    - the schedule is {e deterministic and jitterless} — the same attempt
      number always waits the same time, so behaviour under test and
      under incident is identical and reproducible;
    - retries are {e bounded} — a persistently failing descriptor
      surfaces the original exception instead of hanging the caller;
    - [EINTR] retries immediately (the interrupted call did no work and
      waiting would only delay signal-heavy workloads), while
      [EAGAIN]/[EWOULDBLOCK] back off exponentially. *)

val backoff_s : attempt:int -> float
(** Deterministic wait before retry number [attempt] (counted from 0):
    [base * 2^attempt] capped at 100 ms, with [base] = 1 ms.  No jitter
    by design. *)

val is_transient : exn -> bool
(** [Unix_error (EINTR | EAGAIN | EWOULDBLOCK, _, _)]. *)

val with_retries : ?attempts:int -> what:string -> (unit -> 'a) -> 'a
(** Run [f], retrying transient Unix errors: [EINTR] immediately (up to
    1024 times), [EAGAIN]/[EWOULDBLOCK] after the deterministic backoff
    (up to [attempts] sleeps, default 8).  Any other exception, or a transient one
    that survives the budget, is re-raised unchanged.  [what] names the
    operation for the exhaustion diagnostic. *)

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read] under {!with_retries}. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** Write the whole range, retrying transient failures between partial
    writes; raises the underlying [Unix_error] once the budget is spent. *)

val fsync : Unix.file_descr -> unit
(** [Unix.fsync] under {!with_retries} ([EINTR] on fsync is rare but
    real on some filesystems). *)
