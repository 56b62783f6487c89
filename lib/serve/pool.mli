(** Supervised worker pool with bounded admission and graceful
    degradation — the daemon's fault bulkhead.

    Requests are thunks run on worker {e domains}.  The admission queue
    is bounded and sheds rather than blocks: a full queue is an explicit
    {!Fault.Overload} back to the client, never an unbounded backlog.
    A thunk that raises kills only its worker; a supervisor thread joins
    the dead domain and respawns it after a deterministic exponential
    backoff (the {!Retry} schedule), so a crash storm cannot spin the
    pool hot.  Crashes are also watched through a sliding window: too
    many within it trips {e degraded mode}, during which heavy work
    (batch sweeps) is shed with [Overload] while cheap point queries
    keep flowing; the mode clears by cooldown.

    Per-request isolation is the {e caller's} job: a well-behaved job
    catches its own exceptions and replies with a fault.  Only
    deliberately fatal exceptions (fault injection, genuine bugs) escape
    and exercise the supervisor. *)

type t

type config = {
  workers : int;
  queue_capacity : int;
  degraded_crash_threshold : int;
      (** crashes within [degraded_window_s] that trip degraded mode *)
  degraded_window_s : float;
  degraded_cooldown_s : float;
}

val create : config -> t

val submit : t -> heavy:bool -> (unit -> unit) -> (unit, Fault.t) result
(** Enqueue a job.  Fail-fast [Error (Overload _)] when the queue is
    full, the pool is draining, or [heavy] work arrives in degraded
    mode.  Never blocks. *)

type stats = {
  queue_depth : int;
  inflight : int;
  submitted : int;
  completed : int;
  shed : int;  (** submissions rejected with [Overload] *)
  crashes : int;
  respawns : int;
  degraded_entries : int;  (** times degraded mode tripped *)
  degraded_now : bool;
  workers : int;
}

val stats : t -> stats

val drain : t -> timeout_s:float -> bool
(** Stop admitting and wait for the queue and all in-flight jobs to
    finish; [false] when the timeout expires first (work may still be
    running).  Idempotent. *)

val shutdown : t -> unit
(** [drain] (bounded) then stop and join every worker domain and the
    supervisor.  The pool is unusable afterwards. *)
