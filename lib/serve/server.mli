(** The [mipp serve] daemon.

    Listens on a Unix socket and/or loopback TCP, speaks the
    {!Protocol} frame format, and routes queries to a supervised
    {!Pool} over a {!Profile_cache}.  The fault policy, end to end:

    - malformed frames never raise: a CRC-corrupt frame gets a fault
      reply and the connection continues (the stream is still in sync);
      desynchronized garbage gets a best-effort fault reply and the
      connection closes; the daemon survives both.
    - a poisoned query (injected crash) kills one worker domain; the
      supervisor respawns it with backoff, and repeated crashes trip
      degraded mode (heavy requests shed, point queries served).
    - a full admission queue sheds with {!Fault.Overload}; an expired
      per-request deadline answers {!Fault.Timeout}.
    - [stop] (wired to SIGTERM) stops accepting, drains queued and
      in-flight requests so none are lost, then closes connections. *)

type config = {
  socket_path : string option;
  tcp_port : int option;  (** bound on 127.0.0.1 *)
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  max_connections : int;
  recv_timeout_s : float;  (** slow-loris guard, per connection *)
  send_timeout_s : float;
  max_sweep_points : int;  (** per-request batch cap *)
  drain_timeout_s : float;
  fault_injection : bool;  (** honour the [crash] op *)
  degraded_crash_threshold : int;
  degraded_window_s : float;
  degraded_cooldown_s : float;
  adjust : Sweep.adjust option;
      (** the correction every [predict] and [sweep] reply goes through
          ({!Sweep.model_eval}); with the calibrator's hook, replies carry
          the calibrated CPI stack and the cycle-derived metrics
          re-derived from the calibrated CPI *)
}

val default_config : config
(** No listeners set; two workers, queue 64, cache 8, 64 connections,
    10 s receive / 5 s send timeouts, 4096-point sweep cap, 5 s drain,
    fault injection off, no adjustment. *)

type t

val create : config -> (t, Fault.t) result
(** Bind the configured listeners.  [Bad_input] when neither listener
    is configured or a bind fails (stale socket paths are unlinked
    first). *)

val run : t -> unit
(** Serve until [stop]: the calling thread becomes the accept loop.
    On exit the pool has drained (bounded by [drain_timeout_s]), all
    connection threads have been joined and every descriptor is
    closed. *)

val stop : t -> unit
(** Request shutdown; safe from a signal handler or another thread.
    [run] then drains and returns. *)

val start : config -> (t, Fault.t) result
(** [create] plus [run] on a background thread — the in-process form
    used by tests and benchmarks.  Shut down with [stop] followed by
    [join]. *)

val join : t -> unit
(** Wait for a [start]ed server's [run] to return. *)
