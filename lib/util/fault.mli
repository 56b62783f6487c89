(** Structured faults: the error currency of the robustness layer.

    Everything that can go wrong while loading user input or evaluating a
    design point is classified into one of three shapes, so callers can
    isolate, report and (for sweeps) checkpoint failures without losing
    the successful work around them:

    - [Bad_input]: malformed or inconsistent external data (a corrupt
      profile file, a bad checkpoint line, an unknown config name), with
      enough context to point at the offending line.
    - [Numeric]: an evaluation that completed but produced a non-finite
      or otherwise impossible number (NaN CPI, negative cycles).
    - [Worker_crash]: an exception escaping a worker, captured with its
      backtrace instead of aborting the whole batch.
    - [Timeout]: the work was admitted but its deadline passed before
      (or while) it ran — the serving layer's per-request deadline
      outcome, first-class so it survives logs and wire replies.
    - [Overload]: the work was never admitted — shed by a bounded queue,
      a degraded-mode policy, or a draining shutdown. *)

type t =
  | Bad_input of { context : string; line : int option; message : string }
  | Numeric of string
  | Worker_crash of exn * Printexc.raw_backtrace
  | Timeout of string
  | Overload of string

exception Error of t
(** The exception form, for boundaries that still raise. *)

val bad_input : ?line:int -> context:string -> string -> t
val numeric : string -> t
val worker_crash : exn -> Printexc.raw_backtrace -> t
val timeout : string -> t
val overload : string -> t

val to_string : t -> string
(** One-line human-readable rendering (context, line, message). *)

val tag : t -> string
(** Stable short kind name: ["bad-input"], ["numeric"], ["crash"],
    ["timeout"] or ["overload"]. *)

val to_line : t -> string
(** [tag ^ " " ^ to_string ft] with newlines flattened — the
    checkpoint-log and wire encoding.  A [Worker_crash] loses its
    exception identity and backtrace (they cannot round-trip through a
    text line). *)

val of_line : tag:string -> string -> t option
(** Inverse of [to_line] for rendering: [to_string] of the result equals
    [to_string] of the fault [to_line] was given (newlines flattened).
    A bad input comes back with its line folded into its context, a
    crash as an exception that prints as the original one did.  [None]
    on an unknown tag. *)

val raise_error : t -> 'a
(** Raise the fault: a [Worker_crash] re-raises the original exception
    with its original backtrace, everything else raises {!Error}. *)

val or_raise : ('a, t) result -> 'a

val protect : context:string -> (unit -> 'a) -> ('a, t) result
(** Run [f], mapping any escaping exception to [Bad_input] with the given
    context.  For wrapping parsers and I/O, not worker fan-out (use
    [Parallel.map_result] there, which classifies as [Worker_crash]). *)
