(** The one clock every timer reads: request deadlines, the daemon's
    uptime and crash window, checkpoint group commits and the elapsed
    times the CLI and the bench report.  It is monotonic: unlike the wall
    clock it never steps, so a deadline cannot expire early and an
    elapsed time or a rate is never negative. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin ([CLOCK_MONOTONIC]); only
    differences mean anything. *)
