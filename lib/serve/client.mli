(** Client side of the serve protocol — the engine of [mipp query],
    the serve tests and the serve benchmark.

    One [t] is one connection; requests carry monotonically increasing
    sequence numbers and replies are matched by them, so a single
    connection can be shared for pipelined calls.  A server-side fault
    comes back as [Error (Fault.t)] with the daemon's classification
    intact (an [Overload] shed on the server is an [Overload] here). *)

type t

val connect_unix : string -> (t, Fault.t) result
val connect_tcp : host:string -> port:int -> (t, Fault.t) result
val close : t -> unit

val fd : t -> Unix.file_descr
(** The raw descriptor, for tests that inject malformed bytes. *)

val ping : t -> (unit, Fault.t) result
val health : t -> ((string * string) list, Fault.t) result

val load : t -> string -> (string, Fault.t) result
(** Upload raw profile bytes; returns the server's content key. *)

type prediction = {
  pr_cpi : float;
  pr_cycles : float;
  pr_watts : float;
  pr_seconds : float;
  pr_energy_j : float;
  pr_ed2p : float;
  pr_stack : (string * float) list;  (** CPI-stack component -> CPI *)
}

val predict :
  t -> ?timeout_ms:int -> ?prefetch:bool -> profile:string ->
  config:string -> unit -> (prediction, Fault.t) result

type sweep_point = {
  sp_index : int;
  sp_cpi : float;
  sp_cycles : float;
  sp_watts : float;
  sp_seconds : float;
  sp_energy_j : float;
  sp_ed2p : float;
}

val sweep :
  t -> ?timeout_ms:int -> profile:string -> space:string -> offset:int ->
  limit:int -> unit -> (sweep_point list * int, Fault.t) result
(** Points in index order plus the server's faulted-point count. *)

val crash : t -> (unit, Fault.t) result
(** Fault injection: ask the serving worker to die after replying. *)
