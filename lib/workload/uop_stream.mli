(** Packed micro-op streams.

    A workload's dynamic micro-op stream packed three words per micro-op
    into chunks of {!chunk_uops} micro-ops, so it can be recorded once
    and replayed by every consumer instead of regenerated by each.  The
    words of micro-op [i] of a chunk are at [3 * i], [3 * i + 1] and
    [3 * i + 2]:

    - [static_id lsl 6 lor begins_instruction lsl 5 lor taken lsl 4 lor
      class_index];
    - [dep1 lsl 31 lor dep2];
    - [addr].

    That is 24 bytes per micro-op on a 64-bit host.

    The stream is filled from {!Workload_gen.next_instruction}.  A
    recorded stream is read-only: any number of cursors, in any number of
    domains, may replay it at once. *)

type t
(** A recorded stream: every chunk full but the last, which is trimmed
    to its exact size. *)

val chunk_uops : int
(** Micro-ops per chunk (4096). *)

val record : Workload_spec.t -> seed:int -> n_instructions:int -> t
(** The first [n_instructions] instructions of the workload's stream
    from a fresh {!Workload_gen.create}[ spec ~seed]. *)

val of_list : Isa.uop list -> t
(** A stream holding the given micro-ops, in order, named [""]. *)

val name : t -> string
(** The workload's name. *)

(** {1 Reading}

    A cursor walks a stream front to back.  The current micro-op's three
    words are read with {!word0}, {!word1} and {!word2} and decoded with
    the field accessors below; none of them allocates. *)

type cursor

val cursor : t -> cursor
(** Replays a recorded stream from its first micro-op. *)

val window : Workload_spec.t -> seed:int -> n_instructions:int -> cursor
(** The stream {!record} would hold, generated one chunk at a time into
    a single reused chunk, so memory stays bounded for any
    [n_instructions]. *)

val at_end : cursor -> bool
(** [true] once every micro-op has been read.  Otherwise the cursor is
    on a micro-op (this may refill a window's chunk). *)

val advance : cursor -> unit
(** Moves past the current micro-op.  Only valid when [at_end] is
    [false]. *)

val word0 : cursor -> int
val word1 : cursor -> int
val word2 : cursor -> int

val class_index : int -> int
(** Of a {!word0}: the micro-op's {!Isa.class_index}. *)

val taken : int -> bool
(** Of a {!word0}. *)

val begins_instruction : int -> bool
(** Of a {!word0}. *)

val static_id : int -> int
(** Of a {!word0}. *)

val dep1 : int -> int
(** Of a {!word1}. *)

val dep2 : int -> int
(** Of a {!word1}. *)

(** {1 Limits}

    Packing raises [Invalid_argument] naming the field, and never
    truncates, for a micro-op whose [dep1] or [dep2] is negative or at
    least {!max_dep}, or whose [static_id] is negative or at least
    {!max_static_id}. *)

val max_dep : int
(** [2^31]. *)

val max_static_id : int
(** [2^57]. *)
