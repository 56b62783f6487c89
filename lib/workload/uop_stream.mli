(** Packed micro-op streams.

    A workload's dynamic micro-op stream in the three-word form of
    {!Uop_word}, in chunks of {!chunk_uops} micro-ops, so it can be
    recorded once and replayed by every consumer instead of regenerated
    by each.  The words of micro-op [i] of a chunk are at [3 * i],
    [3 * i + 1] and [3 * i + 2].

    The stream is filled by {!Workload_gen.emit}, which writes straight
    into the chunk.  A recorded stream is read-only: any number of
    cursors, in any number of domains, may replay it at once. *)

type t
(** A recorded stream: every chunk full but the last, which is trimmed
    to its exact size. *)

val chunk_uops : int
(** Micro-ops per chunk (4096). *)

val record : Workload_spec.t -> seed:int -> n_instructions:int -> t
(** The first [n_instructions] instructions of the workload's stream
    from a fresh {!Workload_gen.create}[ spec ~seed]. *)

val of_list : Isa.uop list -> t
(** A stream holding the given micro-ops, in order, named [""].  Raises
    [Invalid_argument] for a field that does not fit
    ({!Uop_word.write}). *)

val name : t -> string
(** The workload's name. *)

(** {1 Reading}

    A cursor walks a stream front to back.  The current micro-op's three
    words are read with {!word0}, {!word1} and {!word2} and decoded with
    the field accessors of {!Uop_word}; none of them allocates. *)

type cursor

val cursor : t -> cursor
(** Replays a recorded stream from its first micro-op. *)

val window :
  ?start:int -> Workload_spec.t -> seed:int -> n_instructions:int -> cursor
(** The [n_instructions] instructions of the stream from instruction
    [start] (default 0) on, generated one chunk at a time into a single
    reused chunk, so memory stays bounded for any [n_instructions].  At
    the default [start] this is the stream {!record} would hold. *)

val at_end : cursor -> bool
(** [true] once every micro-op has been read.  Otherwise the cursor is
    on a micro-op (this may refill a window's chunk). *)

val advance : cursor -> unit
(** Moves past the current micro-op.  Only valid when [at_end] is
    [false]. *)

val word0 : cursor -> int
val word1 : cursor -> int
val word2 : cursor -> int
