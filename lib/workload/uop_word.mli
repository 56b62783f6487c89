(** The packed form of one micro-op: three words.

    - [static_id lsl 6 lor begins_instruction lsl 5 lor taken lsl 4 lor
      class_index];
    - [dep1 lsl 31 lor dep2];
    - [addr].

    That is 24 bytes per micro-op on a 64-bit host.  {!Workload_gen}
    writes this form, {!Uop_stream} holds it in chunks, and the simulator
    and the profiler read it without building {!Isa.uop} records. *)

val words : int
(** Words per micro-op (3). *)

val write :
  int array ->
  int ->
  cls:int ->
  begins:bool ->
  taken:bool ->
  static_id:int ->
  dep1:int ->
  dep2:int ->
  addr:int ->
  unit
(** [write buf w ...] stores one micro-op at word offset [w]; [cls] is
    the {!Isa.class_index}.  Raises [Invalid_argument] naming the field,
    and never truncates, when [dep1] or [dep2] is negative or at least
    {!max_dep}, or [static_id] is negative or at least
    {!max_static_id}. *)

val pack : int array -> int -> Isa.uop -> unit
(** {!write} of a record's fields. *)

val decode : int -> int -> int -> Isa.uop
(** [decode w0 w1 w2] rebuilds the record {!pack} stored. *)

(** {1 Fields} *)

val class_index : int -> int
(** Of a word 0: the micro-op's {!Isa.class_index}. *)

val taken : int -> bool
(** Of a word 0. *)

val begins_instruction : int -> bool
(** Of a word 0. *)

val static_id : int -> int
(** Of a word 0. *)

val dep1 : int -> int
(** Of a word 1. *)

val dep2 : int -> int
(** Of a word 1. *)

(** {1 Limits} *)

val max_dep : int
(** [2^31]. *)

val max_static_id : int
(** [2^57]. *)
