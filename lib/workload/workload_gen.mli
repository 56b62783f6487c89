(** Dynamic micro-op stream generation.

    Expands a {!Workload_spec.t} into a deterministic dynamic micro-op
    stream.  The stream is regenerable: two generators created with the same
    spec and seed produce identical streams, so the profiler and the
    cycle-level simulator walk the same "execution".  The generator writes
    each instruction's micro-ops straight into the packed form of
    {!Uop_word}, which the simulator and the profiler read through
    {!Uop_stream}: recorded once and replayed by every consumer, or
    generated one chunk at a time.

    Program structure: each phase owns [n_bodies] loop bodies of
    [body_size] static instructions.  A body executes repeatedly for
    [body_burst] dynamic instructions, then control moves to the next body;
    after [phase_length] instructions the next phase begins (phases cycle).
    Static instruction ids are stable across the whole run, so branch
    predictors, stride profiles and the prefetcher see recurring static
    instructions exactly as they would with a real binary. *)

type t

val create : Workload_spec.t -> seed:int -> t

val emit : t -> int array -> int -> int
(** [emit t buf w] writes the micro-ops of the next dynamic instruction,
    in program order and packed ({!Uop_word.write}), from word [w] of
    [buf], and returns how many it wrote, at most
    {!max_uops_per_instruction}.  Allocates nothing. *)

val max_uops_per_instruction : int
(** 2: [buf] needs this many micro-ops' words from [w] on. *)

val next_instruction : t -> Isa.uop list
(** Micro-ops of the next dynamic instruction, in program order: {!emit}
    decoded into records, for tests and benches. *)

val iter_uops : t -> n_instructions:int -> f:(Isa.uop -> unit) -> unit
(** Emit the micro-ops of the next [n_instructions] instructions, decoded
    as {!next_instruction} does. *)

val skip : t -> n_instructions:int -> unit
(** Fast-forward the stream without a consumer.  It still generates, so
    generator state stays identical to a consumed stream, but builds no
    micro-op records. *)

val fast_forward : t -> to_instruction:int -> unit
(** [fast_forward t ~to_instruction] advances the stream so the next
    instruction emitted is dynamic instruction [to_instruction] (0-based).
    Deterministic: a fresh generator fast-forwarded to [i] continues with
    exactly the stream a sequential walk reaches after [i] instructions —
    this is what lets sharded profiling workers regenerate their region
    from the shared seed.  Like {!skip}, it builds no micro-op records.
    Raises [Invalid_argument] if the stream is already past
    [to_instruction] (the generator cannot rewind). *)

val instructions_emitted : t -> int
val uops_emitted : t -> int

val instruction_bytes : int
(** Static code-address stride: instruction i of the program sits at
    address [static_id * instruction_bytes] for I-cache simulation. *)
