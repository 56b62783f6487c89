(** The repo's JSON value, its reader and its printer.

    Every machine-readable document ([BENCH_*.json], the [mipp validate]
    accuracy report, the calibration training matrix and the calibration
    model) is built as a {!t} and written by {!print}; {!parse} reads the
    same subset back —
    objects, arrays, strings (with the standard escapes), numbers,
    booleans and null — without an external dependency.  Numbers are
    [float]; object member order is preserved both ways. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : context:string -> string -> (t, Fault.t) result
(** Parse one JSON document (trailing whitespace allowed, anything else
    after the value is an error).  Failures are [Fault.Bad_input] with
    the 1-based line of the offending byte. *)

val print : t -> string
(** The document with a two-space indent, one array item or object
    member per line, members in list order, and a trailing newline.
    Strings escape quote, backslash and ASCII control bytes; other bytes
    are written as they are.  Non-finite numbers print as [null],
    integral numbers below 2{^53} as integers, and any other number with
    [%.9g].  [parse (print v)] is [v] up to that rounding. *)

val int : int -> t
(** [Num] of an integer. *)

val hex : float -> t
(** [Str] of the float's ["%h"] hex literal, which {!to_float} reads
    back bit-exactly.  A document whose other numbers are integers
    below 2{^53} prints back byte for byte after {!parse}. *)

(** {1 Accessors}

    The partial accessors return [option]. *)

val member : string -> t -> t option
(** First member with that key of an [Obj]; [None] otherwise. *)

val to_list : t -> t list option
val to_float : t -> float option
(** [Num] directly, or a [Str] holding a float literal — the repo's
    reports write bit-exact floats as ["0x1.5p3"]-style hex strings,
    which JSON numbers cannot carry. *)

val to_string : t -> string option
val to_int : t -> int option

(** {1 Decoding}

    A document's reader walks the parsed value with the raising helpers
    below, inside {!decode}. *)

val decode : context:string -> string -> (t -> 'a) -> ('a, Fault.t) result
(** [decode ~context text read] parses [text] and applies [read] to it.
    A parse error, a {!fail} and any other exception [read] raises
    become [Fault.Bad_input] with [context]; a [Fault.Error] raised by
    [read] is returned as it is. *)

val fail : string -> 'a
(** Abandon the enclosing {!decode} with this message. *)

val need : string -> 'a option -> 'a
(** [need what v]: the value, or {!fail} with ["missing " ^ what]. *)

val field : string -> (t -> 'a option) -> t -> 'a
(** [field what conv json]: member [what] of [json] through [conv], or
    {!fail} naming it. *)
