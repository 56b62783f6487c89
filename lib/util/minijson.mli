(** The repo's JSON value, its reader and its printer.

    Every machine-readable report ([BENCH_*.json], the [mipp validate]
    accuracy report, the calibration training matrix) is built as a
    {!t} and written by {!print}; {!parse} reads the same subset back —
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

(** {1 Accessors}

    All partial accessors return [option]; use {!member_exn} and friends
    only inside a [Fault.protect]-style wrapper. *)

val member : string -> t -> t option
(** First member with that key of an [Obj]; [None] otherwise. *)

val to_list : t -> t list option
val to_float : t -> float option
(** [Num] directly, or a [Str] holding a float literal — the repo's
    reports write bit-exact floats as ["0x1.5p3"]-style hex strings,
    which JSON numbers cannot carry. *)

val to_string : t -> string option
val to_int : t -> int option
