(** Hardened profile serialization.

    The paper's released framework is split in two tools: AIP writes the
    application profile to disk (protobuf) once, PMT reads it back for
    every model evaluation.  This module provides the same separation
    with one compact binary format (version 3): [save] writes everything
    {!Profile.t} holds, [load] reconstructs it (lazy per-static-load
    StatStacks are rebuilt on demand).  The file is the magic [MIPB], the
    version, the fields (zigzag LEB128 varint integers, fixed 8-byte
    little-endian floats, histograms as sorted pairs) and a CRC-32
    trailer.  The bytes written for a profile are a pure function of its
    contents, so they double as its identity (checkpoint run ids, the
    serving cache key).

    Robustness contract:
    - [save] appends a trailing whole-file CRC-32; [load] verifies it
      before parsing, so truncation, torn writes and byte flips surface as
      one structured error up front.
    - [load] and [of_string] never raise on malformed input: every
      failure is an [Error (Fault.Bad_input _)] naming what was wrong.
      Corrupt length fields are bounded by the remaining input, so they
      cannot trigger giant allocations.
    - A file declaring a version newer than [binary_version] is rejected
      with a clean "newer version" error, and any other version with an
      "unsupported binary format version" one, never a parse crash.
    - Text profiles (versions 1 and 2, no [MIPB] magic) are refused with
      one error saying so; re-run [mipp profile] to write them again.
    - A structurally valid profile is additionally run through
      {!Profile.validate} so semantic corruption (negative counters, NaN
      scalars, inconsistent histogram mass) is caught at the I/O boundary. *)

val binary_version : int
(** Version of the format written by [save] (3). *)

val save : string -> Profile.t -> unit
(** [save path profile] writes the profile with its CRC trailer and
    fsyncs it; raises [Unix.Unix_error] on I/O failure. *)

val load : string -> (Profile.t, Fault.t) result
(** [Error (Fault.Bad_input _)] on unreadable files, checksum mismatch,
    version mismatch, parse errors and profiles failing
    {!Profile.validate}.  Never raises on bad input. *)

val to_binary_string : Profile.t -> string
(** The serialized form including the CRC trailer, for tests, uploads
    and digests. *)

val of_string : string -> (Profile.t, Fault.t) result
(** Parse the serialized form; same errors as [load]. *)
