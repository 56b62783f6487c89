(** Content-addressed LRU cache of prepared profiles.

    A [Load] request uploads raw profile bytes once; every later query
    names the profile by the MD5 hex digest of those bytes, so clients
    never resend multi-megabyte payloads and identical uploads from
    different clients share one cached entry.  Insertion parses,
    validates ({!Profile.validate} runs inside {!Profile_io.of_string})
    and {!Profile.prepare}s the profile, so the first query against it
    pays no StatStack construction cost.

    A profile owns every structure and memo derived from it, so
    evicting an entry just drops it: memory stays bounded by the
    capacity, and the survivors keep their structures.  All operations
    are mutex-protected: worker domains and connection threads share one
    cache. *)

type t

val create : capacity:int -> t
(** [capacity] is the maximum number of resident profiles (>= 1). *)

val key_of_bytes : string -> string
(** The content key: lowercase MD5 hex digest of the raw bytes. *)

val load : t -> string -> (string, Fault.t) result
(** Parse, validate, prepare and insert raw profile bytes; returns the
    content key.  Loading bytes already resident is a cheap no-op
    (refreshes recency).  Structured [Bad_input] on malformed bytes. *)

val find : t -> string -> (Profile.t, Fault.t) result
(** Look up by content key, refreshing recency.  [Bad_input] with an
    [unknown profile] message when absent (the client reloads). *)

type stats = {
  hits : int;
  misses : int;
  loads : int;  (** successful [load] calls that inserted a new entry *)
  evictions : int;
  resident : int;
}

val stats : t -> stats
