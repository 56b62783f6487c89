(** Hardware prefetchers (§4.9): the per-PC stride prefetcher the paper
    models, plus a next-line baseline for comparison experiments.

    Tracks the last address and stride of a bounded number of static loads.
    When a static load repeats its stride (confidence threshold), the next
    address is predicted.  Predictions never cross a DRAM page boundary and
    a load whose table entry was evicted between recurrences cannot trigger
    a prefetch — the two effects the analytical prefetch model also
    captures. *)

type t

val create : Uarch.prefetcher -> dram_page_bytes:int -> t

val observe : t -> static_id:int -> addr:int -> int option
(** Update the table with a demand access; returns the address to prefetch
    when the entry is confident, the stride is non-zero and the target
    stays within the DRAM page.  Always returns [None] when the prefetcher
    is disabled in the configuration. *)

val issued : t -> int
