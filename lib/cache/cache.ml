type t = {
  n_sets : int;
  assoc : int;
  line_shift : int;
  (* n_sets * assoc line numbers, each set's ways most recent first, so
     its last way is the LRU victim; -1 = invalid, and invalid ways are
     always last. *)
  tags : int array;
}

type outcome = Hit | Miss

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let create ?(name = "cache") (lvl : Uarch.cache_level) =
  let n_lines = max 1 (lvl.size_bytes / lvl.line_bytes) in
  let assoc = max 1 (min lvl.assoc n_lines) in
  let n_sets = max 1 (n_lines / assoc) in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Cache.create: %s (%d bytes, %d-way, %d-byte lines) has %d sets; the \
          set count must be a power of two"
         name lvl.size_bytes lvl.assoc lvl.line_bytes n_sets);
  {
    n_sets;
    assoc;
    line_shift = log2 lvl.line_bytes;
    tags = Array.make (n_sets * assoc) (-1);
  }

let line_of t addr = addr asr t.line_shift

(* Multiplicative (Fibonacci) hash: the synthetic workloads place their
   structures in widely-spaced regions, so plain low-bit indexing would put
   whole regions in one set.  Real cache hashing aims for the same uniform
   spread (§4.2), which is also what StatStack's fully-associative
   approximation assumes. *)
let set_of t line =
  let h = line * 0x9E3779B97F4A7C1 in
  (h lxor (h asr 29)) land (t.n_sets - 1)

(* The way of [line] in the set at [base], searching from way [w]; -1. *)
let rec find_way t base line w =
  if w = t.assoc then -1
  else if t.tags.(base + w) = line then w
  else find_way t base line (w + 1)

(* Puts [line] in the first way of the set at [base], moving ways 0 to
   [w - 1] down one: [line] was in way [w], or [w] is the last way, whose
   line (if any) is evicted.  A loop, not [Array.blit], which calls
   [caml_modify] per element on a major-heap array. *)
let promote t base w line =
  let tags = t.tags in
  for i = base + w downto base + 1 do
    tags.(i) <- tags.(i - 1)
  done;
  tags.(base) <- line

let access t addr =
  let line = line_of t addr in
  let base = set_of t line * t.assoc in
  let w = find_way t base line 0 in
  if w < 0 then begin
    promote t base (t.assoc - 1) line;
    Miss
  end
  else begin
    if w > 0 then promote t base w line;
    Hit
  end

let probe t addr =
  let line = line_of t addr in
  let base = set_of t line * t.assoc in
  find_way t base line 0 <> -1
