(* Lines ever filled, for cold-miss tracking: an open-addressed int set
   with linear probing.  Line numbers are non-negative, so -1 marks an
   empty slot (as it marks an invalid way in [tags]). *)
type line_set = { mutable keys : int array; mutable count : int }

let set_slot keys line =
  let h = line * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land (Array.length keys - 1)

let rec set_insert keys line i =
  let k = keys.(i) in
  if k = line then false
  else if k = -1 then (keys.(i) <- line; true)
  else set_insert keys line ((i + 1) land (Array.length keys - 1))

(* [set_add s line] adds [line]; true when it was not already present. *)
let set_add s line =
  let added = set_insert s.keys line (set_slot s.keys line) in
  if added then begin
    s.count <- s.count + 1;
    if 2 * s.count > Array.length s.keys then begin
      let old = s.keys in
      s.keys <- Array.make (2 * Array.length old) (-1);
      Array.iter (fun k -> if k <> -1 then ignore (set_insert s.keys k (set_slot s.keys k)))
        old
    end
  end;
  added

type t = {
  n_sets : int;
  assoc : int;
  line_shift : int;
  tags : int array;  (* n_sets * assoc line numbers; -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to [tags] *)
  seen : line_set;
  mutable clock : int;
  mutable n_accesses : int;
  mutable n_misses : int;
  mutable n_cold : int;
}

type outcome = Hit | Miss_cold | Miss_capacity

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
    stamps = Array.make (n_sets * assoc) 0;
    seen = { keys = Array.make 4096 (-1); count = 0 };
    clock = 0;
    n_accesses = 0;
    n_misses = 0;
    n_cold = 0;
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

let find_way t base line =
  let rec go w = if w = t.assoc then -1
    else if t.tags.(base + w) = line then w
    else go (w + 1)
  in
  go 0

let lru_way t base =
  let best = ref 0 in
  for w = 1 to t.assoc - 1 do
    if t.tags.(base + w) = -1 then (if t.tags.(base + !best) <> -1 then best := w)
    else if t.tags.(base + !best) <> -1 && t.stamps.(base + w) < t.stamps.(base + !best)
    then best := w
  done;
  !best

let touch t base w =
  t.clock <- t.clock + 1;
  t.stamps.(base + w) <- t.clock

(* Install [line] in the LRU way of its set; true on its first fill ever. *)
let install t base line =
  let w = lru_way t base in
  t.tags.(base + w) <- line;
  touch t base w;
  set_add t.seen line

let insert t line =
  let base = set_of t line * t.assoc in
  match find_way t base line with
  | -1 -> ignore (install t base line)
  | w -> touch t base w

let access t addr =
  let line = line_of t addr in
  let base = set_of t line * t.assoc in
  t.n_accesses <- t.n_accesses + 1;
  match find_way t base line with
  | -1 ->
    t.n_misses <- t.n_misses + 1;
    if install t base line then begin
      t.n_cold <- t.n_cold + 1;
      Miss_cold
    end
    else Miss_capacity
  | w ->
    touch t base w;
    Hit

let probe t addr =
  let line = line_of t addr in
  let base = set_of t line * t.assoc in
  find_way t base line <> -1

let fill t addr = insert t (line_of t addr)

let accesses t = t.n_accesses
let misses t = t.n_misses
let cold_misses t = t.n_cold

let reset_stats t =
  t.n_accesses <- 0;
  t.n_misses <- 0;
  t.n_cold <- 0
