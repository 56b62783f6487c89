(* The splitmix64 state lives unboxed in an 8-byte buffer: a boxed
   [int64] field would be reallocated on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = Bytes.create 8 in
  Bytes.set_int64_ne s 0 (next_int64 t);
  s

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int non-negatively. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let[@inline] bernoulli t p = float t 1.0 < p

let[@inline] geometric_of_log t log_q =
  let u = float t 1.0 in
  let u = if u <= 0.0 then epsilon_float else u in
  int_of_float (Float.of_int 0 +. floor (log u /. log_q))

let[@inline] geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p >= 1.0 then 0 else geometric_of_log t (log (1.0 -. p))

let gaussian t ~mu ~sigma =
  let u1 = float t 1.0 and u2 = float t 1.0 in
  let u1 = if u1 <= 0.0 then epsilon_float else u1 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let choose_weighted t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose_weighted: empty array";
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 arr in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: weights sum to zero";
  let target = float t total in
  let rec go i acc =
    if i = Array.length arr - 1 then snd arr.(i)
    else
      let w, v = arr.(i) in
      let acc = acc +. w in
      if target < acc then v else go (i + 1) acc
  in
  go 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
