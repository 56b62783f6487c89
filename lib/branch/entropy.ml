type cell = { mutable taken : int; mutable total : int }
type history = { mutable h : int }

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

type t = {
  history_bits : int;
  (* static_id lsl history_bits lor history -> outcome counts *)
  counts : cell Itbl.t;
  (* static_id -> current local history *)
  histories : history Itbl.t;
  mutable observed : int;
}

let create ?(history_bits = 8) () =
  { history_bits; counts = Itbl.create 1024; histories = Itbl.create 256;
    observed = 0 }

(* The history register of [static_id], created empty on first sight.
   Keys pack [static_id] above [history_bits] history bits, so the id
   must leave those bits free. *)
let history t static_id =
  if static_id < 0 || static_id > max_int asr t.history_bits then
    invalid_arg
      (Printf.sprintf "Entropy: static_id %d does not fit beside %d history bits"
         static_id t.history_bits);
  match Itbl.find t.histories static_id with
  | r -> r
  | exception Not_found ->
    let r = { h = 0 } in
    Itbl.add t.histories static_id r;
    r

let shift_in t r taken =
  r.h <- ((r.h lsl 1) lor Bool.to_int taken) land ((1 lsl t.history_bits) - 1)

let observe t ~static_id ~taken =
  let r = history t static_id in
  let key = (static_id lsl t.history_bits) lor r.h in
  let cell =
    match Itbl.find t.counts key with
    | c -> c
    | exception Not_found ->
      let c = { taken = 0; total = 0 } in
      Itbl.add t.counts key c;
      c
  in
  cell.total <- cell.total + 1;
  if taken then cell.taken <- cell.taken + 1;
  shift_in t r taken;
  t.observed <- t.observed + 1

let prime t ~static_id ~taken = shift_in t (history t static_id) taken

let merge a b =
  if a.history_bits <> b.history_bits then
    invalid_arg "Entropy.merge: history_bits mismatch";
  let t = create ~history_bits:a.history_bits () in
  let accumulate src =
    Itbl.iter
      (fun key cell ->
        match Itbl.find_opt t.counts key with
        | Some c ->
          c.taken <- c.taken + cell.taken;
          c.total <- c.total + cell.total
        | None -> Itbl.add t.counts key { taken = cell.taken; total = cell.total })
      src.counts;
    t.observed <- t.observed + src.observed
  in
  accumulate a;
  accumulate b;
  t

let linear_entropy t =
  if t.observed = 0 then 0.0
  else
    (* Sum in sorted-key order: float addition is not associative, so a
       table fold (whose order depends on insertion history) would make
       the entropy of a merged shard profile differ in the last ulp from
       the sequential one and break bit-identity of serialized profiles.
       The history sits below the static id in the key, so this is the
       (static id, history) order. *)
    let cells =
      Itbl.fold (fun key cell acc -> (key, cell) :: acc) t.counts []
      |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
    in
    let weighted =
      List.fold_left
        (fun acc (_, cell) ->
          (* Laplace-smoothed probability: the raw ratio drives the
             entropy of sparsely-observed patterns to 0 (a branch seen
             once per pattern always looks perfectly predictable),
             which destroys the linear relation to predictor miss
             rates; add-one smoothing removes that small-sample bias. *)
          let p =
            (float_of_int cell.taken +. 1.0) /. (float_of_int cell.total +. 2.0)
          in
          let e = 2.0 *. Float.min p (1.0 -. p) in
          acc +. (float_of_int cell.total *. e))
        0.0 cells
    in
    weighted /. float_of_int t.observed

let observed_branches t = t.observed
