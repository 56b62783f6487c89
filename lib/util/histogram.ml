(* Two-tier backend.  Profiling's inner loop is [add] on reuse distances,
   strides and spacings, which are overwhelmingly small non-negative ints;
   a dense count array for keys in [0, dense_limit) turns the seed's
   Hashtbl find/replace pair (hash + bucket walk + option allocation) into
   one bounds check and an array store.  Keys outside the dense range
   (negative strides, distant reuses) spill to a Hashtbl with the original
   semantics.  The dense tier grows geometrically on demand so the many
   tiny per-static-load histograms stay small. *)

type t = {
  mutable dense : int array; (* counts for keys [0, length dense) *)
  mutable dense_distinct : int;
  spill : (int, int) Hashtbl.t; (* keys < 0 or >= dense_limit only *)
  mutable total : int;
  (* Cached sorted view, invalidated by [add].  Reads from parallel
     domains (sweeps walk frozen histograms concurrently) can race on the
     cache, but every racer computes the same immutable list and a word
     store is atomic, so the race is benign. *)
  mutable sorted : (int * int) list option;
}

let dense_limit = 4096

let create () =
  {
    dense = [||];
    dense_distinct = 0;
    spill = Hashtbl.create 8;
    total = 0;
    sorted = None;
  }

let copy h =
  {
    dense = Array.copy h.dense;
    dense_distinct = h.dense_distinct;
    spill = Hashtbl.copy h.spill;
    total = h.total;
    sorted = h.sorted;
  }

let grow_dense h key =
  let len = Array.length h.dense in
  let target = ref (max 64 (2 * len)) in
  while !target <= key do
    target := 2 * !target
  done;
  let bigger = Array.make (min dense_limit !target) 0 in
  Array.blit h.dense 0 bigger 0 len;
  h.dense <- bigger

let add h ?(count = 1) key =
  if count < 0 then invalid_arg "Histogram.add: negative count";
  if count > 0 then begin
    h.sorted <- None;
    if key >= 0 && key < dense_limit then begin
      if key >= Array.length h.dense then grow_dense h key;
      let c = Array.unsafe_get h.dense key in
      if c = 0 then h.dense_distinct <- h.dense_distinct + 1;
      Array.unsafe_set h.dense key (c + count)
    end
    else begin
      let current = Option.value (Hashtbl.find_opt h.spill key) ~default:0 in
      Hashtbl.replace h.spill key (current + count)
    end;
    h.total <- h.total + count
  end

let count h key =
  if key >= 0 && key < dense_limit then
    if key < Array.length h.dense then Array.unsafe_get h.dense key else 0
  else Option.value (Hashtbl.find_opt h.spill key) ~default:0

let total h = h.total

let distinct h = h.dense_distinct + Hashtbl.length h.spill

let is_empty h = h.total = 0

let compute_sorted h =
  let dense = ref [] in
  for k = Array.length h.dense - 1 downto 0 do
    let c = Array.unsafe_get h.dense k in
    if c > 0 then dense := (k, c) :: !dense
  done;
  if Hashtbl.length h.spill = 0 then !dense
  else begin
    let spill = Hashtbl.fold (fun k c acc -> (k, c) :: acc) h.spill [] in
    let neg, big = List.partition (fun (k, _) -> k < 0) spill in
    let sort = List.sort (fun (a, _) (b, _) -> compare a b) in
    (* Spill keys are < 0 or >= dense_limit, so the three runs concatenate
       into one sorted list without a merge. *)
    sort neg @ !dense @ sort big
  end

let to_sorted_list h =
  match h.sorted with
  | Some l -> l
  | None ->
    let l = compute_sorted h in
    h.sorted <- Some l;
    l

let iter h f = List.iter (fun (k, c) -> f k c) (to_sorted_list h)

let fold h ~init ~f =
  List.fold_left (fun acc (k, c) -> f acc k c) init (to_sorted_list h)

let mean h =
  if h.total = 0 then 0.0
  else
    let sum =
      fold h ~init:0.0 ~f:(fun acc k c ->
          acc +. (float_of_int k *. float_of_int c))
    in
    sum /. float_of_int h.total

let frequency h key =
  if h.total = 0 then 0.0 else float_of_int (count h key) /. float_of_int h.total

let fraction_above h threshold =
  if h.total = 0 then 0.0
  else
    let above =
      fold h ~init:0 ~f:(fun acc k c -> if k > threshold then acc + c else acc)
    in
    float_of_int above /. float_of_int h.total

let quantile_key h q =
  if h.total = 0 then invalid_arg "Histogram.quantile_key: empty histogram";
  if q <= 0.0 || q > 1.0 then invalid_arg "Histogram.quantile_key: q out of range";
  let target = q *. float_of_int h.total in
  let rec go acc = function
    | [] -> invalid_arg "Histogram.quantile_key: unreachable"
    | [ (k, _) ] -> k
    | (k, c) :: rest ->
      let acc = acc +. float_of_int c in
      if acc >= target then k else go acc rest
  in
  go 0.0 (to_sorted_list h)

let merge a b =
  let result = copy a in
  iter b (fun k c -> add result ~count:c k);
  result

let scale h factor =
  if factor < 0 then invalid_arg "Histogram.scale: negative factor";
  let result = create () in
  iter h (fun k c -> add result ~count:(c * factor) k);
  result

let normalize h =
  if h.total = 0 then []
  else
    let t = float_of_int h.total in
    List.map (fun (k, c) -> (k, float_of_int c /. t)) (to_sorted_list h)

let top_k h k =
  to_sorted_list h
  |> List.sort (fun (k1, c1) (k2, c2) ->
         if c1 <> c2 then compare c2 c1 else compare k1 k2)
  |> fun l -> List.filteri (fun i _ -> i < k) l
