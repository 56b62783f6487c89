(* One hash table from key to count.  A profile holds thousands of frozen
   histograms, nearly all with one or two keys, so storage follows the
   number of distinct keys rather than their magnitude. *)

type t = {
  counts : (int, int) Hashtbl.t;
  mutable total : int;
  (* Cached sorted view, invalidated by [add].  Reads from parallel
     domains (sweeps walk frozen histograms concurrently) can race on the
     cache, but every racer computes the same immutable list and a word
     store is atomic, so the race is benign. *)
  mutable sorted : (int * int) list option;
}

let create () = { counts = Hashtbl.create 8; total = 0; sorted = None }

let copy h = { counts = Hashtbl.copy h.counts; total = h.total; sorted = h.sorted }

let add h ?(count = 1) key =
  if count < 0 then invalid_arg "Histogram.add: negative count";
  if count > 0 then begin
    h.sorted <- None;
    let current = Option.value (Hashtbl.find_opt h.counts key) ~default:0 in
    Hashtbl.replace h.counts key (current + count);
    h.total <- h.total + count
  end

let count h key = Option.value (Hashtbl.find_opt h.counts key) ~default:0

let total h = h.total

let distinct h = Hashtbl.length h.counts

let is_empty h = h.total = 0

let compute_sorted h =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) h.counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

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
