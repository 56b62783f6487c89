(* Slot [i] is words [2 * (i land 31)] (key) and [2 * (i land 31) + 1]
   (value) of page [i lsr 5]. *)
let page_shift = 5
let page_slots = 1 lsl page_shift
let empty = min_int

type t = {
  mutable pages : int array array;
  mutable mask : int;  (* slots - 1 *)
  mutable count : int;
}

let new_pages slots =
  Array.init (slots / page_slots) (fun _ -> Array.make (2 * page_slots) empty)

let create n =
  let slots = ref page_slots in
  while !slots < 2 * n do
    slots := 2 * !slots
  done;
  { pages = new_pages !slots; mask = !slots - 1; count = 0 }

let length t = t.count

let home t key =
  let h = key * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land t.mask

(* Stores [v] under [key] from slot [i] on, or [v lor] the old value when
   [merge]; returns the old value, or -1. *)
let rec probe t key v merge i =
  let page = t.pages.(i lsr page_shift) in
  let o = (i land (page_slots - 1)) lsl 1 in
  let k = page.(o) in
  if k = key then begin
    let prev = page.(o + 1) in
    page.(o + 1) <- (if merge then prev lor v else v);
    prev
  end
  else if k = empty then begin
    page.(o) <- key;
    page.(o + 1) <- v;
    -1
  end
  else probe t key v merge ((i + 1) land t.mask)

let grow t =
  let old = t.pages in
  t.pages <- new_pages (2 * (t.mask + 1));
  t.mask <- (2 * (t.mask + 1)) - 1;
  Array.iter
    (fun page ->
      for s = 0 to page_slots - 1 do
        let k = page.(2 * s) in
        if k <> empty then ignore (probe t k page.((2 * s) + 1) false (home t k))
      done)
    old

(* Counts the key [probe] just added, growing the table past half full. *)
let added t =
  t.count <- t.count + 1;
  if 2 * t.count > t.mask + 1 then grow t

let exchange t key v =
  if key = empty then invalid_arg "Reuse_table.exchange: key min_int";
  let prev = probe t key v false (home t key) in
  if prev < 0 then added t;
  prev

let or_update t key bits =
  if key = empty then invalid_arg "Reuse_table.or_update: key min_int";
  let prev = probe t key bits true (home t key) in
  if prev < 0 then (added t; 0) else prev
