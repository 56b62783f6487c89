type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 64 0; len = 0 }

let size t = t.len
let is_empty t = t.len = 0

let grow t =
  let bigger = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

let push t v =
  if t.len = Array.length t.data then grow t;
  let i = ref t.len in
  t.len <- t.len + 1;
  t.data.(!i) <- v;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.data.(parent) > t.data.(!i) then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let min_elt t =
  if t.len = 0 then invalid_arg "Int_heap.min_elt: empty heap";
  t.data.(0)

let pop t =
  if t.len = 0 then invalid_arg "Int_heap.pop: empty heap";
  let result = t.data.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.data.(0) <- t.data.(t.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && t.data.(l) < t.data.(!smallest) then smallest := l;
      if r < t.len && t.data.(r) < t.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.data.(!smallest) in
        t.data.(!smallest) <- t.data.(!i);
        t.data.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  result

let pop_while_le t v =
  let count = ref 0 in
  while t.len > 0 && t.data.(0) <= v do
    ignore (pop t);
    incr count
  done;
  !count

