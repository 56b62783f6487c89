type entry = {
  e_static : int;
  mutable e_last_addr : int;
  mutable e_stride : int;
  mutable e_confidence : int;
  mutable e_stamp : int;
}

(* Int-typed: Stdlib's [min]/[max] are polymorphic compares. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

type t = {
  enabled : bool;
  kind : Uarch.prefetcher_kind;
  capacity : int;
  page : int;
  table : (int, entry) Hashtbl.t;
  mutable clock : int;
  mutable n_lookups : int;
  mutable n_issued : int;
}

let create (p : Uarch.prefetcher) ~dram_page_bytes =
  {
    enabled = p.pf_enabled;
    kind = p.pf_kind;
    capacity = max 1 p.pf_table_entries;
    page = dram_page_bytes;
    table = Hashtbl.create 64;
    clock = 0;
    n_lookups = 0;
    n_issued = 0;
  }

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ e ->
      match !victim with
      | None -> victim := Some e
      | Some v -> if e.e_stamp < v.e_stamp then victim := Some e)
    t.table;
  match !victim with None -> () | Some v -> Hashtbl.remove t.table v.e_static

let confidence_threshold = 2

let observe t ~static_id ~addr =
  if not t.enabled then None
  else if t.kind = Uarch.Pf_next_line then begin
    (* Baseline comparator: always fetch the adjacent line (within the
       DRAM page). *)
    t.n_lookups <- t.n_lookups + 1;
    let target = (addr lor 63) + 1 in
    if target / t.page = addr / t.page then begin
      t.n_issued <- t.n_issued + 1;
      Some target
    end
    else None
  end
  else begin
    t.clock <- t.clock + 1;
    t.n_lookups <- t.n_lookups + 1;
    match Hashtbl.find_opt t.table static_id with
    | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      Hashtbl.replace t.table static_id
        { e_static = static_id; e_last_addr = addr; e_stride = 0; e_confidence = 0;
          e_stamp = t.clock };
      None
    | Some e ->
      let stride = addr - e.e_last_addr in
      if stride = e.e_stride && stride <> 0 then
        e.e_confidence <- imin 3 (e.e_confidence + 1)
      else begin
        e.e_stride <- stride;
        e.e_confidence <- 0
      end;
      e.e_last_addr <- addr;
      e.e_stamp <- t.clock;
      (* Look far enough ahead to leave the current line: small strides
         revisit their line several times, and prefetching within it is
         useless (the standard prefetch-distance refinement). *)
      let lookahead = imax 1 (64 / imax 1 (abs e.e_stride)) in
      let target = addr + (e.e_stride * lookahead) in
      let same_page = target / t.page = addr / t.page in
      if e.e_confidence >= confidence_threshold && e.e_stride <> 0 && same_page then begin
        t.n_issued <- t.n_issued + 1;
        Some target
      end
      else None
  end

let lookups t = t.n_lookups
let issued t = t.n_issued
