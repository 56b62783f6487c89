type entry = { key : string; profile : Profile.t; mutable last_use : int }

type t = {
  capacity : int;
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;  (* logical time for LRU recency *)
  mutable hits : int;
  mutable misses : int;
  mutable loads : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  loads : int;
  evictions : int;
  resident : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Profile_cache.create: capacity < 1";
  {
    capacity;
    mutex = Mutex.create ();
    table = Hashtbl.create 16;
    clock = 0;
    hits = 0;
    misses = 0;
    loads = 0;
    evictions = 0;
  }

let key_of_bytes bytes = Digest.to_hex (Digest.string bytes)

let touch t entry =
  t.clock <- t.clock + 1;
  entry.last_use <- t.clock

(* Evict the least-recently-used entry.  A profile owns all its derived
   model state, so dropping the entry frees it and the survivors keep
   theirs. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some best when best.last_use <= e.last_use -> acc
        | _ -> Some e)
      t.table None
  in
  match victim with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.table e.key;
    t.evictions <- t.evictions + 1

let load t bytes =
  let key = key_of_bytes bytes in
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some entry ->
        touch t entry;
        Ok key
      | None ->
        (match Profile_io.of_string bytes with
         | Error _ as e -> e |> Result.map (fun _ -> key)
         | Ok profile ->
           if Hashtbl.length t.table >= t.capacity then evict_lru t;
           Profile.prepare profile;
           let entry = { key; profile; last_use = 0 } in
           touch t entry;
           Hashtbl.replace t.table key entry;
           t.loads <- t.loads + 1;
           Ok key))

let find t key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some entry ->
        touch t entry;
        t.hits <- t.hits + 1;
        Ok entry.profile
      | None ->
        t.misses <- t.misses + 1;
        Error
          (Fault.bad_input ~context:"serve"
             (Printf.sprintf "unknown profile %s (load it first)" key)))

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        loads = t.loads;
        evictions = t.evictions;
        resident = Hashtbl.length t.table;
      })
