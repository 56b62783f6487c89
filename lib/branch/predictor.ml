(* Two-bit saturating counters: 0,1 predict not-taken; 2,3 predict taken. *)

type tables = {
  pht : int array;  (* primary pattern history table *)
  pht2 : int array;  (* second predictor (tournament only) *)
  chooser : int array;  (* tournament meta-predictor *)
  local_history : int array;  (* per-branch history (PAp / tournament) *)
}

type t = {
  kind : Uarch.predictor_kind;
  history_bits : int;
  mask : int;  (* table-index mask *)
  index_bits : int;  (* bits in [mask]: [mask = 2^index_bits - 1] *)
  tables : tables;
  mutable global_history : int;
  mutable n_predictions : int;
  mutable n_miss : int;
}

let create (cfg : Uarch.branch_predictor) =
  let size = 1 lsl cfg.table_bits in
  let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
  {
    kind = cfg.kind;
    history_bits = cfg.history_bits;
    mask = size - 1;
    index_bits = bits (size - 1) 0;
    tables =
      {
        pht = Array.make size 2;
        pht2 = Array.make size 2;
        chooser = Array.make size 2;
        local_history = Array.make size 0;
      };
    global_history = 0;
    n_predictions = 0;
    n_miss = 0;
  }

let hash_pc pc = (pc * 0x9E3779B1) lsr 8

let history_mask t = (1 lsl t.history_bits) - 1

(* GAp/PAp per-branch tables are emulated within one storage array of the
   configured budget: the upper half of the index bits select the
   "per-branch" table region, the lower half holds the (truncated)
   history.  Truncation is the faithful consequence of a finite budget:
   a real GAp with 4K counters cannot give every branch a full-history
   table either. *)
let split_index t pc history =
  let pc_bits = t.index_bits / 2 in
  let hist_bits = t.index_bits - pc_bits in
  let pc_part = hash_pc pc land ((1 lsl pc_bits) - 1) in
  let hist_part = history land ((1 lsl hist_bits) - 1) in
  ((pc_part lsl hist_bits) lor hist_part) land t.mask

let gap_index t pc = split_index t pc t.global_history

let pap_index t pc =
  let lh = t.tables.local_history.(hash_pc pc land t.mask) in
  split_index t pc lh

let counter_predict c = c >= 2

(* Int-typed: Stdlib's [min]/[max] are polymorphic compares. *)
let counter_update c taken =
  if taken then (if c + 1 < 3 then c + 1 else 3) else if c - 1 > 0 then c - 1 else 0

let predict_and_update t ~static_id ~taken =
  let tb = t.tables in
  let idx_primary, idx_secondary =
    match t.kind with
    | Uarch.Gag -> (t.global_history land history_mask t land t.mask, 0)
    | Uarch.Gap -> (gap_index t static_id, 0)
    | Uarch.Pap -> (pap_index t static_id, 0)
    | Uarch.Gshare ->
      (((t.global_history land history_mask t) lxor hash_pc static_id) land t.mask, 0)
    | Uarch.Tournament -> (gap_index t static_id, pap_index t static_id)
  in
  let prediction =
    match t.kind with
    | Uarch.Tournament ->
      let choice = tb.chooser.(hash_pc static_id land t.mask) in
      if counter_predict choice then counter_predict tb.pht2.(idx_secondary)
      else counter_predict tb.pht.(idx_primary)
    | Uarch.Gag | Uarch.Gap | Uarch.Pap | Uarch.Gshare ->
      counter_predict tb.pht.(idx_primary)
  in
  (* Train. *)
  (match t.kind with
  | Uarch.Tournament ->
    let p1 = counter_predict tb.pht.(idx_primary) in
    let p2 = counter_predict tb.pht2.(idx_secondary) in
    let ci = hash_pc static_id land t.mask in
    (* Chooser moves toward the component that was right. *)
    if p1 <> p2 then
      tb.chooser.(ci) <- counter_update tb.chooser.(ci) (p2 = taken);
    tb.pht.(idx_primary) <- counter_update tb.pht.(idx_primary) taken;
    tb.pht2.(idx_secondary) <- counter_update tb.pht2.(idx_secondary) taken
  | Uarch.Gag | Uarch.Gap | Uarch.Pap | Uarch.Gshare ->
    tb.pht.(idx_primary) <- counter_update tb.pht.(idx_primary) taken);
  (* Histories. *)
  t.global_history <- ((t.global_history lsl 1) lor Bool.to_int taken) land history_mask t;
  (match t.kind with
  | Uarch.Pap | Uarch.Tournament ->
    let li = hash_pc static_id land t.mask in
    tb.local_history.(li) <-
      ((tb.local_history.(li) lsl 1) lor Bool.to_int taken) land history_mask t
  | Uarch.Gag | Uarch.Gap | Uarch.Gshare -> ());
  t.n_predictions <- t.n_predictions + 1;
  if prediction <> taken then t.n_miss <- t.n_miss + 1;
  prediction = taken

let predictions t = t.n_predictions
let mispredictions t = t.n_miss

let miss_rate t =
  if t.n_predictions = 0 then 0.0
  else float_of_int t.n_miss /. float_of_int t.n_predictions

let reset_stats t =
  t.n_predictions <- 0;
  t.n_miss <- 0
