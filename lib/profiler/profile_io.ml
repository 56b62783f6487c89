(* The profile file format (version 3), the only one mipp reads or writes.

   Fields in a fixed order: integers as zigzag LEB128 varints, floats as
   their 8-byte little-endian IEEE-754 bit patterns (exact round-trip),
   strings and arrays length-prefixed, histograms as sorted (key, count)
   pairs.  The file starts with the magic [MIPB] and the version, and
   ends with a CRC-32 of everything before it, verified before parsing so
   truncation, torn writes and byte flips surface as one structured error
   up front.  Versions 1 and 2 were line-oriented text; they are refused
   with a message saying so. *)

let binary_magic = "MIPB"
let binary_version = 3

let to_binary_string (p : Profile.t) =
  let buf = Buffer.create 65536 in
  (* Integers are zigzag LEB128 varints: profile counters are mostly
     small, so one or two bytes each instead of a fixed eight. *)
  let vint v =
    let u = ref ((v lsl 1) lxor (v asr (Sys.int_size - 1))) in
    let continue = ref true in
    while !continue do
      let b = !u land 0x7f in
      u := !u lsr 7;
      if !u = 0 then begin
        Buffer.add_char buf (Char.chr b);
        continue := false
      end
      else Buffer.add_char buf (Char.chr (b lor 0x80))
    done
  in
  let f64 v = Buffer.add_int64_le buf (Int64.bits_of_float v) in
  let str s =
    vint (String.length s);
    Buffer.add_string buf s
  in
  let ints a =
    vint (Array.length a);
    Array.iter vint a
  in
  let floats a =
    vint (Array.length a);
    Array.iter f64 a
  in
  let hist h =
    (* Sorted pairs: the bytes written for a given profile are a pure
       function of its contents, independent of hash-table order. *)
    let pairs = Histogram.to_sorted_list h in
    vint (List.length pairs);
    List.iter
      (fun (k, c) ->
        vint k;
        vint c)
      pairs
  in
  Buffer.add_string buf binary_magic;
  vint binary_version;
  str p.p_workload;
  vint p.p_window_instructions;
  vint p.p_microtrace_instructions;
  vint p.p_total_instructions;
  vint p.p_line_bytes;
  f64 p.p_entropy;
  f64 p.p_branch_fraction;
  f64 p.p_uops_per_instruction;
  f64 p.p_inst_cold_fraction;
  vint p.p_inst_samples;
  vint p.p_data_accesses;
  vint p.p_data_cold;
  hist p.p_reuse_inst;
  vint (Array.length p.p_microtraces);
  Array.iter
    (fun (mt : Profile.microtrace) ->
      vint mt.mt_index;
      vint mt.mt_start_instruction;
      vint mt.mt_instructions;
      vint mt.mt_uops;
      vint mt.mt_branches;
      vint mt.mt_mem_samples;
      vint mt.mt_mem_cold;
      vint mt.mt_store_cold;
      ints (Array.of_list (List.map snd (Isa.Class_counts.to_list mt.mt_mix)));
      ints mt.mt_chains.rob_sizes;
      floats mt.mt_chains.ap;
      floats mt.mt_chains.abp;
      floats mt.mt_chains.cp;
      ints mt.mt_chains.abp_windows;
      hist mt.mt_load_depth;
      hist mt.mt_reuse_load;
      hist mt.mt_reuse_store;
      ints mt.mt_cold.cold_rob_sizes;
      ints mt.mt_cold.cold_windows;
      ints mt.mt_cold.cold_windows_hit;
      ints mt.mt_cold.cold_total;
      vint (List.length mt.mt_static_loads);
      List.iter
        (fun (sl : Profile.static_load) ->
          vint sl.sl_static_id;
          vint sl.sl_first_pos;
          vint sl.sl_count;
          vint sl.sl_cold;
          hist sl.sl_spacing;
          hist sl.sl_strides;
          hist sl.sl_reuse)
        mt.mt_static_loads)
    p.p_microtraces;
  let body = Buffer.contents buf in
  let crc = Crc32.string body in
  let tail = Bytes.create 4 in
  Bytes.set_int32_le tail 0 (Int32.of_int crc);
  body ^ Bytes.to_string tail

type breader = { b_data : string; mutable b_pos : int; b_len : int }

let bfail msg =
  Fault.raise_error (Fault.bad_input ~context:"profile" ("binary: " ^ msg))

let b_need rb n = if n < 0 || rb.b_pos > rb.b_len - n then bfail "unexpected end of data"

let b_vint rb =
  let rec go shift acc =
    if shift >= 63 then bfail "varint too long";
    b_need rb 1;
    let b = Char.code rb.b_data.[rb.b_pos] in
    rb.b_pos <- rb.b_pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  let u = go 0 0 in
  (u lsr 1) lxor (-(u land 1))

let b_f64 rb =
  b_need rb 8;
  let v = Int64.float_of_bits (String.get_int64_le rb.b_data rb.b_pos) in
  rb.b_pos <- rb.b_pos + 8;
  v

(* Corrupt length fields must not trigger giant allocations: every
   element occupies at least [elt_bytes] of the remaining input, so any
   count beyond that is structurally impossible. *)
let b_count rb ~elt_bytes what =
  let n = b_vint rb in
  if n < 0 || n > (rb.b_len - rb.b_pos) / elt_bytes then
    bfail (Printf.sprintf "implausible %s count %d" what n);
  n

let b_str rb =
  let n = b_count rb ~elt_bytes:1 "string byte" in
  let s = String.sub rb.b_data rb.b_pos n in
  rb.b_pos <- rb.b_pos + n;
  s

let b_ints rb what =
  let n = b_count rb ~elt_bytes:1 what in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- b_vint rb
  done;
  a

let b_floats rb what =
  let n = b_count rb ~elt_bytes:8 what in
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    a.(i) <- b_f64 rb
  done;
  a

let b_hist rb what =
  let n = b_count rb ~elt_bytes:2 what in
  let h = Histogram.create () in
  for _ = 1 to n do
    let k = b_vint rb in
    let c = b_vint rb in
    if c < 0 then bfail (what ^ ": negative histogram count");
    Histogram.add h ~count:c k
  done;
  h

let b_static rb : Profile.static_load =
  let sl_static_id = b_vint rb in
  let sl_first_pos = b_vint rb in
  let sl_count = b_vint rb in
  let sl_cold = b_vint rb in
  let spacing = b_hist rb "spacing" in
  let strides = b_hist rb "strides" in
  let reuse = b_hist rb "reuse" in
  let cold_fraction =
    if sl_count = 0 then 0.0 else float_of_int sl_cold /. float_of_int sl_count
  in
  {
    sl_static_id;
    sl_first_pos;
    sl_count;
    sl_spacing = spacing;
    sl_strides = strides;
    sl_reuse = reuse;
    sl_cold;
    sl_stack = lazy (Statstack.of_reuse_histogram ~cold_fraction reuse);
  }

let b_microtrace rb : Profile.microtrace =
  let mt_index = b_vint rb in
  let mt_start_instruction = b_vint rb in
  let mt_instructions = b_vint rb in
  let mt_uops = b_vint rb in
  let mt_branches = b_vint rb in
  let mt_mem_samples = b_vint rb in
  let mt_mem_cold = b_vint rb in
  let mt_store_cold = b_vint rb in
  let mix_counts = b_ints rb "mix" in
  if Array.length mix_counts <> Isa.n_classes then bfail "mix: wrong class count";
  let mix = Isa.Class_counts.create () in
  List.iteri (fun i cls -> Isa.Class_counts.add mix cls mix_counts.(i)) Isa.all_classes;
  let rob_sizes = b_ints rb "rob_sizes" in
  let ap = b_floats rb "ap" in
  let abp = b_floats rb "abp" in
  let cp = b_floats rb "cp" in
  let abp_windows = b_ints rb "abp_windows" in
  let load_depth = b_hist rb "load_depth" in
  let reuse_load = b_hist rb "reuse_load" in
  let reuse_store = b_hist rb "reuse_store" in
  let cold_rob_sizes = b_ints rb "cold_rob_sizes" in
  let cold_windows = b_ints rb "cold_windows" in
  let cold_windows_hit = b_ints rb "cold_windows_hit" in
  let cold_total = b_ints rb "cold_total" in
  let n_statics = b_count rb ~elt_bytes:1 "static load" in
  let statics = ref [] in
  for _ = 1 to n_statics do
    statics := b_static rb :: !statics
  done;
  let statics = List.rev !statics in
  {
    mt_index;
    mt_start_instruction;
    mt_instructions;
    mt_uops;
    mt_mix = mix;
    mt_chains = { rob_sizes; ap; abp; cp; abp_windows };
    mt_load_depth = load_depth;
    mt_reuse_load = reuse_load;
    mt_reuse_store = reuse_store;
    mt_mem_samples;
    mt_mem_cold;
    mt_store_cold;
    mt_cold = { cold_rob_sizes; cold_windows; cold_windows_hit; cold_total };
    mt_static_loads = statics;
    mt_branches;
  }

let of_string s =
  Fault.protect ~context:"profile" (fun () ->
      let len = String.length s in
      if not (String.starts_with ~prefix:binary_magic s) then
        Fault.raise_error
          (Fault.bad_input ~context:"profile"
             "not a binary profile (no MIPB magic); text profiles (format \
              versions 1-2) are no longer read: re-run `mipp profile` to \
              write it again");
      if len < String.length binary_magic + 5 then bfail "truncated file";
      let body_len = len - 4 in
      let stored = Int32.to_int (String.get_int32_le s body_len) land 0xFFFFFFFF in
      let crc = Crc32.update 0 s ~pos:0 ~len:body_len in
      if crc <> stored then
        bfail
          (Printf.sprintf
             "checksum mismatch (stored %s, computed %s): file corrupt or \
              truncated"
             (Crc32.to_hex stored) (Crc32.to_hex crc));
      let rb = { b_data = s; b_pos = String.length binary_magic; b_len = body_len } in
      let version = b_vint rb in
      if version <> binary_version then
        Fault.raise_error
          (Fault.bad_input ~context:"profile"
             (if version > binary_version then
                Printf.sprintf
                  "binary format version %d is newer than this build supports \
                   (max %d); upgrade mipp to read this profile"
                  version binary_version
              else
                Printf.sprintf
                  "unsupported binary format version %d (this build reads \
                   version %d)"
                  version binary_version));
      let p_workload = b_str rb in
      let p_window_instructions = b_vint rb in
      let p_microtrace_instructions = b_vint rb in
      let p_total_instructions = b_vint rb in
      let p_line_bytes = b_vint rb in
      let p_entropy = b_f64 rb in
      let p_branch_fraction = b_f64 rb in
      let p_uops_per_instruction = b_f64 rb in
      let p_inst_cold_fraction = b_f64 rb in
      let p_inst_samples = b_vint rb in
      let p_data_accesses = b_vint rb in
      let p_data_cold = b_vint rb in
      let p_reuse_inst = b_hist rb "reuse_inst" in
      let n_mts = b_count rb ~elt_bytes:1 "microtrace" in
      (* Sequential read (List.init/Array.init leave evaluation order
         unspecified, which would scramble the cursor). *)
      let mts = ref [] in
      for _ = 1 to n_mts do
        mts := b_microtrace rb :: !mts
      done;
      let p_microtraces = Array.of_list (List.rev !mts) in
      if rb.b_pos <> rb.b_len then bfail "trailing bytes after profile body";
      let profile =
        {
          Profile.p_workload;
          p_window_instructions;
          p_microtrace_instructions;
          p_total_instructions;
          p_line_bytes;
          p_microtraces;
          p_entropy;
          p_branch_fraction;
          p_uops_per_instruction;
          p_reuse_inst;
          p_inst_cold_fraction;
          p_inst_samples;
          p_data_accesses;
          p_data_cold;
          p_derived = Profile.fresh_derived ();
        }
      in
      (* Structural parse succeeded; now enforce the semantic invariants
         so a well-formed-but-nonsensical file (negative counters, NaN
         scalars, inconsistent histogram mass) is rejected here rather
         than poisoning a later sweep. *)
      Fault.or_raise (Result.map (fun () -> profile) (Profile.validate profile)))

(* Saves go through raw descriptors with the bounded-retry layer
   (EINTR/EAGAIN on write and fsync) and an fsync before close: a profile
   is the expensive artifact of a long profiling run, so an operator
   signal or a momentary transient must not leave a torn file whose only
   diagnosis is a checksum mismatch at the next load. *)
let save path profile =
  let body = to_binary_string profile in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Retry.write_all fd (Bytes.unsafe_of_string body) 0 (String.length body);
      Retry.fsync fd)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        really_input_string ic n)
  with
  | exception Sys_error msg ->
    Error (Fault.bad_input ~context:("profile " ^ path) msg)
  | s -> (
    match of_string s with
    | Ok p -> Ok p
    | Error (Fault.Bad_input { context; line; message }) ->
      (* Re-anchor the context on the file name. *)
      Error
        (Fault.Bad_input
           { context = (if context = "profile" then "profile " ^ path else context);
             line; message })
    | Error ft -> Error ft)
