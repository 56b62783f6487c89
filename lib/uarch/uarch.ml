type cache_level = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
  latency : int;
}

type caches = {
  l1i : cache_level;
  l1d : cache_level;
  l2 : cache_level;
  l3 : cache_level;
}

type predictor_kind = Gag | Gap | Pap | Gshare | Tournament

let predictor_kind_to_string = function
  | Gag -> "GAg"
  | Gap -> "GAp"
  | Pap -> "PAp"
  | Gshare -> "gshare"
  | Tournament -> "tournament"

let all_predictor_kinds = [ Gag; Gap; Pap; Gshare; Tournament ]

type branch_predictor = {
  kind : predictor_kind;
  history_bits : int;
  table_bits : int;
}

type functional_unit = {
  serves : Isa.uop_class;
  unit_count : int;
  unit_latency : int;
  pipelined : bool;
  usable_ports : int list;
}

type core = {
  dispatch_width : int;
  rob_size : int;
  issue_queue_size : int;
  frontend_depth : int;
  n_ports : int;
  functional_units : functional_unit list;
  mshr_entries : int;
}

type memory = {
  dram_latency : int;
  bus_transfer : int;
  dram_page_bytes : int;
}

type prefetcher_kind = Pf_stride | Pf_next_line

type prefetcher = {
  pf_enabled : bool;
  pf_kind : prefetcher_kind;
  pf_table_entries : int;
}

type dvfs = { freq_ghz : float; vdd : float }

type t = {
  name : string;
  core : core;
  caches : caches;
  predictor : branch_predictor;
  memory : memory;
  prefetcher : prefetcher;
  operating_point : dvfs;
}

(* Nehalem-style issue stage (Fig 3.5).  Width 4 gets the six-port layout;
   narrower/wider cores scale the ALU-capable port set and unit counts. *)
let functional_units_for_width_uncached width =
  let alu_ports = match width with
    | w when w <= 2 -> [ 0; 1 ]
    | w when w <= 4 -> [ 0; 1; 5 ]
    | _ -> [ 0; 1; 5; 6 ]
  in
  let n_alu = List.length alu_ports in
  let load_ports = if width >= 6 then [ 2; 7 ] else [ 2 ] in
  [
    { serves = Isa.Int_alu; unit_count = n_alu; unit_latency = 1; pipelined = true;
      usable_ports = alu_ports };
    { serves = Isa.Move; unit_count = n_alu; unit_latency = 1; pipelined = true;
      usable_ports = alu_ports };
    { serves = Isa.Int_mul; unit_count = 1; unit_latency = 3; pipelined = true;
      usable_ports = [ 1 ] };
    { serves = Isa.Int_div; unit_count = 1; unit_latency = 20; pipelined = false;
      usable_ports = [ 0 ] };
    { serves = Isa.Fp_alu; unit_count = 1; unit_latency = 3; pipelined = true;
      usable_ports = [ 1 ] };
    { serves = Isa.Fp_mul; unit_count = 1; unit_latency = 5; pipelined = true;
      usable_ports = [ 0 ] };
    { serves = Isa.Fp_div; unit_count = 1; unit_latency = 24; pipelined = false;
      usable_ports = [ 0 ] };
    { serves = Isa.Load; unit_count = List.length load_ports; unit_latency = 1;
      pipelined = true; usable_ports = load_ports };
    { serves = Isa.Store; unit_count = 2; unit_latency = 1; pipelined = true;
      usable_ports = [ 3; 4 ] };
    { serves = Isa.Branch; unit_count = 1; unit_latency = 1; pipelined = true;
      usable_ports = [ 5 ] };
  ]

(* Pure in [width]; return a shared physical list per width so that a
   config-space generator building millions of cores neither reallocates
   the table nor defeats physical-equality guards in downstream caches.
   Pre-built for every realistic width, so parallel readers never write. *)
let functional_units_table =
  Array.init 17 (fun w -> functional_units_for_width_uncached (max 1 w))

let functional_units_for_width width =
  if width >= 1 && width < Array.length functional_units_table then
    functional_units_table.(width)
  else functional_units_for_width_uncached width

let n_ports_for_width width = if width <= 4 then 6 else 8

let make_core ~dispatch_width ~rob_size =
  {
    dispatch_width;
    rob_size;
    issue_queue_size = max 16 (rob_size / 2);
    frontend_depth = 5;
    n_ports = n_ports_for_width dispatch_width;
    functional_units = functional_units_for_width dispatch_width;
    mshr_entries = 10;
  }

let kb n = n * 1024
let mb n = n * 1024 * 1024

let make_caches ~l1_kb ~l2_kb ~l3_mb =
  let line_bytes = 64 in
  {
    l1i = { size_bytes = kb l1_kb; assoc = 4; line_bytes; latency = 3 };
    l1d = { size_bytes = kb l1_kb; assoc = 8; line_bytes; latency = 4 };
    l2 = { size_bytes = kb l2_kb; assoc = 8; line_bytes; latency = 8 };
    l3 = { size_bytes = mb l3_mb; assoc = 16; line_bytes; latency = 30 };
  }

let reference =
  {
    name = "nehalem-ref";
    core = make_core ~dispatch_width:4 ~rob_size:128;
    caches = make_caches ~l1_kb:32 ~l2_kb:256 ~l3_mb:8;
    predictor = { kind = Tournament; history_bits = 12; table_bits = 12 };
    memory = { dram_latency = 200; bus_transfer = 8; dram_page_bytes = 4096 };
    prefetcher = { pf_enabled = false; pf_kind = Pf_stride; pf_table_entries = 256 };
    operating_point = { freq_ghz = 2.66; vdd = 0.9 };
  }

let low_power =
  {
    reference with
    name = "low-power";
    core = make_core ~dispatch_width:2 ~rob_size:32;
    caches = make_caches ~l1_kb:16 ~l2_kb:128 ~l3_mb:2;
    operating_point = { freq_ghz = 1.33; vdd = 0.75 };
  }

(* Table 6.3: each axis's label and values, in enumeration order (width
   outermost, L3 fastest). *)
let design_space_grid =
  [
    ("dispatch width", [ 2; 4; 6 ]);
    ("ROB size", [ 64; 128; 256 ]);
    ("L1 I/D size (KB)", [ 16; 32; 64 ]);
    ("L2 size (KB)", [ 128; 256; 512 ]);
    ("L3 size (MB)", [ 2; 4; 8 ]);
  ]

let design_space_axes =
  List.map
    (fun (axis, values) -> (axis, List.map string_of_int values))
    design_space_grid

(* Cheap name assembly: a streamed sweep builds one point per evaluation,
   and [Printf.sprintf] there costs a visible fraction of it. *)
let design_point ~width ~rob ~l1_kb ~l2_kb ~l3_mb =
  let i = string_of_int in
  {
    reference with
    name =
      String.concat ""
        [ "w"; i width; "-rob"; i rob; "-l1_"; i l1_kb; "k-l2_"; i l2_kb;
          "k-l3_"; i l3_mb; "m" ];
    core = make_core ~dispatch_width:width ~rob_size:rob;
    caches = make_caches ~l1_kb ~l2_kb ~l3_mb;
  }

let design_space =
  let points =
    List.fold_right
      (fun (_, values) rest ->
        List.concat_map (fun v -> List.map (fun vs -> v :: vs) rest) values)
      design_space_grid [ [] ]
  in
  List.map
    (function
      | [ width; rob; l1_kb; l2_kb; l3_mb ] ->
        design_point ~width ~rob ~l1_kb ~l2_kb ~l3_mb
      | _ -> assert false)
    points

let of_name name =
  match name with
  | "reference" -> Ok reference
  | "low-power" -> Ok low_power
  | other -> (
    match List.find_opt (fun u -> u.name = other) design_space with
    | Some u -> Ok u
    | None ->
      Error
        (Fault.bad_input ~context:"config"
           (Printf.sprintf
              "unknown configuration %S (expected 'reference', 'low-power', or \
               a design-space name like 'w4-rob128-l1_32k-l2_256k-l3_8m')"
              other)))

let with_dvfs t ~freq_ghz ~vdd =
  { t with operating_point = { freq_ghz; vdd };
           name = Printf.sprintf "%s@%.2fGHz" t.name freq_ghz }

let dvfs_points =
  [ (1.33, 0.75); (1.60, 0.78); (2.00, 0.82); (2.33, 0.86); (2.66, 0.90); (3.20, 0.96) ]

let with_rob t rob =
  { t with core = { t.core with rob_size = rob;
                    issue_queue_size = max 16 (rob / 2) } }

let with_prefetcher t enabled =
  { t with prefetcher = { t.prefetcher with pf_enabled = enabled } }

let with_prefetcher_kind t kind =
  { t with prefetcher = { t.prefetcher with pf_enabled = true; pf_kind = kind } }

let with_predictor t kind = { t with predictor = { t.predictor with kind } }

let functional_unit_for core cls =
  List.find (fun fu -> fu.serves = cls) core.functional_units

let uop_latency t cls =
  match cls with
  | Isa.Load -> t.caches.l1d.latency
  | Isa.Store -> 1
  | _ -> (functional_unit_for t.core cls).unit_latency

let rob_fill_time t =
  float_of_int t.core.rob_size /. float_of_int t.core.dispatch_width

let describe t =
  let c = t.core and m = t.memory in
  [
    ("name", t.name);
    ("dispatch width", string_of_int c.dispatch_width);
    ("ROB size", string_of_int c.rob_size);
    ("issue queue", string_of_int c.issue_queue_size);
    ("issue ports", string_of_int c.n_ports);
    ("front-end depth", string_of_int c.frontend_depth);
    ("MSHR entries", string_of_int c.mshr_entries);
    ("L1I", Printf.sprintf "%d KB, %d-way, %d cyc" (t.caches.l1i.size_bytes / 1024)
       t.caches.l1i.assoc t.caches.l1i.latency);
    ("L1D", Printf.sprintf "%d KB, %d-way, %d cyc" (t.caches.l1d.size_bytes / 1024)
       t.caches.l1d.assoc t.caches.l1d.latency);
    ("L2", Printf.sprintf "%d KB, %d-way, %d cyc" (t.caches.l2.size_bytes / 1024)
       t.caches.l2.assoc t.caches.l2.latency);
    ("L3", Printf.sprintf "%d MB, %d-way, %d cyc"
       (t.caches.l3.size_bytes / 1024 / 1024) t.caches.l3.assoc t.caches.l3.latency);
    ("DRAM latency", Printf.sprintf "%d cyc" m.dram_latency);
    ("bus transfer", Printf.sprintf "%d cyc/line" m.bus_transfer);
    ("branch predictor", predictor_kind_to_string t.predictor.kind);
    ( "prefetcher",
      if not t.prefetcher.pf_enabled then "off"
      else
        match t.prefetcher.pf_kind with
        | Pf_stride -> "stride"
        | Pf_next_line -> "next-line" );
    ("frequency", Printf.sprintf "%.2f GHz" t.operating_point.freq_ghz);
    ("Vdd", Printf.sprintf "%.2f V" t.operating_point.vdd);
  ]
