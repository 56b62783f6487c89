(* Declarative axis grids with a pure index -> config generator.

   A design space is the cartesian product of a few integer-valued axes.
   Materializing it as a list caps sweeps at whatever fits in memory; the
   generator view instead maps a point index to its mixed-radix digit
   vector (axis 0 outermost, matching the nesting order of the historical
   [Uarch.design_space] list) and builds the configuration on the fly, so
   a million-point sweep allocates one config at a time and its peak RSS
   is independent of the space size. *)

type axis = {
  ax_name : string;
  ax_values : int array;  (* the grid points along this axis *)
}

type t = {
  cs_name : string;
  cs_axes : axis array;  (* axis 0 outermost in index order *)
  cs_build : int array -> Uarch.t;  (* axis VALUES (not indices) -> config *)
  cs_size : int;
}

let make ~name ~axes ~build =
  if axes = [||] then invalid_arg "Config_space.make: no axes";
  Array.iter
    (fun ax ->
      if Array.length ax.ax_values = 0 then
        invalid_arg
          (Printf.sprintf "Config_space.make: axis %S has no values" ax.ax_name))
    axes;
  let size =
    Array.fold_left
      (fun acc ax ->
        let n = Array.length ax.ax_values in
        if acc > max_int / n then invalid_arg "Config_space.make: size overflow";
        acc * n)
      1 axes
  in
  { cs_name = name; cs_axes = axes; cs_build = build; cs_size = size }

let name t = t.cs_name
let size t = t.cs_size
let axes t = t.cs_axes

let check_index t i =
  if i < 0 || i >= t.cs_size then
    invalid_arg
      (Printf.sprintf "Config_space.digits_of_index: %d outside [0, %d)" i t.cs_size)

(* Mixed-radix decomposition, axis 0 outermost: the LAST axis varies
   fastest, exactly like the innermost loop of a nested enumeration.
   Each slot holds the digit, or with [~values] the axis value. *)
let decompose ~values t i =
  check_index t i;
  let n = Array.length t.cs_axes in
  let out = Array.make n 0 in
  let rest = ref i in
  for k = n - 1 downto 0 do
    let axis = t.cs_axes.(k).ax_values in
    let d = !rest mod Array.length axis in
    out.(k) <- (if values then axis.(d) else d);
    rest := !rest / Array.length axis
  done;
  out

let digits_of_index t i = decompose ~values:false t i

let index_of_digits t digits =
  if Array.length digits <> Array.length t.cs_axes then
    invalid_arg "Config_space.index_of_digits: digit count mismatch";
  let acc = ref 0 in
  Array.iteri
    (fun k d ->
      let radix = Array.length t.cs_axes.(k).ax_values in
      if d < 0 || d >= radix then
        invalid_arg
          (Printf.sprintf "Config_space.index_of_digits: digit %d out of range" k);
      acc := (!acc * radix) + d)
    digits;
  !acc

let values_of_digits t digits =
  Array.mapi (fun k d -> t.cs_axes.(k).ax_values.(d)) digits

let config_of_digits t digits = t.cs_build (values_of_digits t digits)

(* One array per point: the values, straight from the index. *)
let config_of_index t i = t.cs_build (decompose ~values:true t i)

(* For tests and spaces small enough to enumerate. *)
let materialize t = Array.init t.cs_size (fun i -> config_of_index t i)

(* ---- The committed spaces ---- *)

(* Cheap name assembly: the generator runs once per streamed point, and
   [Printf.sprintf] there costs a visible fraction of the evaluation. *)
let cat = String.concat ""
let istr = string_of_int

(* Position of value [v.(k)] on axis [k] of [axes]. *)
let position axes (v : int array) k =
  let values = axes.(k).ax_values in
  let p = ref 0 in
  while values.(!p) <> v.(k) do
    incr p
  done;
  !p

(* Point-for-point identical (values, names, order) to the
   [Uarch.design_space] list, built from the same grid and point
   constructor.  The axis names are part of a checkpoint's run id. *)
let default =
  make ~name:"default"
    ~axes:
      (Array.of_list
         (List.map2
            (fun ax_name (_, values) ->
              { ax_name; ax_values = Array.of_list values })
            [ "width"; "rob"; "l1_kb"; "l2_kb"; "l3_mb" ]
            Uarch.design_space_grid))
    ~build:(fun v ->
      Uarch.design_point ~width:v.(0) ~rob:v.(1) ~l1_kb:v.(2) ~l2_kb:v.(3)
        ~l3_mb:v.(4))

let dvfs_points = Array.of_list Uarch.dvfs_points

(* Generation-scale space (1,451,520 points): core and cache axes widened
   and crossed with memory and DVFS axes.  The frequency axis carries
   indices into [Uarch.dvfs_points].  A point allocates its record and
   its name: the name fragments and the core, cache, memory and
   operating-point records are built once per axis value and shared by
   every point that has it (the records are immutable). *)
let large =
  let widths = [| 1; 2; 3; 4; 6; 8 |] and robs = Array.init 16 (fun i -> 32 + (16 * i)) in
  let l1s = [| 8; 16; 32; 64; 128 |] and l2s = [| 128; 256; 512; 1024 |] in
  let l3s = [| 1; 2; 4; 8; 16; 32 |] and drams = Array.init 7 (fun i -> 100 + (50 * i)) in
  let buses = [| 4; 8; 16 |] and fidxs = Array.init (Array.length dvfs_points) Fun.id in
  let axes =
    Array.map2
      (fun ax_name ax_values -> { ax_name; ax_values })
      [| "width"; "rob"; "l1_kb"; "l2_kb"; "l3_mb"; "dram_latency"; "bus_transfer"; "dvfs" |]
      [| widths; robs; l1s; l2s; l3s; drams; buses; fidxs |]
  in
  let fragments =
    Array.map2
      (fun (pre, post) values -> Array.map (fun v -> cat [ pre; istr v; post ]) values)
      [| ("w", ""); ("-rob", ""); ("-l1_", "k"); ("-l2_", "k"); ("-l3_", "m");
         ("-d", ""); ("-b", ""); ("-f", "") |]
      (Array.map (fun ax -> ax.ax_values) axes)
  in
  (* [p k] is the point's position on axis [k]. *)
  let name p =
    let len = ref 0 in
    for k = 0 to Array.length fragments - 1 do
      len := !len + String.length fragments.(k).(p k)
    done;
    let b = Bytes.create !len in
    let at = ref 0 in
    for k = 0 to Array.length fragments - 1 do
      let f = fragments.(k).(p k) in
      Bytes.blit_string f 0 b !at (String.length f);
      at := !at + String.length f
    done;
    Bytes.unsafe_to_string b
  in
  let cores =
    Array.map
      (fun w -> Array.map (fun rob -> Uarch.make_core ~dispatch_width:w ~rob_size:rob) robs)
      widths
  in
  let caches =
    Array.map
      (fun l1 ->
        Array.map
          (fun l2 -> Array.map (fun l3 -> Uarch.make_caches ~l1_kb:l1 ~l2_kb:l2 ~l3_mb:l3) l3s)
          l2s)
      l1s
  in
  let memories =
    Array.map
      (fun dram_latency ->
        Array.map
          (fun bus_transfer ->
            { Uarch.reference.memory with dram_latency; bus_transfer })
          buses)
      drams
  in
  let points =
    Array.map (fun fidx -> let freq_ghz, vdd = dvfs_points.(fidx) in { Uarch.freq_ghz; vdd }) fidxs
  in
  make ~name:"large" ~axes ~build:(fun v ->
      let p = position axes v in
      {
        Uarch.reference with
        name = name p;
        core = cores.(p 0).(p 1);
        caches = caches.(p 2).(p 3).(p 4);
        memory = memories.(p 5).(p 6);
        operating_point = points.(p 7);
      })

let builtin = [ default; large ]

let find space_name =
  match List.find_opt (fun s -> s.cs_name = space_name) builtin with
  | Some s -> Ok s
  | None ->
    Error
      (Fault.bad_input ~context:"config space"
         (Printf.sprintf "unknown space %S (expected %s)" space_name
            (String.concat " or "
               (List.map (fun s -> Printf.sprintf "%S" s.cs_name) builtin))))
