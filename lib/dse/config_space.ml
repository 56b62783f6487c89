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

(* Mixed-radix decomposition, axis 0 outermost: the LAST axis varies
   fastest, exactly like the innermost loop of a nested enumeration. *)
let digits_of_index t i =
  if i < 0 || i >= t.cs_size then
    invalid_arg
      (Printf.sprintf "Config_space.digits_of_index: %d outside [0, %d)" i t.cs_size);
  let n = Array.length t.cs_axes in
  let digits = Array.make n 0 in
  let rest = ref i in
  for k = n - 1 downto 0 do
    let radix = Array.length t.cs_axes.(k).ax_values in
    digits.(k) <- !rest mod radix;
    rest := !rest / radix
  done;
  digits

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
let config_of_index t i = config_of_digits t (digits_of_index t i)

(* For tests and spaces small enough to enumerate. *)
let materialize t = Array.init t.cs_size (fun i -> config_of_index t i)

(* ---- The committed spaces ---- *)

(* Cheap name assembly: the generator runs once per streamed point, and
   [Printf.sprintf] there costs a visible fraction of the evaluation. *)
let cat = String.concat ""
let istr = string_of_int

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
   indices into [Uarch.dvfs_points]. *)
let large =
  make ~name:"large"
    ~axes:
      [|
        { ax_name = "width"; ax_values = [| 1; 2; 3; 4; 6; 8 |] };
        { ax_name = "rob"; ax_values = Array.init 16 (fun i -> 32 + (16 * i)) };
        { ax_name = "l1_kb"; ax_values = [| 8; 16; 32; 64; 128 |] };
        { ax_name = "l2_kb"; ax_values = [| 128; 256; 512; 1024 |] };
        { ax_name = "l3_mb"; ax_values = [| 1; 2; 4; 8; 16; 32 |] };
        { ax_name = "dram_latency"; ax_values = Array.init 7 (fun i -> 100 + (50 * i)) };
        { ax_name = "bus_transfer"; ax_values = [| 4; 8; 16 |] };
        { ax_name = "dvfs"; ax_values = Array.init (Array.length dvfs_points) Fun.id };
      |]
    ~build:(fun v ->
      let w = v.(0) and rob = v.(1) and l1 = v.(2) and l2 = v.(3) and l3 = v.(4) in
      let dram = v.(5) and bus = v.(6) and fidx = v.(7) in
      let freq_ghz, vdd = dvfs_points.(fidx) in
      {
        Uarch.reference with
        name =
          cat
            [ "w"; istr w; "-rob"; istr rob; "-l1_"; istr l1; "k-l2_"; istr l2;
              "k-l3_"; istr l3; "m-d"; istr dram; "-b"; istr bus; "-f"; istr fidx ];
        core = Uarch.make_core ~dispatch_width:w ~rob_size:rob;
        caches = Uarch.make_caches ~l1_kb:l1 ~l2_kb:l2 ~l3_mb:l3;
        memory = { Uarch.reference.memory with dram_latency = dram; bus_transfer = bus };
        operating_point = { freq_ghz; vdd };
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
