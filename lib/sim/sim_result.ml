type stack = {
  s_base : float;
  s_branch : float;
  s_icache : float;
  s_llc_hit : float;
  s_dram : float;
}

let stack_total s = s.s_base +. s.s_branch +. s.s_icache +. s.s_llc_hit +. s.s_dram

(* Same keyed representation as Interval_model.keyed_components, so a
   model stack and a simulator stack diff by Cpi_stack.component. *)
let keyed_stack s =
  Cpi_stack.of_values ~base:s.s_base ~branch:s.s_branch ~icache:s.s_icache
    ~llc_hit:s.s_llc_hit ~dram:s.s_dram

let stack_components s = Cpi_stack.labeled_alist (keyed_stack s)

type t = {
  r_name : string;
  r_cycles : int;
  r_instructions : int;
  r_uops : int;
  r_stack : stack;
  r_branches : int;
  r_branch_mispredicts : int;
  r_l1d : Hierarchy.level_stats;
  r_l2 : Hierarchy.level_stats;
  r_l3 : Hierarchy.level_stats;
  r_inst_misses : int * int * int;
  r_dram_loads : int;
  r_dram_stores : int;
  r_mlp : float;
  r_prefetches_issued : int;
  r_time_series : (int * float) array;
  r_activity : Power.activity;
}

let cpi t =
  if t.r_instructions = 0 then 0.0
  else float_of_int t.r_cycles /. float_of_int t.r_instructions

let cpi_stack t =
  let k = keyed_stack t.r_stack in
  if t.r_instructions = 0 then Cpi_stack.scale k 0.0
  else Cpi_stack.scale k (1.0 /. float_of_int t.r_instructions)

let mpki t level =
  let stats =
    match level with `L1 -> t.r_l1d | `L2 -> t.r_l2 | `L3 -> t.r_l3
  in
  if t.r_instructions = 0 then 0.0
  else float_of_int stats.Hierarchy.load_misses /. float_of_int t.r_instructions *. 1000.0

let branch_mpki t =
  if t.r_instructions = 0 then 0.0
  else float_of_int t.r_branch_mispredicts /. float_of_int t.r_instructions *. 1000.0

let dram_wait_cpi t =
  if t.r_instructions = 0 then 0.0
  else t.r_stack.s_dram /. float_of_int t.r_instructions
