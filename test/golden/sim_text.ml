(* Every field of a [Sim_result.t] as text, floats in hexadecimal ([%h]),
   so a change in the last bit shows.  Shared by the simulator snapshot
   and the simulator digests. *)

let stats b label (s : Hierarchy.level_stats) =
  Printf.bprintf b
    "  %s accesses=%d load_misses=%d store_misses=%d cold_load=%d cold_store=%d\n"
    label s.accesses s.load_misses s.store_misses s.cold_load_misses
    s.cold_store_misses

let result b (r : Sim_result.t) =
  let pf fmt = Printf.bprintf b fmt in
  pf "  name=%s cycles=%d instructions=%d uops=%d\n" r.r_name r.r_cycles
    r.r_instructions r.r_uops;
  let s = r.r_stack in
  pf "  stack base=%h branch=%h icache=%h llc_hit=%h dram=%h\n" s.s_base
    s.s_branch s.s_icache s.s_llc_hit s.s_dram;
  pf "  branches=%d mispredicts=%d\n" r.r_branches r.r_branch_mispredicts;
  stats b "l1d" r.r_l1d;
  stats b "l2" r.r_l2;
  stats b "l3" r.r_l3;
  let i1, i2, i3 = r.r_inst_misses in
  pf "  inst_misses=%d,%d,%d\n" i1 i2 i3;
  pf "  dram_loads=%d dram_stores=%d mlp=%h prefetches=%d\n" r.r_dram_loads
    r.r_dram_stores r.r_mlp r.r_prefetches_issued;
  pf "  time_series";
  Array.iter (fun (i, c) -> pf " %d:%h" i c) r.r_time_series;
  pf "\n";
  let a = r.r_activity in
  pf "  activity cycles=%h uops=%h l1i=%h l1d=%h l2=%h l3=%h dram=%h branch=%h\n"
    a.a_cycles a.a_uops a.a_l1i_accesses a.a_l1d_accesses a.a_l2_accesses
    a.a_l3_accesses a.a_dram_accesses a.a_branch_lookups;
  pf "  activity by_class";
  Array.iter (fun v -> pf " %h" v) a.a_uops_by_class;
  pf "\n"
