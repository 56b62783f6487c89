(* Simulator digests: one MD5 per run of every [Sim_result.t] field (the
   text of [Sim_text.result], floats in hexadecimal), over more runs than
   [sim_results.expected] can print whole:
   - the 27-point [`Sim] validation matrix x the three workload files x
     seeds 1 and 2, each replaying one recorded stream;
   - ROBs of 48, 96 and 160 entries (rings that are not a power of two);
   - a 5-entry issue queue with 2 MSHRs;
   - the stride and next-line prefetchers;
   - each ideal flag alone and all together;
   - a three-core shared-LLC run.
   A faster simulator must reproduce this file byte for byte. *)

let n_instructions = 20_000
let time_series_interval = 5_000

let digest r =
  let b = Buffer.create 1024 in
  Sim_text.result b r;
  Digest.to_hex (Digest.string (Buffer.contents b))

let with_core f (u : Uarch.t) = { u with core = f u.core }

let variants =
  let open Simulator in
  let r = Uarch.reference in
  let rob n = with_core (fun c -> { c with rob_size = n }) r in
  [
    ("rob48", rob 48, real);
    ("rob96", rob 96, real);
    ("rob160", rob 160, real);
    ( "iq5-mshr2",
      with_core (fun c -> { c with issue_queue_size = 5; mshr_entries = 2 }) r,
      real );
    ("stride-prefetch", Uarch.with_prefetcher_kind r Uarch.Pf_stride, real);
    ("next-line-prefetch", Uarch.with_prefetcher_kind r Uarch.Pf_next_line, real);
    ("no-branch-miss", r, { real with no_branch_miss = true });
    ("no-icache-miss", r, { real with no_icache_miss = true });
    ("no-dcache-miss", r, { real with no_dcache_miss = true });
    ("perfect", r, perfect);
  ]

let () =
  let specs =
    Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
    |> List.map (fun path -> Fault.or_raise (Workload_parser.load path))
  in
  Printf.printf "instructions: %d  time series interval: %d\n" n_instructions
    time_series_interval;
  List.iter
    (fun spec ->
      List.iter
        (fun seed ->
          let stream = Uop_stream.record spec ~seed ~n_instructions in
          let run label ideal cfg =
            Printf.printf "%s seed=%d %s %s\n" spec.Workload_spec.wname seed label
              (digest
                 (Simulator.run_stream ~ideal ~time_series_interval cfg stream))
          in
          List.iter
            (fun (cfg : Uarch.t) -> run cfg.name Simulator.real cfg)
            (Validate.matrix_configs `Sim);
          if seed = 1 then
            List.iter (fun (label, cfg, ideal) -> run label ideal cfg) variants)
        [ 1; 2 ])
    specs;
  List.iteri
    (fun i r ->
      Printf.printf "shared core%d %s\n" i (digest r))
    (Simulator.run_shared ~time_series_interval Uarch.reference
       (List.mapi (fun i spec -> (spec, i + 1)) specs)
       ~n_instructions)
