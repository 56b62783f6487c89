(* Bit-exact simulator snapshot.

   Prints every field of every [Sim_result.t] — floats in hexadecimal
   ([%h]), so a change in the last bit shows — for the three workload
   files over configurations chosen to reach every simulator path:
   issue-queue and ROB-full stalls (low-power: width 2, ROB 32), a wide
   core (width 8, ROB 256), both prefetchers (in-flight prefetch fills),
   each ideal flag alone and all together, zero-latency units, and a
   two-core shared run.
   A faster simulator must reproduce this file byte for byte. *)

let seed = 1
let n_instructions = 20_000
let time_series_interval = 5_000

let pf fmt = Printf.printf fmt

let print_result r =
  let b = Buffer.create 1024 in
  Sim_text.result b r;
  print_string (Buffer.contents b)

let wide =
  { Uarch.reference with
    name = "w8-rob256";
    core = Uarch.make_core ~dispatch_width:8 ~rob_size:256 }

(* Zero-latency units and L1D: a consumer becomes ready in the cycle its
   producer issues, and must still issue in that cycle. *)
let zero_latency =
  let r = Uarch.reference in
  { r with
    name = "zero-latency";
    core =
      { r.core with
        functional_units =
          List.map (fun (fu : Uarch.functional_unit) -> { fu with unit_latency = 0 })
            r.core.functional_units };
    caches = { r.caches with l1d = { r.caches.l1d with latency = 0 } } }

let configs =
  let open Simulator in
  let r = Uarch.reference in
  [
    ("reference", r, real);
    ("low-power", Uarch.low_power, real);
    ("w8-rob256", wide, real);
    ("stride-prefetch", Uarch.with_prefetcher_kind r Uarch.Pf_stride, real);
    ("next-line-prefetch", Uarch.with_prefetcher_kind r Uarch.Pf_next_line, real);
    ("perfect", r, perfect);
    ("no-branch-miss", r, { real with no_branch_miss = true });
    ("no-icache-miss", r, { real with no_icache_miss = true });
    ("no-dcache-miss", r, { real with no_dcache_miss = true });
    ("zero-latency", zero_latency, real);
  ]

let () =
  let specs =
    Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
    |> List.map (fun path -> Fault.or_raise (Workload_parser.load path))
  in
  pf "seed: %d  instructions: %d  time series interval: %d\n" seed n_instructions
    time_series_interval;
  List.iter
    (fun spec ->
      List.iter
        (fun (label, cfg, ideal) ->
          pf "\n%s / %s:\n" spec.Workload_spec.wname label;
          print_result
            (Simulator.run ~ideal ~time_series_interval cfg spec ~seed
               ~n_instructions))
        configs)
    specs;
  match specs with
  | a :: b :: _ ->
    pf "\nshared %s + %s / reference:\n" a.Workload_spec.wname b.Workload_spec.wname;
    List.iter print_result
      (Simulator.run_shared ~time_series_interval Uarch.reference
         [ (a, seed); (b, seed + 1) ] ~n_instructions)
  | _ -> ()
