let default_jobs () = Domain.recommended_domain_count ()

(* The runtime caps live domains (128 by default); stay well below it so
   nested callers cannot trip the limit. *)
let max_workers = 64

let map_array ?(jobs = 1) f xs =
  let n = Array.length xs in
  let workers = min (min jobs max_workers) n in
  if workers <= 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let failures = Array.make workers None in
    (* Balanced contiguous chunks: worker [w] owns [lo, hi). *)
    let chunk w =
      let base = n / workers and extra = n mod workers in
      let lo = (w * base) + min w extra in
      (lo, lo + base + if w < extra then 1 else 0)
    in
    let work w () =
      let lo, hi = chunk w in
      try
        for i = lo to hi - 1 do
          results.(i) <- Some (f xs.(i))
        done
      with e -> failures.(w) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let domains = Array.init (workers - 1) (fun w -> Domain.spawn (work (w + 1))) in
    work 0 ();
    Array.iter Domain.join domains;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      failures;
    Array.map (function Some v -> v | None -> assert false) results
  end

(* Per-item fault isolation: the wrapped function never raises, so
   [map_array]'s whole-chunk failure path is never taken and every item
   gets an independent verdict, in input order. *)
let capture f x =
  try Ok (f x) with
  | Fault.Error ft -> Error ft
  | e -> Error (Fault.worker_crash e (Printexc.get_raw_backtrace ()))

let map_result_array ?(jobs = 1) f xs = map_array ~jobs (capture f) xs

let map_result ?(jobs = 1) f xs =
  Array.to_list (map_result_array ~jobs f (Array.of_list xs))
