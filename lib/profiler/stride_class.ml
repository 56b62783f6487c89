type category = Strided of int list | Unique | Random_strided

let cutoffs = [| 0.60; 0.70; 0.80; 0.90 |]

let dominant_strides (sl : Profile.static_load) =
  let total = Histogram.total sl.sl_strides in
  if total = 0 then None
  else begin
    let top = Histogram.top_k sl.sl_strides 4 in
    let totalf = float_of_int total in
    (* Prefer the simplest pattern: stop at the first k whose cumulative
       coverage clears its cutoff. *)
    let take k = List.filteri (fun i _ -> i < k) top |> List.map fst in
    let rec search k cum = function
      | [] -> None
      | (_, count) :: rest ->
        let cum = cum +. (float_of_int count /. totalf) in
        if cum >= cutoffs.(k - 1) then Some (take k)
        else if k >= 4 then None
        else search (k + 1) cum rest
    in
    search 1 0.0 top
  end

let classify (sl : Profile.static_load) =
  if sl.sl_count <= 1 then Unique
  else
    match dominant_strides sl with
    | Some strides -> Strided strides
    | None -> Random_strided

let fig_label (sl : Profile.static_load) =
  if sl.sl_count <= 1 then "UNIQUE"
  else
    match dominant_strides sl with
    | None -> "RANDOM"
    | Some strides ->
      if List.length strides = 1 && Histogram.distinct sl.sl_strides = 1 then "STRIDE"
      else Printf.sprintf "FILTER-%d" (List.length strides)
