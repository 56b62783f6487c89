(* Pareto-guided hierarchical refinement (§7.4 at generation scale).

   Exhaustively sweeping a million-point space is cheap enough for one
   workload, but the frontier itself lives on a tiny sliver of it.  This
   engine evaluates a coarse axis-subgrid first, then repeatedly refines
   around the current Pareto front: each round halves the stride and
   evaluates the axis-neighborhood (every digit combination at +/- the
   stride, clamped to the grid) of every front point, until the stride
   is one and a round adds no new points.  Only evaluated points are
   ever held in memory, so the cost is a few thousand points instead of
   the full cross product.

   The front of a grid-sampled space is found reliably by this scheme
   because the model's responses are monotone-ish along each axis: a
   front point of the full space is (almost always) within one coarse
   cell of a front point of the subgrid.  The claim is checked, not
   assumed — the test suite scores refinement against the exhaustive
   front of the enumerable 243-point space with Pareto.subset_quality
   and requires sensitivity, specificity and HVR >= 0.95. *)

type report = {
  rf_evaluated : int;  (* distinct points evaluated *)
  rf_failed : int;  (* points whose evaluation faulted *)
  rf_rounds : int;
  rf_front : Pareto.point list;
  rf_front_evals : Sweep.eval list;
}

(* Coarse subgrid along each axis: every [stride]-th digit plus the last
   one, so both endpoints are always sampled. *)
let coarse_digits n_values stride =
  let rec go i acc =
    if i >= n_values - 1 then List.rev ((n_values - 1) :: acc)
    else go (i + stride) (i :: acc)
  in
  if n_values = 1 then [ 0 ] else go 0 []

let cross_product lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    lists [ [] ]

let neighborhood axes digits stride =
  let choices =
    Array.to_list
      (Array.mapi
         (fun k d ->
           let last = Array.length axes.(k).Config_space.ax_values - 1 in
           List.sort_uniq compare
             [ max 0 (d - stride); d; min last (d + stride) ])
         digits)
  in
  cross_product choices

let run ?(initial_stride = 4) ?(max_rounds = 12) ?(jobs = 1) ~space
    ~eval_point () =
  if initial_stride < 1 then
    Error
      (Fault.bad_input ~context:"refine"
         (Printf.sprintf "initial stride %d, must be >= 1" initial_stride))
  else begin
    let axes = Config_space.axes space in
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
    let evals = ref [] in
    let failed = ref 0 in
    (* Evaluate the not-yet-seen candidates, in index order so that
       results (and any fault reporting) are deterministic. *)
    let evaluate candidates =
      let fresh =
        List.filter
          (fun i ->
            if Hashtbl.mem seen i then false
            else begin
              Hashtbl.add seen i ();
              true
            end)
          (List.sort_uniq compare candidates)
      in
      let results = Parallel.map_result ~jobs eval_point fresh in
      List.iter
        (fun r ->
          match Result.bind r Sweep.check_numeric with
          | Ok e -> evals := e :: !evals
          | Error _ -> incr failed)
        results;
      List.length fresh
    in
    let front () = Pareto.frontier (Sweep.pareto_points !evals) in
    let seed =
      cross_product
        (Array.to_list
           (Array.map
              (fun ax ->
                coarse_digits (Array.length ax.Config_space.ax_values)
                  initial_stride)
              axes))
      |> List.map (fun digits ->
             Config_space.index_of_digits space (Array.of_list digits))
    in
    ignore (evaluate seed);
    let rounds = ref 0 in
    let stride = ref initial_stride in
    let continue_ = ref true in
    while !continue_ && !rounds < max_rounds do
      incr rounds;
      if !stride > 1 then stride := !stride / 2;
      let candidates =
        List.concat_map
          (fun (p : Pareto.point) ->
            neighborhood axes
              (Config_space.digits_of_index space p.Pareto.pt_id)
              !stride
            |> List.map (fun digits ->
                   Config_space.index_of_digits space (Array.of_list digits)))
          (front ())
      in
      let fresh = evaluate candidates in
      (* Converged once the finest stride adds nothing around the front. *)
      if fresh = 0 && !stride = 1 then continue_ := false
    done;
    let front = front () in
    let by_id = Hashtbl.create 64 in
    List.iter (fun (e : Sweep.eval) -> Hashtbl.replace by_id e.sw_index e) !evals;
    Ok
      {
        rf_evaluated = Hashtbl.length seen;
        rf_failed = !failed;
        rf_rounds = !rounds;
        rf_front = front;
        rf_front_evals =
          List.filter_map
            (fun (p : Pareto.point) -> Hashtbl.find_opt by_id p.Pareto.pt_id)
            front;
      }
  end

let model_refine ?(options = Interval_model.default_options) ?initial_stride
    ?max_rounds ?jobs ~profile space =
  match Profile.validate profile with
  | Error ft -> Error ft
  | Ok () ->
    (* As in Sweep.model_sweep_result: build every config-independent
       structure before the fan-out, in either combine mode, so no
       worker races a first force of a shared lazy. *)
    Profile.prepare profile;
    run ?initial_stride ?max_rounds ?jobs ~space
      ~eval_point:(fun i ->
        let config = Config_space.config_of_index space i in
        Sweep.of_prediction config ~index:i
          (Interval_model.predict ~options config profile))
      ()
