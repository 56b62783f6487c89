type eval = {
  sw_index : int;
  sw_config : Uarch.t;
  sw_cpi : float;
  sw_cycles : float;
  sw_watts : float;
  sw_seconds : float;
  sw_energy_j : float;
  sw_ed2p : float;
}

let of_prediction ?cycles config ~index (p : Interval_model.prediction) =
  let cycles = Option.value cycles ~default:p.pr_cycles in
  let breakdown = Power.estimate config p.pr_activity in
  {
    sw_index = index;
    sw_config = config;
    sw_cpi =
      (if p.pr_instructions = 0.0 then 0.0 else cycles /. p.pr_instructions);
    sw_cycles = cycles;
    sw_watts = breakdown.total_watts;
    sw_seconds = Power.seconds_of_cycles config cycles;
    sw_energy_j = Power.energy_joules config breakdown ~cycles;
    sw_ed2p = Power.ed2p config breakdown ~cycles;
  }

(* ---- Fault-isolated engine ---- *)

type point_result = (eval, Fault.t) result

type outcome = {
  o_results : point_result list;
  o_ok : int;
  o_failed : int;
  o_resumed : int;
}

type 'a run = {
  run_results : ('a, Fault.t) result list;
  run_ok : int;
  run_failed : int;
  run_resumed : int;
}

let vec_of_eval e =
  [| e.sw_cpi; e.sw_cycles; e.sw_watts; e.sw_seconds; e.sw_energy_j;
     e.sw_ed2p |]

let eval_of_vec config ~index v =
  if Array.length v <> 6 then None
  else
    Some
      {
        sw_index = index;
        sw_config = config;
        sw_cpi = v.(0);
        sw_cycles = v.(1);
        sw_watts = v.(2);
        sw_seconds = v.(3);
        sw_energy_j = v.(4);
        sw_ed2p = v.(5);
      }

type adjust =
  string * (Profile.t -> Uarch.t -> Interval_model.prediction -> Cpi_stack.t * float)

(* A design point whose prediction came out NaN/infinite is a fault of
   that point, not a value to rank: Pareto fronts and best-under-budget
   comparisons silently misbehave on NaN. *)
let non_finite (e : eval) name v =
  Error
    (Fault.numeric
       (Printf.sprintf "design point %d: non-finite %s (%h)" e.sw_index name v))

let check_numeric (e : eval) =
  if not (Float.is_finite e.sw_cpi) then non_finite e "cpi" e.sw_cpi
  else if not (Float.is_finite e.sw_cycles) then non_finite e "cycles" e.sw_cycles
  else if not (Float.is_finite e.sw_watts) then non_finite e "watts" e.sw_watts
  else if not (Float.is_finite e.sw_seconds) then non_finite e "seconds" e.sw_seconds
  else if not (Float.is_finite e.sw_energy_j) then non_finite e "energy_j" e.sw_energy_j
  else if not (Float.is_finite e.sw_ed2p) then non_finite e "ed2p" e.sw_ed2p
  else Ok e

(* ---- The evaluation loop ----

   One engine walks every sweep: restore the records a checkpoint
   already holds, evaluate the pending points in blocks, [jobs] blocks at
   a time, and append each group's records before starting the next.  A
   per-point sweep's point is one design point; a streaming sweep's is
   one fixed index block of the space, folded to a summary. *)

let default_point_block_size = 64

(* [faulted] is the stop rule: without [keep_going] the group holding
   the first point it flags finishes and the later blocks are left
   unevaluated (and unlogged).  A per-point sweep stops on an [Error]; a
   streaming sweep also on a block holding a failed point. *)
let run_points_until ~faulted ?(jobs = 1) ?checkpoint
    ?(block_size = default_point_block_size) ?(keep_going = true) ~workload
    ~n_points ~encode ~decode ~check ~eval_point () =
  let n = n_points in
  let jobs = max 1 jobs in
  (* The caller's [decode] runs at open time, so a record of the wrong
     shape ends the trusted prefix like a torn one. *)
  let decode_record payload =
    Option.bind (Checkpoint.decode_point ~n_points:n payload) (function
      | i, Ok v -> Option.map (fun x -> (i, Ok x)) (decode ~index:i v)
      | i, Error ft -> Some (i, Error ft))
  in
  let ( let* ) = Result.bind in
  let* log, restored =
    match checkpoint with
    | None -> Ok (None, [])
    | Some path ->
      Result.map
        (fun (log, restored) -> (Some log, restored))
        (Checkpoint.open_ path
           ~header:(Checkpoint.point_header ~workload ~n_points:n)
           ~decode:decode_record)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Checkpoint.close log)
    (fun () ->
      let known = Array.make n None in
      let resumed = ref 0 in
      List.iter
        (fun (i, r) ->
          if known.(i) = None then begin
            incr resumed;
            known.(i) <- Some r
          end)
        restored;
      let pending =
        Array.of_list (List.filter (fun i -> known.(i) = None) (List.init n Fun.id))
      in
      let m = Array.length pending in
      (* Blocks are runs of pending indices, [min block_size (ceil
         (pending / jobs))] long, so a small matrix still spreads over
         every domain; the records carry no block structure, so a log
         resumes under any [jobs].  [block_size] bounds what a kill loses
         and how far a run goes past its first fault; with neither a log
         nor a stop to bound, each domain takes one block, in a single
         fan-out. *)
      let even = max 1 ((m + jobs - 1) / jobs) in
      let size =
        if Option.is_none log && keep_going then even
        else max 1 (min block_size even)
      in
      let blocks =
        Array.init
          ((m + size - 1) / size)
          (fun b -> Array.sub pending (b * size) (min size (m - (b * size))))
      in
      let eval_block =
        Array.map (fun i -> (i, Result.bind (Parallel.capture eval_point i) check))
      in
      (* Each group's records are appended in index order before the next
         group starts, so a kill loses at most the in-flight group. *)
      let rec go start =
        if start < Array.length blocks then begin
          let group =
            Array.sub blocks start (min jobs (Array.length blocks - start))
          in
          let out =
            Array.concat (Array.to_list (Parallel.map_array ~jobs eval_block group))
          in
          Array.iter (fun (i, r) -> known.(i) <- Some r) out;
          Option.iter
            (fun log ->
              Checkpoint.append log
                (Array.to_list
                   (Array.map
                      (fun (i, r) -> Checkpoint.encode_point i (Result.map encode r))
                      out)))
            log;
          if keep_going || not (Array.exists (fun (_, r) -> faulted r) out) then
            go (start + Array.length group)
        end
      in
      go 0;
      let results =
        List.init n (fun i ->
            match known.(i) with
            | Some r -> r
            | None ->
              Error
                (Fault.bad_input ~context:"sweep"
                   (Printf.sprintf
                      "design point %d skipped: an earlier point failed (run \
                       with keep-going to evaluate every point)"
                      i)))
      in
      let ok = List.length (List.filter Result.is_ok results) in
      Ok
        {
          run_results = results;
          run_ok = ok;
          run_failed = n - ok;
          run_resumed = !resumed;
        })

let run_points ?jobs ?checkpoint ?block_size ?keep_going ~workload ~n_points
    ~encode ~decode ~check ~eval_point () =
  run_points_until ~faulted:Result.is_error ?jobs ?checkpoint ?block_size
    ?keep_going ~workload ~n_points ~encode ~decode ~check ~eval_point ()

(* The name a checkpointed run carries in its log header: the workload
   and a digest of [inputs ()], everything its results depend on.  Only
   built when there is a log — encoding a profile costs milliseconds. *)
let run_name ~checkpoint ~workload inputs =
  match checkpoint with
  | None -> workload
  | Some _ -> Checkpoint.run_id ~workload (inputs ())

let marshal v = Marshal.to_string v [ Marshal.No_sharing ]

(* Encoding the profile is the costly part of a run name (milliseconds
   for a large profile).  The digest of the last one is kept, by the
   profile's physical identity and holding it weakly, so checkpointing
   sweep after sweep of one profile encodes it once. *)
let last_profile_digest : (Profile.t Weak.t * string) option Atomic.t =
  Atomic.make None

let profile_digest profile =
  match Atomic.get last_profile_digest with
  | Some (weak, digest)
    when (match Weak.get weak 0 with Some p -> p == profile | None -> false) ->
    digest
  | _ ->
    let digest = Digest.string (Profile_io.to_binary_string profile) in
    let weak = Weak.create 1 in
    Weak.set weak 0 (Some profile);
    Atomic.set last_profile_digest (Some (weak, digest));
    digest

(* The inputs of a model sweep beyond its points. *)
let model_inputs ~options ~adjust ~profile =
  [
    profile_digest profile;
    Interval_model.options_key options profile;
    (match adjust with None -> "unadjusted" | Some (key, _) -> "adjusted " ^ key);
  ]

(* ---- Model evaluation with prediction reuse ----

   [Interval_model.predict] depends on a config only through
   [Interval_model.timing_key]: configs that differ in name and DVFS
   operating point get the same prediction, bit for bit, apart from
   [pr_uarch].  Each domain keeps its last prediction in a one-entry
   cell and reuses it while the profile, the options (both by physical
   identity) and the timing stay the same ([Interval_model.same_timing],
   which builds no key).  Every sweep hands a domain consecutive indices
   in ascending order, so in a space whose innermost axis is the
   operating point every run of DVFS siblings costs one [predict].
   Power, seconds, energy and [adjust] still see each point's own
   config.  The profile is held weakly: the cell never keeps an evicted
   profile alive. *)

type last_predict = {
  lp_profile : Profile.t Weak.t;
  lp_options : Interval_model.options;
  lp_config : Uarch.t;
  lp_pred : Interval_model.prediction;
}

let last_predict : last_predict option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The prediction for [config], possibly a timing-equivalent neighbour's:
   its [pr_uarch] may name that neighbour. *)
let predict_reusing ~options (config : Uarch.t) profile =
  let cell = Domain.DLS.get last_predict in
  match !cell with
  | Some lp
    when lp.lp_options == options
         && (match Weak.get lp.lp_profile 0 with
            | Some p -> p == profile
            | None -> false)
         && Interval_model.same_timing lp.lp_config config ->
    lp.lp_pred
  | _ ->
    let pred = Interval_model.predict ~options config profile in
    let weak = Weak.create 1 in
    Weak.set weak 0 (Some profile);
    cell :=
      Some
        { lp_profile = weak; lp_options = options; lp_config = config; lp_pred = pred };
    pred

let model_eval ?(options = Interval_model.default_options) ?adjust profile =
  let correct = Option.map (fun (_, f) -> f profile) adjust in
  fun (config : Uarch.t) ~index ->
    let pred = predict_reusing ~options config profile in
    match correct with
    | None -> (Interval_model.cpi_stack pred, of_prediction config ~index pred)
    | Some f ->
      let pred =
        if String.equal pred.pr_uarch config.name then pred
        else { pred with pr_uarch = config.name }
      in
      let stack, cpi = f config pred in
      ( stack,
        of_prediction ~cycles:(cpi *. pred.pr_instructions) config ~index pred )

(* [model_eval]'s eval alone, which is all a sweep keeps of a point:
   without [adjust] no stack is built. *)
let model_point ?(options = Interval_model.default_options) ?adjust profile =
  match adjust with
  | Some _ ->
    let eval = model_eval ~options ?adjust profile in
    fun config ~index -> snd (eval config ~index)
  | None ->
    fun config ~index ->
      of_prediction config ~index (predict_reusing ~options config profile)

(* Validate the profile and build its config-independent structures
   once, before any fan-out: the worker domains then only read them, and
   the per-static-load lazies, which [`Combined] mode reads too, are
   already forced (a racing first force would raise [Lazy.Undefined]). *)
let prepared profile =
  Result.map (fun () -> Profile.prepare profile) (Profile.validate profile)

let model_sweep_result ?(options = Interval_model.default_options) ?jobs
    ?checkpoint ?block_size ?keep_going ?adjust ~profile configs =
  Result.bind (prepared profile) (fun () ->
      let eval = model_point ~options ?adjust profile in
      let configs_a = Array.of_list configs in
      (* The payload is the six [eval] numbers; configs are reconstructed
         from the point index. *)
      Result.map
        (fun r ->
          {
            o_results = r.run_results;
            o_ok = r.run_ok;
            o_failed = r.run_failed;
            o_resumed = r.run_resumed;
          })
        (run_points ?jobs ?checkpoint ?block_size ?keep_going
           ~workload:
             (run_name ~checkpoint ~workload:profile.Profile.p_workload
                (fun () ->
                  "model" :: marshal configs
                  :: model_inputs ~options ~adjust ~profile))
           ~n_points:(Array.length configs_a) ~encode:vec_of_eval
           ~decode:(fun ~index v -> eval_of_vec configs_a.(index) ~index v)
           ~check:check_numeric
           ~eval_point:(fun i -> eval configs_a.(i) ~index:i)
           ()))

(* ---- Streaming sweeps ---- *)

(* A per-point sweep keeps one result per point in memory and
   checkpoints one record per point — fine at 10^3 points, fatal at
   10^6.  A streaming sweep instead walks the index range in fixed
   [block_size] blocks and runs the engine over the blocks: each block
   is one "point", folded into a fixed-width accumulator vector plus a
   local Pareto front and then dropped, so peak RSS and checkpoint size
   depend on the block count, never the point count.

   Determinism: points within a block are evaluated sequentially in
   index order; blocks are merged in ascending block order; all
   min/argmin updates use strict [<], so the lowest index wins every
   tie.  The merged summary is therefore a pure function of (range,
   block_size) — independent of [jobs] and of where a kill-and-resume
   split the run (floats round-trip the checkpoint as IEEE-754 bit
   patterns). *)

let stream_stats_width = 14

(* Stats-vector slots. *)
let s_ok = 0

let s_failed = 1
let s_sum_cpi = 2
let s_sum_cycles = 3
let s_sum_watts = 4
let s_sum_seconds = 5
let s_sum_energy = 6
let s_sum_ed2p = 7
let s_min_seconds = 8
let s_arg_seconds = 9
let s_min_energy = 10
let s_arg_energy = 11
let s_min_ed2p = 12
let s_arg_ed2p = 13

let init_stats () =
  let stats = Array.make stream_stats_width 0.0 in
  stats.(s_min_seconds) <- infinity;
  stats.(s_min_energy) <- infinity;
  stats.(s_min_ed2p) <- infinity;
  stats.(s_arg_seconds) <- -1.0;
  stats.(s_arg_energy) <- -1.0;
  stats.(s_arg_ed2p) <- -1.0;
  stats

type stream_summary = {
  ss_n_points : int;
  ss_offset : int;
  ss_length : int;
  ss_block_size : int;
  ss_n_blocks : int;
  ss_resumed_blocks : int;
  ss_evaluated_blocks : int;
  ss_skipped_blocks : int;
  ss_ok : int;
  ss_failed : int;
  ss_sum_cpi : float;
  ss_sum_cycles : float;
  ss_sum_watts : float;
  ss_sum_seconds : float;
  ss_sum_energy_j : float;
  ss_sum_ed2p : float;
  ss_best_seconds : (int * float) option;
  ss_best_energy : (int * float) option;
  ss_best_ed2p : (int * float) option;
  ss_front : Pareto.point list;
  ss_front_evals : eval list;
  ss_sample_fault : Fault.t option;
}

(* A block's fold: its stats vector, its local front and (when this run
   evaluated it) its first fault. *)
type block = {
  b_stats : float array;
  b_front : Pareto.point list;
  b_fault : Fault.t option;
}

(* Evaluate the points [start, stop) sequentially in index order,
   folding them into a block.  Each point is evaluated under
   [Parallel.capture], so a crashing point faults exactly as in a
   per-point sweep. *)
let eval_block ~eval_point ~on_point ~start ~stop =
  let stats = init_stats () in
  let first_fault = ref None in
  let pts = ref [] in
  for i = start to stop - 1 do
    let r = Result.bind (Parallel.capture eval_point i) check_numeric in
    (match on_point with Some f -> f i r | None -> ());
    match r with
    | Error ft ->
      stats.(s_failed) <- stats.(s_failed) +. 1.0;
      if Option.is_none !first_fault then first_fault := Some ft
    | Ok e ->
      stats.(s_ok) <- stats.(s_ok) +. 1.0;
      stats.(s_sum_cpi) <- stats.(s_sum_cpi) +. e.sw_cpi;
      stats.(s_sum_cycles) <- stats.(s_sum_cycles) +. e.sw_cycles;
      stats.(s_sum_watts) <- stats.(s_sum_watts) +. e.sw_watts;
      stats.(s_sum_seconds) <- stats.(s_sum_seconds) +. e.sw_seconds;
      stats.(s_sum_energy) <- stats.(s_sum_energy) +. e.sw_energy_j;
      stats.(s_sum_ed2p) <- stats.(s_sum_ed2p) +. e.sw_ed2p;
      if e.sw_seconds < stats.(s_min_seconds) then begin
        stats.(s_min_seconds) <- e.sw_seconds;
        stats.(s_arg_seconds) <- float_of_int i
      end;
      if e.sw_energy_j < stats.(s_min_energy) then begin
        stats.(s_min_energy) <- e.sw_energy_j;
        stats.(s_arg_energy) <- float_of_int i
      end;
      if e.sw_ed2p < stats.(s_min_ed2p) then begin
        stats.(s_min_ed2p) <- e.sw_ed2p;
        stats.(s_arg_ed2p) <- float_of_int i
      end;
      pts :=
        { Pareto.pt_id = i; pt_delay = e.sw_seconds; pt_power = e.sw_watts }
        :: !pts
  done;
  { b_stats = stats; b_front = Pareto.frontier (List.rev !pts); b_fault = !first_fault }

(* A block's record: the stats vector, then an (id, delay, power) triple
   per front point. *)
let encode_block b =
  Array.append b.b_stats
    (Array.of_list
       (List.concat_map
          (fun (p : Pareto.point) -> [ float_of_int p.pt_id; p.pt_delay; p.pt_power ])
          b.b_front))

let decode_block v =
  let extra = Array.length v - stream_stats_width in
  if extra < 0 || extra mod 3 <> 0 then None
  else
    let at k = stream_stats_width + (3 * k) in
    Some
      {
        b_stats = Array.sub v 0 stream_stats_width;
        b_front =
          List.init (extra / 3) (fun k ->
              {
                Pareto.pt_id = int_of_float v.(at k);
                pt_delay = v.(at k + 1);
                pt_power = v.(at k + 2);
              });
        b_fault = None;
      }

let default_block_size = 4096

(* The engine over blocks, then the blocks merged in ascending order.
   The space size, range and block size go into the run's name, so a log
   of another range or block size is refused. *)
let run_stream ?jobs ?checkpoint ?(block_size = default_block_size)
    ?keep_going ?on_point ~workload ~n_points ?(offset = 0) ?length
    ~eval_point () =
  let length = match length with Some l -> l | None -> n_points - offset in
  if offset < 0 || length < 0 || offset > n_points - length then
    Error
      (Fault.bad_input ~context:"stream sweep"
         (Printf.sprintf "sub-range [%d, %d) outside the %d-point space"
            offset (offset + length) n_points))
  else if block_size < 1 then
    Error
      (Fault.bad_input ~context:"stream sweep"
         (Printf.sprintf "block size %d, must be >= 1" block_size))
  else begin
    let n_blocks = if length = 0 then 0 else ((length - 1) / block_size) + 1 in
    let evaluated = Atomic.make 0 in
    Result.map
      (fun (r : block run) ->
        (* Blocks cover consecutive ascending index ranges, so strict
           [<] keeps the lowest index across blocks exactly as it did
           within them.  A block left [Error] was skipped (or its fold
           raised): it adds no counts. *)
        let sums = init_stats () in
        let sample_fault = ref None in
        let front =
          List.concat_map
            (function
              | Error ft ->
                if Option.is_none !sample_fault then sample_fault := Some ft;
                []
              | Ok b ->
                if Option.is_none !sample_fault then sample_fault := b.b_fault;
                let st = b.b_stats in
                for k = s_ok to s_sum_ed2p do
                  sums.(k) <- sums.(k) +. st.(k)
                done;
                let merge_min m a =
                  if st.(m) < sums.(m) then begin
                    sums.(m) <- st.(m);
                    sums.(a) <- st.(a)
                  end
                in
                merge_min s_min_seconds s_arg_seconds;
                merge_min s_min_energy s_arg_energy;
                merge_min s_min_ed2p s_arg_ed2p;
                b.b_front)
            r.run_results
          |> Pareto.frontier
        in
        (* The front is a handful of points: re-derive their full evals
           (deterministic [eval_point]) rather than carrying every eval
           through the stream. *)
        let front_evals =
          Parallel.map_result ~jobs:1 eval_point
            (List.map (fun (p : Pareto.point) -> p.pt_id) front)
          |> List.filter_map Result.to_option
        in
        let best m a =
          if sums.(a) < 0.0 then None
          else Some (int_of_float sums.(a), sums.(m))
        in
        {
          ss_n_points = n_points;
          ss_offset = offset;
          ss_length = length;
          ss_block_size = block_size;
          ss_n_blocks = n_blocks;
          ss_resumed_blocks = r.run_resumed;
          ss_evaluated_blocks = Atomic.get evaluated;
          ss_skipped_blocks = n_blocks - r.run_resumed - Atomic.get evaluated;
          ss_ok = int_of_float sums.(s_ok);
          ss_failed = int_of_float sums.(s_failed);
          ss_sum_cpi = sums.(s_sum_cpi);
          ss_sum_cycles = sums.(s_sum_cycles);
          ss_sum_watts = sums.(s_sum_watts);
          ss_sum_seconds = sums.(s_sum_seconds);
          ss_sum_energy_j = sums.(s_sum_energy);
          ss_sum_ed2p = sums.(s_sum_ed2p);
          ss_best_seconds = best s_min_seconds s_arg_seconds;
          ss_best_energy = best s_min_energy s_arg_energy;
          ss_best_ed2p = best s_min_ed2p s_arg_ed2p;
          ss_front = front;
          ss_front_evals = front_evals;
          ss_sample_fault = !sample_fault;
        })
      (run_points_until
         ~faulted:(function Ok b -> b.b_stats.(s_failed) > 0.0 | Error _ -> true)
         ?jobs ?checkpoint ~block_size:1 ?keep_going
         ~workload:
           (Printf.sprintf "%s, blocks of %d over [%d, %d) of %d" workload
              block_size offset (offset + length) n_points)
         ~n_points:n_blocks ~encode:encode_block
         ~decode:(fun ~index:_ v -> decode_block v)
         ~check:Result.ok
         ~eval_point:(fun b ->
           Atomic.incr evaluated;
           eval_block ~eval_point ~on_point
             ~start:(offset + (b * block_size))
             ~stop:(offset + min length ((b + 1) * block_size)))
         ())
  end

let model_sweep_stream ?(options = Interval_model.default_options) ?jobs
    ?checkpoint ?block_size ?keep_going ?on_point ?offset ?length ?adjust
    ~profile space =
  Result.bind (prepared profile) (fun () ->
      let eval = model_point ~options ?adjust profile in
      run_stream ?jobs ?checkpoint ?block_size ?keep_going ?on_point
        ~workload:
          (run_name ~checkpoint ~workload:profile.Profile.p_workload (fun () ->
               "model"
               :: marshal (Config_space.name space, Config_space.axes space)
               :: model_inputs ~options ~adjust ~profile))
        ~n_points:(Config_space.size space) ?offset ?length
        ~eval_point:(fun i -> eval (Config_space.config_of_index space i) ~index:i)
        ())

(* ---- Legacy raising interface ---- *)

(* Kept for callers that want a plain eval list and exception-on-failure
   semantics; a [Worker_crash] re-raises the original exception with its
   backtrace, so pre-isolation behavior is preserved exactly. *)
let model_sweep ?options ?jobs ?adjust ~profile configs =
  match model_sweep_result ?options ?jobs ?adjust ~profile configs with
  | Error ft -> Fault.raise_error ft
  | Ok outcome ->
    List.map
      (function Ok e -> e | Error ft -> Fault.raise_error ft)
      outcome.o_results

let pareto_points evals =
  List.map
    (fun e ->
      { Pareto.pt_id = e.sw_index; pt_delay = e.sw_seconds; pt_power = e.sw_watts })
    evals

let best_under_power points ~budget_watts =
  List.fold_left
    (fun best (p : Pareto.point) ->
      if p.pt_power > budget_watts then best
      else
        match best with
        | None -> Some p
        | Some (b : Pareto.point) ->
          if p.pt_delay < b.pt_delay then Some p else best)
    None points
