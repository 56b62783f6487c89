type template =
  | T_alu
  | T_alu_mem
  | T_mul
  | T_div
  | T_fp
  | T_fp_mul
  | T_fp_div
  | T_load
  | T_store
  | T_store2
  | T_branch
  | T_branch_cmp
  | T_move

type stride_pattern = Fixed_strides of int list | Random_in | Unique

type load_group = {
  lg_weight : float;
  lg_pattern : stride_pattern;
  lg_footprint_bytes : int;
}

type branch_kind = Loop_every of int | Biased of float | Pattern of bool array

type branch_group = { bg_weight : float; bg_kind : branch_kind }

type phase = {
  ph_name : string;
  templates : (float * template) array;
  dep_prob : float;
  dep_mean : float;
  far_dep_frac : float;
  dep2_prob : float;
  load_dep_prob : float;
  chain_prob : float;
  n_chains : int;
  body_size : int;
  n_bodies : int;
  body_burst : int;
  load_groups : load_group array;
  store_footprint_bytes : int;
  branch_groups : branch_group array;
}

type t = { wname : string; phase_length : int; phases : phase array }

let default_phase =
  {
    ph_name = "main";
    templates =
      [|
        (0.28, T_alu);
        (0.08, T_alu_mem);
        (0.02, T_mul);
        (0.005, T_div);
        (0.05, T_fp);
        (0.02, T_fp_mul);
        (0.18, T_load);
        (0.08, T_store);
        (0.03, T_store2);
        (0.08, T_branch);
        (0.06, T_branch_cmp);
        (0.095, T_move);
      |];
    dep_prob = 0.6;
    dep_mean = 6.0;
    far_dep_frac = 0.3;
    dep2_prob = 0.35;
    load_dep_prob = 0.05;
    chain_prob = 0.1;
    n_chains = 4;
    body_size = 512;
    n_bodies = 1;
    body_burst = 20_000;
    load_groups =
      [|
        { lg_weight = 0.6; lg_pattern = Fixed_strides [ 8 ];
          lg_footprint_bytes = 16 * 1024 };
        { lg_weight = 0.3; lg_pattern = Random_in; lg_footprint_bytes = 64 * 1024 };
        { lg_weight = 0.1; lg_pattern = Fixed_strides [ 64; 8 ];
          lg_footprint_bytes = 128 * 1024 };
      |];
    store_footprint_bytes = 32 * 1024;
    branch_groups =
      [|
        { bg_weight = 0.5; bg_kind = Loop_every 16 };
        { bg_weight = 0.3; bg_kind = Pattern [| true; true; false; true |] };
        { bg_weight = 0.2; bg_kind = Biased 0.7 };
      |];
  }

let validate t =
  let ( let* ) = Result.bind in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (Array.length t.phases > 0) "no phases" in
  let* () = check (t.phase_length > 0) "phase_length must be positive" in
  let check_phase p =
    let sum_w = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 p.templates in
    let* () = check (sum_w > 0.0) (p.ph_name ^ ": template weights sum to zero") in
    let* () = check (p.dep_mean >= 1.0) (p.ph_name ^ ": dep_mean must be >= 1") in
    let* () =
      check (p.dep_prob >= 0.0 && p.dep_prob <= 1.0)
        (p.ph_name ^ ": dep_prob out of range")
    in
    let* () =
      check (p.far_dep_frac >= 0.0 && p.far_dep_frac <= 1.0)
        (p.ph_name ^ ": far_dep_frac out of range")
    in
    let* () = check (p.body_size > 1) (p.ph_name ^ ": body_size must exceed 1") in
    let* () = check (p.n_bodies >= 1) (p.ph_name ^ ": need at least one body") in
    let* () =
      check (p.body_burst > 0) (p.ph_name ^ ": body_burst must be positive")
    in
    let* () =
      check
        (Array.for_all (fun g -> g.lg_weight >= 0.0) p.load_groups
        && Array.length p.load_groups > 0)
        (p.ph_name ^ ": bad load groups")
    in
    let* () =
      check
        (Array.for_all
           (fun g ->
             match g.bg_kind with
             | Loop_every k -> k >= 2
             | Biased pr -> pr >= 0.0 && pr <= 1.0
             | Pattern arr -> Array.length arr > 0)
           p.branch_groups
        && Array.length p.branch_groups > 0)
        (p.ph_name ^ ": bad branch groups")
    in
    check (p.n_chains >= 1) (p.ph_name ^ ": n_chains must be >= 1")
  in
  Array.fold_left
    (fun acc p -> match acc with Error _ -> acc | Ok () -> check_phase p)
    (Ok ()) t.phases
