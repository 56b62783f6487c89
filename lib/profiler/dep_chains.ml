let default_rob_sizes = Array.init 16 (fun i -> 16 * (i + 1))

let window_depths (uops : Isa.uop array) ~lo ~hi =
  let n = hi - lo in
  let depth = Array.make n 0 in
  for i = 0 to n - 1 do
    let u = uops.(lo + i) in
    (* Compared inline: [max] is polymorphic, a C call per micro-op. *)
    let p1 = if u.dep1 > 0 && i - u.dep1 >= 0 then depth.(i - u.dep1) else 0 in
    let p2 = if u.dep2 > 0 && i - u.dep2 >= 0 then depth.(i - u.dep2) else 0 in
    depth.(i) <- 1 + if p1 > p2 then p1 else p2
  done;
  depth

let analyze ?(rob_sizes = default_rob_sizes) uops =
  let n = Array.length uops in
  let k = Array.length rob_sizes in
  let ap = Array.make k 0.0 in
  let abp = Array.make k 0.0 in
  let cp = Array.make k 0.0 in
  let abp_windows = Array.make k 0 in
  Array.iteri
    (fun si rob ->
      let n_windows = ref 0 in
      let ap_sum = ref 0.0 and abp_sum = ref 0.0 and cp_sum = ref 0.0 in
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + rob) in
        if hi - !lo >= 2 then begin
          let depth = window_depths uops ~lo:!lo ~hi in
          let w = hi - !lo in
          let sum = ref 0 and maxd = ref 0 in
          let bsum = ref 0 and bcount = ref 0 in
          for i = 0 to w - 1 do
            sum := !sum + depth.(i);
            if depth.(i) > !maxd then maxd := depth.(i);
            if uops.(!lo + i).cls = Isa.Branch then begin
              bsum := !bsum + depth.(i);
              incr bcount
            end
          done;
          incr n_windows;
          ap_sum := !ap_sum +. (float_of_int !sum /. float_of_int w);
          cp_sum := !cp_sum +. float_of_int !maxd;
          if !bcount > 0 then begin
            abp_windows.(si) <- abp_windows.(si) + 1;
            abp_sum := !abp_sum +. (float_of_int !bsum /. float_of_int !bcount)
          end
        end;
        lo := !lo + rob
      done;
      if !n_windows > 0 then begin
        ap.(si) <- !ap_sum /. float_of_int !n_windows;
        cp.(si) <- !cp_sum /. float_of_int !n_windows
      end;
      if abp_windows.(si) > 0 then
        abp.(si) <- !abp_sum /. float_of_int abp_windows.(si)
      else abp.(si) <- ap.(si))
    rob_sizes;
  { Profile.rob_sizes; ap; abp; cp; abp_windows }

let load_depth_distribution ~window uops =
  let n = Array.length uops in
  let hist = Histogram.create () in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + window) in
    let w = hi - !lo in
    (* load_depth.(i): number of loads on the longest load-bearing
       dependence path ending at micro-op i (i included when it is a
       load). *)
    let load_depth = Array.make w 0 in
    for i = 0 to w - 1 do
      let u : Isa.uop = uops.(!lo + i) in
      let a1 = if u.dep1 > 0 && i - u.dep1 >= 0 then load_depth.(i - u.dep1) else 0 in
      let a2 = if u.dep2 > 0 && i - u.dep2 >= 0 then load_depth.(i - u.dep2) else 0 in
      let inherited = if a1 > a2 then a1 else a2 in
      if u.cls = Isa.Load then begin
        load_depth.(i) <- inherited + 1;
        Histogram.add hist load_depth.(i)
      end
      else load_depth.(i) <- inherited
    done;
    lo := !lo + window
  done;
  hist
