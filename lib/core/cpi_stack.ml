(* The shared keyed CPI-stack representation.

   Both the analytical model (Interval_model.components) and the cycle
   simulator (Sim_result.stack) decompose execution time into the same
   five interval-analysis components.  Before this module each side
   carried its own record and its own positional (string * float) list,
   so a diff had to trust that the labels lined up; here the component
   set is one enumeration and a stack is keyed by it, making the two
   engines comparable by construction. *)

type component = Base | Branch | Icache | Llc_hit | Dram

let all = [ Base; Branch; Icache; Llc_hit; Dram ]
let n_components = List.length all

let index = function
  | Base -> 0
  | Branch -> 1
  | Icache -> 2
  | Llc_hit -> 3
  | Dram -> 4

let to_string = function
  | Base -> "base"
  | Branch -> "branch"
  | Icache -> "icache"
  | Llc_hit -> "llc-hit"
  | Dram -> "dram"

type t = float array (* length n_components, indexed by [index] *)

let make f = Array.init n_components (fun i -> f (List.nth all i))
let get (t : t) c = t.(index c)
let of_values ~base ~branch ~icache ~llc_hit ~dram : t =
  [| base; branch; icache; llc_hit; dram |]

let total (t : t) = Array.fold_left ( +. ) 0.0 t
let scale (t : t) k = Array.map (fun v -> v *. k) t
let map2 f (a : t) (b : t) : t = Array.map2 f a b
let to_alist (t : t) = List.map (fun c -> (c, get t c)) all
let labeled_alist (t : t) = List.map (fun c -> (to_string c, get t c)) all
