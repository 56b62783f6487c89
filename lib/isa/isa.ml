type uop_class =
  | Int_alu
  | Int_mul
  | Int_div
  | Fp_alu
  | Fp_mul
  | Fp_div
  | Load
  | Store
  | Branch
  | Move

let all_classes =
  [ Int_alu; Int_mul; Int_div; Fp_alu; Fp_mul; Fp_div; Load; Store; Branch; Move ]

let class_to_string = function
  | Int_alu -> "int_alu"
  | Int_mul -> "int_mul"
  | Int_div -> "int_div"
  | Fp_alu -> "fp_alu"
  | Fp_mul -> "fp_mul"
  | Fp_div -> "fp_div"
  | Load -> "load"
  | Store -> "store"
  | Branch -> "branch"
  | Move -> "move"

let class_index = function
  | Int_alu -> 0
  | Int_mul -> 1
  | Int_div -> 2
  | Fp_alu -> 3
  | Fp_mul -> 4
  | Fp_div -> 5
  | Load -> 6
  | Store -> 7
  | Branch -> 8
  | Move -> 9

let n_classes = 10

type uop = {
  cls : uop_class;
  dep1 : int;
  dep2 : int;
  addr : int;
  taken : bool;
  static_id : int;
  begins_instruction : bool;
}

let is_memory u = match u.cls with Load | Store -> true | _ -> false

let nop =
  {
    cls = Move;
    dep1 = 0;
    dep2 = 0;
    addr = 0;
    taken = false;
    static_id = 0;
    begins_instruction = true;
  }

module Class_counts = struct
  type t = int array

  let create () = Array.make n_classes 0
  let copy = Array.copy
  let incr t cls = t.(class_index cls) <- t.(class_index cls) + 1
  let add t cls n = t.(class_index cls) <- t.(class_index cls) + n
  let get t cls = t.(class_index cls)
  let total t = Array.fold_left ( + ) 0 t

  let fraction t cls =
    let tot = total t in
    if tot = 0 then 0.0 else float_of_int (get t cls) /. float_of_int tot

  let merge a b = Array.init n_classes (fun i -> a.(i) + b.(i))

  let to_list t = List.map (fun c -> (c, get t c)) all_classes
end
