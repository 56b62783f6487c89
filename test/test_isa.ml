(* Tests for the micro-op ISA module. *)

let test_class_roundtrip () =
  Alcotest.(check int) "ten classes" 10 (List.length Isa.all_classes);
  Alcotest.(check int) "n_classes consistent" Isa.n_classes
    (List.length Isa.all_classes);
  (* indices are a bijection onto 0..n-1 *)
  let idxs = List.map Isa.class_index Isa.all_classes in
  Alcotest.(check (list int)) "indices 0..9" (List.init 10 (fun i -> i))
    (List.sort compare idxs)

let test_class_names_unique () =
  let names = List.map Isa.class_to_string Isa.all_classes in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_is_memory () =
  Alcotest.(check bool) "load" true (Isa.is_memory { Isa.nop with cls = Isa.Load });
  Alcotest.(check bool) "store" true (Isa.is_memory { Isa.nop with cls = Isa.Store });
  Alcotest.(check bool) "alu" false (Isa.is_memory { Isa.nop with cls = Isa.Int_alu });
  Alcotest.(check bool) "branch" false
    (Isa.is_memory { Isa.nop with cls = Isa.Branch })

let test_nop_shape () =
  Alcotest.(check bool) "nop is move" true (Isa.nop.cls = Isa.Move);
  Alcotest.(check int) "no deps" 0 Isa.nop.dep1;
  Alcotest.(check bool) "begins instruction" true Isa.nop.begins_instruction

let test_class_counts () =
  let c = Isa.Class_counts.create () in
  Isa.Class_counts.incr c Isa.Load;
  Isa.Class_counts.incr c Isa.Load;
  Isa.Class_counts.add c Isa.Branch 3;
  Alcotest.(check int) "loads" 2 (Isa.Class_counts.get c Isa.Load);
  Alcotest.(check int) "branches" 3 (Isa.Class_counts.get c Isa.Branch);
  Alcotest.(check int) "total" 5 (Isa.Class_counts.total c);
  Alcotest.(check (float 1e-9)) "fraction" 0.4 (Isa.Class_counts.fraction c Isa.Load)

let test_class_counts_merge () =
  let a = Isa.Class_counts.create () and b = Isa.Class_counts.create () in
  Isa.Class_counts.add a Isa.Load 2;
  Isa.Class_counts.add b Isa.Load 3;
  Isa.Class_counts.add b Isa.Store 1;
  let m = Isa.Class_counts.merge a b in
  Alcotest.(check int) "merged loads" 5 (Isa.Class_counts.get m Isa.Load);
  Alcotest.(check int) "merged total" 6 (Isa.Class_counts.total m);
  (* merge does not alias its inputs *)
  Isa.Class_counts.incr a Isa.Load;
  Alcotest.(check int) "no aliasing" 5 (Isa.Class_counts.get m Isa.Load)

let test_class_counts_copy () =
  let a = Isa.Class_counts.create () in
  Isa.Class_counts.add a Isa.Move 7;
  let b = Isa.Class_counts.copy a in
  Isa.Class_counts.incr a Isa.Move;
  Alcotest.(check int) "copy unaffected" 7 (Isa.Class_counts.get b Isa.Move)

let test_class_counts_to_list () =
  let a = Isa.Class_counts.create () in
  Isa.Class_counts.add a Isa.Fp_mul 4;
  let l = Isa.Class_counts.to_list a in
  Alcotest.(check int) "covers all classes" Isa.n_classes (List.length l);
  Alcotest.(check int) "fp_mul entry" 4 (List.assoc Isa.Fp_mul l)

let prop_fraction_sums_to_one =
  QCheck.Test.make ~name:"class fractions sum to one" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 9))
    (fun idxs ->
      let c = Isa.Class_counts.create () in
      List.iter
        (fun i -> Isa.Class_counts.incr c (List.nth Isa.all_classes i))
        idxs;
      let sum =
        List.fold_left
          (fun acc cls -> acc +. Isa.Class_counts.fraction c cls)
          0.0 Isa.all_classes
      in
      Float.abs (sum -. 1.0) < 1e-9)

let () =
  Alcotest.run "isa"
    [
      ( "classes",
        [
          Alcotest.test_case "roundtrip" `Quick test_class_roundtrip;
          Alcotest.test_case "unique names" `Quick test_class_names_unique;
          Alcotest.test_case "is_memory" `Quick test_is_memory;
          Alcotest.test_case "nop" `Quick test_nop_shape;
        ] );
      ( "class_counts",
        [
          Alcotest.test_case "basic" `Quick test_class_counts;
          Alcotest.test_case "merge" `Quick test_class_counts_merge;
          Alcotest.test_case "copy" `Quick test_class_counts_copy;
          Alcotest.test_case "to_list" `Quick test_class_counts_to_list;
          QCheck_alcotest.to_alcotest prop_fraction_sums_to_one;
        ] );
    ]
