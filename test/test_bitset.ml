(* Unit tests for the Bitset substrate. *)

let test_empty () =
  let s = Chg.Bitset.create 100 in
  Alcotest.(check bool) "is_empty" true (Chg.Bitset.is_empty s);
  Alcotest.(check int) "cardinal" 0 (Chg.Bitset.cardinal s);
  Alcotest.(check (list int)) "elements" [] (Chg.Bitset.elements s)

let test_add_mem () =
  let s = Chg.Bitset.create 130 in
  List.iter (Chg.Bitset.add s) [ 0; 63; 64; 129 ];
  Alcotest.(check bool) "mem 0" true (Chg.Bitset.mem s 0);
  Alcotest.(check bool) "mem 63" true (Chg.Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Chg.Bitset.mem s 64);
  Alcotest.(check bool) "mem 129" true (Chg.Bitset.mem s 129);
  Alcotest.(check bool) "not mem 1" false (Chg.Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 4 (Chg.Bitset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 129 ]
    (Chg.Bitset.elements s)

let test_remove () =
  let s = Chg.Bitset.create 10 in
  Chg.Bitset.add s 3;
  Chg.Bitset.add s 7;
  Chg.Bitset.remove s 3;
  Alcotest.(check bool) "removed" false (Chg.Bitset.mem s 3);
  Alcotest.(check bool) "kept" true (Chg.Bitset.mem s 7)

let test_union_into () =
  let a = Chg.Bitset.create 70 and b = Chg.Bitset.create 70 in
  Chg.Bitset.add a 1;
  Chg.Bitset.add b 65;
  Alcotest.(check bool) "changed" true (Chg.Bitset.union_into ~into:a b);
  Alcotest.(check bool) "unchanged" false (Chg.Bitset.union_into ~into:a b);
  Alcotest.(check (list int)) "union" [ 1; 65 ] (Chg.Bitset.elements a)

let test_inter () =
  let a = Chg.Bitset.create 10 and b = Chg.Bitset.create 10 in
  List.iter (Chg.Bitset.add a) [ 1; 2; 3 ];
  List.iter (Chg.Bitset.add b) [ 2; 3; 4 ];
  Alcotest.(check (list int)) "inter" [ 2; 3 ]
    (Chg.Bitset.elements (Chg.Bitset.inter a b))

let test_subset_equal () =
  let a = Chg.Bitset.create 10 and b = Chg.Bitset.create 10 in
  List.iter (Chg.Bitset.add a) [ 1; 2 ];
  List.iter (Chg.Bitset.add b) [ 1; 2; 5 ];
  Alcotest.(check bool) "subset" true (Chg.Bitset.subset a b);
  Alcotest.(check bool) "not subset" false (Chg.Bitset.subset b a);
  Alcotest.(check bool) "not equal" false (Chg.Bitset.equal a b);
  Chg.Bitset.add a 5;
  Alcotest.(check bool) "equal" true (Chg.Bitset.equal a b)

let test_copy_independent () =
  let a = Chg.Bitset.create 10 in
  Chg.Bitset.add a 1;
  let b = Chg.Bitset.copy a in
  Chg.Bitset.add b 2;
  Alcotest.(check bool) "copy has" true (Chg.Bitset.mem b 1);
  Alcotest.(check bool) "original unaffected" false (Chg.Bitset.mem a 2)

let test_bounds () =
  let s = Chg.Bitset.create 5 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      Chg.Bitset.add s 5);
  Alcotest.check_raises "mem negative"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Chg.Bitset.mem s (-1)))

let test_universe_mismatch () =
  let a = Chg.Bitset.create 5 and b = Chg.Bitset.create 6 in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset.union_into: universe mismatch") (fun () ->
      ignore (Chg.Bitset.union_into ~into:a b))

(* A prefix universe: union_prefix_into ORs a shorter set into a longer
   one, and mem_or_false answers false past the universe instead of
   raising. *)
let test_prefix_universe () =
  let short = Chg.Bitset.create 70 and long = Chg.Bitset.create 130 in
  List.iter (Chg.Bitset.add short) [ 0; 63; 64; 69 ];
  Chg.Bitset.add long 129;
  Chg.Bitset.union_prefix_into ~into:long short;
  Alcotest.(check (list int)) "prefix union" [ 0; 63; 64; 69; 129 ]
    (Chg.Bitset.elements long);
  Alcotest.check_raises "longer source"
    (Invalid_argument "Bitset.union_prefix_into: universe is not a prefix")
    (fun () -> Chg.Bitset.union_prefix_into ~into:short long);
  Alcotest.(check (list bool)) "mem_or_false in and out of the universe"
    [ true; false; true; false; false ]
    (List.map (Chg.Bitset.mem_or_false short) [ 69; 68; 0; 70; -1 ])

let test_fold_order () =
  let s = Chg.Bitset.create 100 in
  List.iter (Chg.Bitset.add s) [ 99; 0; 50 ];
  Alcotest.(check (list int)) "fold increasing" [ 0; 50; 99 ]
    (List.rev (Chg.Bitset.fold (fun i acc -> i :: acc) s []))

let suite =
  [ Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/mem across words" `Quick test_add_mem;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "union_into reports change" `Quick test_union_into;
    Alcotest.test_case "inter" `Quick test_inter;
    Alcotest.test_case "subset/equal" `Quick test_subset_equal;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "universe mismatch" `Quick test_universe_mismatch;
    Alcotest.test_case "fold order" `Quick test_fold_order;
    Alcotest.test_case "prefix universe" `Quick test_prefix_universe ]
