(* Unit tests for the class hierarchy graph: builder validation, the
   order-independent constructor, closures and topological order. *)

module G = Chg.Graph
module B = Chg.Binary

let nv = G.Non_virtual
let v = G.Virtual

let simple_diamond () =
  (* A; B : A; C : virtual A; D : B, C *)
  let b = G.create_builder () in
  ignore (G.add_class b "A" ~bases:[] ~members:[ G.member "m" ]);
  ignore (G.add_class b "B" ~bases:[ ("A", nv, G.Public) ] ~members:[]);
  ignore (G.add_class b "C" ~bases:[ ("A", v, G.Public) ] ~members:[]);
  ignore
    (G.add_class b "D"
       ~bases:[ ("B", nv, G.Public); ("C", nv, G.Public) ]
       ~members:[ G.member "n" ]);
  G.freeze b

let test_basic_accessors () =
  let g = simple_diamond () in
  Alcotest.(check int) "classes" 4 (G.num_classes g);
  Alcotest.(check int) "edges" 4 (G.num_edges g);
  Alcotest.(check string) "name" "A" (G.name g (G.find g "A"));
  Alcotest.(check (list string)) "member names" [ "m"; "n" ] (G.member_names g);
  Alcotest.(check bool) "declares" true (G.declares g (G.find g "A") "m");
  Alcotest.(check bool) "not declares" false (G.declares g (G.find g "B") "m");
  let d = G.find g "D" in
  Alcotest.(check (list string)) "bases of D in order" [ "B"; "C" ]
    (List.map (fun (b : G.base) -> G.name g b.b_class) (G.bases g d));
  let a = G.find g "A" in
  Alcotest.(check (list string)) "derived of A" [ "B"; "C" ]
    (List.map (fun (c, _) -> G.name g c) (G.derived g a))

let expect_error expected f =
  match f () with
  | _ -> Alcotest.failf "expected error %s" (G.error_to_string expected)
  | exception G.Error e ->
    Alcotest.(check string) "error" (G.error_to_string expected)
      (G.error_to_string e)

let test_duplicate_class () =
  expect_error (G.Duplicate_class "A") (fun () ->
      let b = G.create_builder () in
      ignore (G.add_class b "A" ~bases:[] ~members:[]);
      G.add_class b "A" ~bases:[] ~members:[])

let test_unknown_base () =
  expect_error (G.Unknown_base { cls = "B"; base = "Zed" }) (fun () ->
      let b = G.create_builder () in
      G.add_class b "B" ~bases:[ ("Zed", nv, G.Public) ] ~members:[])

let test_duplicate_base () =
  expect_error (G.Duplicate_base { cls = "B"; base = "A" }) (fun () ->
      let b = G.create_builder () in
      ignore (G.add_class b "A" ~bases:[] ~members:[]);
      G.add_class b "B"
        ~bases:[ ("A", nv, G.Public); ("A", v, G.Public) ]
        ~members:[])

let test_duplicate_member () =
  expect_error (G.Duplicate_member { cls = "A"; member = "m" }) (fun () ->
      let b = G.create_builder () in
      G.add_class b "A" ~bases:[] ~members:[ G.member "m"; G.member "m" ])

let test_of_decls_forward_refs () =
  (* Declarations listed derived-first: of_decls must reorder. *)
  let decls =
    [ { G.d_name = "D"; d_bases = [ ("B", nv, G.Public) ]; d_members = [] };
      { G.d_name = "B"; d_bases = [ ("A", nv, G.Public) ]; d_members = [] };
      { G.d_name = "A"; d_bases = []; d_members = [ G.member "m" ] } ]
  in
  match G.of_decls decls with
  | Error e -> Alcotest.failf "unexpected error: %s" (G.error_to_string e)
  | Ok g ->
    Alcotest.(check int) "classes" 3 (G.num_classes g);
    Alcotest.(check bool) "topological ids" true
      (Chg.Topo.is_topological g (Array.of_list (G.classes g)))

let test_of_decls_cycle () =
  let decls =
    [ { G.d_name = "A"; d_bases = [ ("B", nv, G.Public) ]; d_members = [] };
      { G.d_name = "B"; d_bases = [ ("A", nv, G.Public) ]; d_members = [] } ]
  in
  match G.of_decls decls with
  | Ok _ -> Alcotest.fail "cycle not detected"
  | Error (G.Cyclic_hierarchy cycle) ->
    Alcotest.(check bool) "cycle mentions both" true
      (List.mem "A" cycle && List.mem "B" cycle)
  | Error e -> Alcotest.failf "wrong error: %s" (G.error_to_string e)

let test_of_decls_self_cycle () =
  let decls =
    [ { G.d_name = "A"; d_bases = [ ("A", nv, G.Public) ]; d_members = [] } ]
  in
  match G.of_decls decls with
  | Ok _ -> Alcotest.fail "self-cycle not detected"
  | Error (G.Cyclic_hierarchy _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (G.error_to_string e)

let test_closure_bases () =
  let g = simple_diamond () in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  Alcotest.(check bool) "A base of D" true
    (Chg.Closure.is_base cl (id "A") (id "D"));
  Alcotest.(check bool) "D not base of A" false
    (Chg.Closure.is_base cl (id "D") (id "A"));
  Alcotest.(check bool) "A not base of A" false
    (Chg.Closure.is_base cl (id "A") (id "A"));
  Alcotest.(check bool) "base-or-self" true
    (Chg.Closure.is_base_or_self cl (id "A") (id "A"))

let test_closure_virtual_bases () =
  let g = simple_diamond () in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  (* A is a virtual base of C (direct virtual edge) and of D (path A=C-D
     starting with the virtual edge), but not of B. *)
  Alcotest.(check bool) "A vbase of C" true
    (Chg.Closure.is_virtual_base cl (id "A") (id "C"));
  Alcotest.(check bool) "A vbase of D" true
    (Chg.Closure.is_virtual_base cl (id "A") (id "D"));
  Alcotest.(check bool) "A not vbase of B" false
    (Chg.Closure.is_virtual_base cl (id "A") (id "B"));
  Alcotest.(check bool) "B not vbase of D" false
    (Chg.Closure.is_virtual_base cl (id "B") (id "D"))

let test_closure_deep_virtual () =
  (* Virtual bases propagate to transitively derived classes:
     V; M : virtual V; X : M; Y : X.  V is a virtual base of X and Y. *)
  let b = G.create_builder () in
  ignore (G.add_class b "V" ~bases:[] ~members:[]);
  ignore (G.add_class b "M" ~bases:[ ("V", v, G.Public) ] ~members:[]);
  ignore (G.add_class b "X" ~bases:[ ("M", nv, G.Public) ] ~members:[]);
  ignore (G.add_class b "Y" ~bases:[ ("X", nv, G.Public) ] ~members:[]);
  let g = G.freeze b in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  Alcotest.(check bool) "V vbase of Y" true
    (Chg.Closure.is_virtual_base cl (id "V") (id "Y"));
  Alcotest.(check bool) "M not vbase of Y" false
    (Chg.Closure.is_virtual_base cl (id "M") (id "Y"))

let test_topo_order () =
  let g = Hiergen.Figures.fig3 () in
  let ord = Chg.Topo.order g in
  Alcotest.(check bool) "kahn order is topological" true
    (Chg.Topo.is_topological g ord);
  Alcotest.(check bool) "id order is topological" true
    (Chg.Topo.is_topological g (Array.of_list (G.classes g)));
  let num = Chg.Topo.numbers g in
  Alcotest.(check bool) "base before derived" true
    (num.(G.find g "A") < num.(G.find g "H"))

let test_derived_closure () =
  let g = simple_diamond () in
  let cl = Chg.Closure.compute g in
  let id = G.find g in
  Alcotest.(check (list int)) "derived of A" [ id "B"; id "C"; id "D" ]
    (Chg.Bitset.elements (Chg.Closure.derived_of cl (id "A")))

let test_dot_output () =
  let g = simple_diamond () in
  let dot = Chg.Dot.to_dot g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph");
  (* One dashed edge for the virtual A -> C. *)
  let dashed =
    String.split_on_char '\n' dot
    |> List.filter (fun l ->
           let re = "style=dashed" in
           let rec contains i =
             i + String.length re <= String.length l
             && (String.sub l i (String.length re) = re || contains (i + 1))
           in
           contains 0)
  in
  Alcotest.(check int) "one dashed edge" 1 (List.length dashed)

(* -- error precedence across every build path --------------------------

   Each case has two faults; every path that can express the case must
   report the same one.  A class is (name, bases, members), plain
   public non-virtual bases and data members.  [errors] is what a build
   that drops a failing class and goes on (the front end) reports, in
   order; a build that stops reports the first. *)

type fault_case = {
  fc_name : string;
  fc_classes : (string * string list * string list) list;
  fc_errors : string list;
}

let fault_cases =
  [ { fc_name = "unknown base and repeated member";
      fc_classes = [ ("B", [ "Zed" ], [ "m"; "m" ]) ];
      fc_errors = [ "class B declares member m twice" ] };
    { fc_name = "forward reference and repeated base";
      fc_classes = [ ("B", [ "A"; "A" ], []); ("A", [], []) ];
      fc_errors = [ "class B lists direct base A twice" ] };
    { fc_name = "class named twice and a cycle";
      fc_classes = [ ("A", [ "B" ], []); ("B", [ "A" ], []); ("A", [], []) ];
      fc_errors = [ "class A is declared twice" ] };
    { fc_name = "class named twice and repeated member";
      fc_classes = [ ("A", [], [ "m" ]); ("A", [], [ "m"; "m" ]) ];
      fc_errors = [ "class A is declared twice" ] };
    { fc_name = "repeated base and repeated member";
      fc_classes = [ ("A", [], []); ("B", [ "A"; "A" ], [ "m"; "m" ]) ];
      fc_errors = [ "class B declares member m twice" ] };
    { fc_name = "a failed class leaves no marks";
      fc_classes =
        [ ("A", [], [ "m"; "m" ]); ("B", [], [ "m" ]);
          ("C", [ "B"; "B" ], [ "k" ]); ("D", [ "B" ], [ "k" ]) ];
      fc_errors =
        [ "class A declares member m twice";
          "class C lists direct base B twice" ] } ]

let fc_decls c =
  List.map
    (fun (name, bases, members) ->
      { G.d_name = name;
        d_bases = List.map (fun b -> (b, nv, G.Public)) bases;
        d_members = List.map G.member members })
    c.fc_classes

(* no base names a class declared later *)
let fc_bases_first c =
  let rec go seen = function
    | [] -> true
    | (name, bases, _) :: rest ->
      List.for_all
        (fun b ->
          List.mem b seen
          || not (List.exists (fun (n, _, _) -> n = b) rest))
        bases
      && go (name :: seen) rest
  in
  go [] c.fc_classes

(* [add] each class in order, dropping the failing ones *)
let fc_errors_going_on add c =
  List.filter_map
    (fun d ->
      match add d with
      | () -> None
      | exception G.Error e -> Some (G.error_to_string e))
    (fc_decls c)

let fc_first_error = function
  | Ok _ -> "built"
  | Error e -> G.error_to_string e

(* The classes as a snapshot's graph section, bases as the ids of
   earlier classes; [None] when a base is not one. *)
let fc_binary c =
  let w = B.Writer.create () in
  B.Writer.u32 w (List.length c.fc_classes);
  let rec go seen = function
    | [] -> Some (B.Writer.contents w)
    | (name, bases, members) :: rest ->
      B.Writer.string w name;
      B.Writer.u32 w (List.length bases);
      if
        List.for_all
          (fun b ->
            match List.assoc_opt b seen with
            | None -> false
            | Some id ->
              B.Writer.u32 w id;
              B.write_edge_kind w nv;
              B.write_access w G.Public;
              true)
          bases
      then begin
        B.Writer.u32 w (List.length members);
        List.iter (fun m -> B.write_member w (G.member m)) members;
        go (seen @ [ (name, List.length seen) ]) rest
      end
      else None
  in
  go [] c.fc_classes

let fc_source c =
  String.concat " "
    (List.map
       (fun (name, bases, members) ->
         Printf.sprintf "struct %s%s { %s };" name
           (match bases with [] -> "" | bs -> " : " ^ String.concat ", " bs)
           (String.concat " "
              (List.map (Printf.sprintf "int %s;") members)))
       c.fc_classes)

let test_fault_precedence () =
  List.iter
    (fun c ->
      let first = List.hd c.fc_errors in
      let check path = Alcotest.(check string) (c.fc_name ^ ": " ^ path) in
      let decls = fc_decls c in
      check "of_decls" first (fc_first_error (G.of_decls decls));
      check "of_decls_sorted" first (fc_first_error (G.of_decls_sorted decls));
      if fc_bases_first c then begin
        let b = G.create_builder () in
        Alcotest.(check (list string)) (c.fc_name ^ ": add_class") c.fc_errors
          (fc_errors_going_on
             (fun d ->
               ignore
                 (G.add_class b d.G.d_name ~bases:d.G.d_bases
                    ~members:d.G.d_members))
             c);
        let g = ref G.empty in
        Alcotest.(check (list string)) (c.fc_name ^ ": extend") c.fc_errors
          (fc_errors_going_on
             (fun d ->
               g :=
                 fst
                   (G.extend !g d.G.d_name ~bases:d.G.d_bases
                      ~members:d.G.d_members))
             c);
        let r = Frontend.Sema.analyze_source (fc_source c) in
        Alcotest.(check (list string)) (c.fc_name ^ ": front end") c.fc_errors
          (List.filter_map
             (fun (d : Frontend.Diagnostic.t) ->
               if Frontend.Diagnostic.is_error d then Some d.message else None)
             r.Frontend.Sema.diagnostics)
      end;
      match fc_binary c with
      | None -> ()
      | Some s ->
        check "read_graph" ("graph rejected: " ^ first)
          (match B.read_graph (B.Reader.of_string s) with
          | _ -> "built"
          | exception B.Corrupt msg -> msg))
    fault_cases

(* The front end on the program above, as a user writes it: one
   diagnostic per failing class, none for the classes after them. *)
let test_fault_precedence_front_end () =
  let r =
    Frontend.Sema.analyze_source
      "struct A{int m;int m;}; struct B{int m;}; struct C:B,B{int k;}; \
       struct D:B{int k;};"
  in
  Alcotest.(check (list string)) "diagnostics"
    [ "1:8: error: class A declares member m twice";
      "1:50: error: class C lists direct base B twice" ]
    (List.map Frontend.Diagnostic.to_string r.Frontend.Sema.diagnostics)

let test_frozen_graph_is_a_snapshot () =
  let b = G.create_builder () in
  ignore (G.add_class b "A" ~bases:[] ~members:[ G.member "m" ]);
  let g = G.freeze b in
  ignore (G.add_class b "New" ~bases:[ ("A", nv, G.Public) ] ~members:[]);
  G.add_member b "A" (G.member "n");
  Alcotest.(check int) "classes" 1 (G.num_classes g);
  Alcotest.(check (list string)) "members of A" [ "m" ]
    (List.map (fun m -> m.G.m_name) (G.members g (G.find g "A")));
  Alcotest.(check bool) "New unknown" true (G.find_opt g "New" = None);
  let g' = G.freeze b in
  Alcotest.(check int) "the builder went on" 2 (G.num_classes g');
  Alcotest.(check (list string)) "members of A, later" [ "m"; "n" ]
    (List.map (fun m -> m.G.m_name) (G.members g' (G.find g' "A")))

(* Two graphs made from one by [with_member] and [extend] each see
   their own member names, though the first shares its member table
   with the graph it came from; the graph they came from sees none. *)
let test_member_index_branches () =
  let b = G.create_builder () in
  ignore (G.add_class b "A" ~bases:[] ~members:[ G.member "m" ]);
  ignore (G.add_class b "B" ~bases:[ ("A", nv, G.Public) ] ~members:[]);
  let g = G.freeze b in
  let gx = G.with_member g "B" (G.member "x") in
  let gy = G.with_member g "A" (G.member "y") in
  let gz, z = G.extend g "Z" ~bases:[ ("B", nv, G.Public) ] ~members:[ G.member "z"; G.member "m" ] in
  let gxx = G.with_member gx "A" (G.member "x") in
  let names g = List.init (G.num_member_names g) (G.member_name g) in
  Alcotest.(check (list string)) "g" [ "m" ] (names g);
  Alcotest.(check (list string)) "gx" [ "m"; "x" ] (names gx);
  Alcotest.(check (list string)) "gy" [ "m"; "y" ] (names gy);
  Alcotest.(check (list string)) "gz" [ "m"; "z" ] (names gz);
  Alcotest.(check (list string)) "gxx" [ "m"; "x" ] (names gxx);
  Alcotest.(check int) "y unknown to g" (-1) (G.member_id g "y");
  Alcotest.(check int) "x unknown to gy" (-1) (G.member_id gy "x");
  Alcotest.(check int) "y unknown to gx" (-1) (G.member_id gx "y");
  Alcotest.(check int) "y in gy" 1 (G.member_id gy "y");
  let declaring g m = Array.to_list (G.declaring g m) in
  Alcotest.(check (list int)) "x in gx" [ 1 ] (declaring gx "x");
  Alcotest.(check (list int)) "x in gxx, increasing" [ 0; 1 ] (declaring gxx "x");
  Alcotest.(check (list int)) "m in gz" [ 0; z ] (declaring gz "m");
  Alcotest.(check (list int)) "m in g" [ 0 ] (declaring g "m");
  Alcotest.(check (list int)) "y nowhere in gx" [] (declaring gx "y")

(* Graph values are persistent: two domains growing sibling graphs from
   one graph at the same time, failed extensions included, each see
   only their own names, and the graph they started from none. *)
let test_member_index_domains () =
  let b = G.create_builder () in
  ignore (G.add_class b "A" ~bases:[] ~members:[ G.member "m" ]);
  let g = G.freeze b in
  let grow prefix () =
    let rec go g i =
      if i = 300 then g
      else
        let name = Printf.sprintf "%s%d" prefix i in
        let g =
          if i mod 3 = 0 then
            fst (G.extend g (String.uppercase_ascii name) ~bases:[ ("A", nv, G.Public) ]
                   ~members:[ G.member name; G.member "m" ])
          else G.with_member g "A" (G.member name)
        in
        (match G.extend g "Bad" ~bases:[] ~members:[ G.member (name ^ "x"); G.member "d"; G.member "d" ] with
        | _ -> Alcotest.fail "a duplicate member was accepted"
        | exception G.Error _ -> ());
        go g (i + 1)
    in
    go g 0
  in
  let d = Domain.spawn (grow "p") in
  let gq = grow "q" () in
  let gp = Domain.join d in
  let names g = List.init (G.num_member_names g) (G.member_name g) in
  let expect prefix = "m" :: List.init 300 (Printf.sprintf "%s%d" prefix) in
  Alcotest.(check (list string)) "p's names" (expect "p") (names gp);
  Alcotest.(check (list string)) "q's names" (expect "q") (names gq);
  Alcotest.(check (list string)) "g's names" [ "m" ] (names g);
  List.iteri
    (fun id n -> Alcotest.(check int) ("id of " ^ n) id (G.member_id gp n))
    (names gp);
  Alcotest.(check int) "q0 unknown to p's" (-1) (G.member_id gp "q0");
  Alcotest.(check int) "p0x unknown to p's" (-1) (G.member_id gp "p0x");
  Alcotest.(check int) "p0 unknown to g" (-1) (G.member_id g "p0");
  Alcotest.(check (list int)) "m in g" [ 0 ] (Array.to_list (G.declaring g "m"));
  Alcotest.(check int) "m in q's: A and 100 classes" 101
    (Array.length (G.declaring gq "m"))

(* Any hierarchy with a cycle: its witness is a path, each name
   followed by one of its bases, that ends where it started. *)
let prop_cycle_witness_is_a_path =
  QCheck.Test.make ~count:300 ~name:"cycle witness is a closed base path"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 7 in
      let name i = Printf.sprintf "C%d" i in
      (* a ring through the first [k] classes, then random edges *)
      let k = 1 + Random.State.int st n in
      let bases =
        Array.init n (fun i ->
            let ring = if i < k then [ (i + 1) mod k ] else [] in
            ring
            @ List.filter
                (fun j -> (not (List.mem j ring)) && Random.State.int st 3 = 0)
                (List.init n Fun.id))
      in
      let order = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let decls =
        Array.to_list
          (Array.map
             (fun i ->
               { G.d_name = name i;
                 d_bases = List.map (fun j -> (name j, nv, G.Public)) bases.(i);
                 d_members = [] })
             order)
      in
      let is_base x y =
        List.exists
          (fun d -> d.G.d_name = x && List.exists (fun (b, _, _) -> b = y) d.G.d_bases)
          decls
      in
      let rec path = function
        | x :: (y :: _ as rest) -> is_base x y && path rest
        | _ -> true
      in
      match G.of_decls decls with
      | Error (G.Cyclic_hierarchy w) ->
        (List.length w >= 2 && List.hd w = List.nth w (List.length w - 1) && path w)
        || QCheck.Test.fail_reportf "witness %s" (String.concat " -> " w)
      | Error e -> QCheck.Test.fail_reportf "error %s" (G.error_to_string e)
      | Ok _ -> QCheck.Test.fail_report "no cycle found")

let suite =
  [ Alcotest.test_case "accessors" `Quick test_basic_accessors;
    Alcotest.test_case "duplicate class rejected" `Quick test_duplicate_class;
    Alcotest.test_case "unknown base rejected" `Quick test_unknown_base;
    Alcotest.test_case "duplicate base rejected" `Quick test_duplicate_base;
    Alcotest.test_case "duplicate member rejected" `Quick test_duplicate_member;
    Alcotest.test_case "of_decls reorders forward refs" `Quick
      test_of_decls_forward_refs;
    Alcotest.test_case "of_decls detects cycles" `Quick test_of_decls_cycle;
    Alcotest.test_case "of_decls detects self-cycle" `Quick
      test_of_decls_self_cycle;
    Alcotest.test_case "closure: bases" `Quick test_closure_bases;
    Alcotest.test_case "closure: virtual bases" `Quick
      test_closure_virtual_bases;
    Alcotest.test_case "closure: deep virtual bases" `Quick
      test_closure_deep_virtual;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "derived closure" `Quick test_derived_closure;
    Alcotest.test_case "dot export" `Quick test_dot_output;
    Alcotest.test_case "two faults: one error on every build path" `Quick
      test_fault_precedence;
    Alcotest.test_case "two faults: the front end's diagnostics" `Quick
      test_fault_precedence_front_end;
    Alcotest.test_case "a frozen graph is a snapshot" `Quick
      test_frozen_graph_is_a_snapshot;
    QCheck_alcotest.to_alcotest prop_cycle_witness_is_a_path;
    Alcotest.test_case "member index: branches independent" `Quick
      test_member_index_branches;
    Alcotest.test_case "member index: sibling domains" `Quick
      test_member_index_domains ]
