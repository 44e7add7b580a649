(* The packed verdict-column table: equivalence with the eager engine
   and the executable specification on random hierarchies, lossless
   conversion both ways, the Ω-coding edge cases, and the parallel
   build's determinism contract (byte-identical tables and snapshots
   for every --jobs). *)

module G = Chg.Graph
module Spec = Subobject.Spec
module A = Lookup_core.Abstraction
module Engine = Lookup_core.Engine
module Packed = Lookup_core.Packed

let members = [ "m"; "n"; "p" ]

(* Seeded family parameters, as in test_props: shrinking stays
   meaningful and every failure reproduces from its parameters. *)
let instance_gen =
  QCheck.Gen.(
    map
      (fun (n, max_bases, vp, dp, seed) ->
        Hiergen.Families.random_dag ~n ~max_bases
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:(float_of_int dp /. 10.)
          ~members ~seed)
      (tup5 (int_range 1 14) (int_range 1 3) (int_range 0 10)
         (int_range 1 6) (int_range 0 10000)))

let instance_arb =
  QCheck.make instance_gen ~print:(fun i ->
      i.Hiergen.Families.description ^ "\n"
      ^ Format.asprintf "%a" G.pp i.Hiergen.Families.graph)

(* The tentpole equivalence, 500 cases: the packed table answers every
   (class, member) exactly like the eager boxed engine, and — through
   to_engine — like the path-enumerating specification. *)
let prop_packed_matches_eager_and_spec =
  QCheck.Test.make ~count:500 ~name:"packed = eager engine = spec oracle"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let cl = Chg.Closure.compute g in
      let eager = Engine.build cl in
      let packed = Packed.build cl in
      let unpacked = Packed.to_engine packed in
      List.for_all
        (fun c ->
          List.for_all
            (fun m ->
              Packed.lookup packed c m = Engine.lookup eager c m
              && Packed.resolves_to packed c m = Engine.resolves_to eager c m
              && Engine.agrees_with_spec unpacked
                   ~spec_verdict:(Spec.lookup g c m) c m)
            members)
        (G.classes g))

(* of_engine/to_engine round-trip: verdicts, Members[C] sets, and the
   canonical encoding all survive. *)
let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"of_engine/to_engine round-trip"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let e = Engine.build (Chg.Closure.compute g) in
      let p = Packed.of_engine e in
      let e' = Packed.to_engine p in
      List.for_all
        (fun c ->
          Engine.members e' c = Engine.members e c
          && List.for_all
               (fun m -> Engine.lookup e' c m = Engine.lookup e c m)
               members)
        (G.classes g)
      && String.equal (Packed.encode (Packed.of_engine e')) (Packed.encode p))

(* Ω coding: Ω maps to code n (one past the largest class id), so the
   extreme corners — ldc = n-1 with lv = Ω in the immediate singleton,
   Ω leading a blue/group arena slice — must round-trip exactly. *)
let test_omega_edge_cases () =
  let red ldc lvs = Some (Engine.Red { A.r_ldc = ldc; r_lvs = lvs }) in
  let boxed =
    [| red 2 [ A.Omega ];                  (* max ldc, Ω lv: immediate *)
       Some (Engine.Blue [ A.Omega; A.Lv 0; A.Lv 2 ]);  (* Ω first *)
       red 0 [ A.Omega; A.Lv 1 ];          (* Section-6 group with Ω *)
    |]
  in
  let col = Packed.pack_column boxed in
  Alcotest.(check bool) "unpack = original" true
    (Packed.unpack_column col = boxed);
  Array.iteri
    (fun c v ->
      Alcotest.(check bool)
        (Printf.sprintf "column_get %d" c)
        true
        (Packed.column_get col c = v))
    boxed;
  Alcotest.(check (option int)) "resolves_to max ldc" (Some 2)
    (Packed.column_resolves_to col 0);
  Alcotest.(check (option int)) "blue does not resolve" None
    (Packed.column_resolves_to col 1);
  (* a single-class column: the only class id is 0 and Ω codes as 1 *)
  let tiny = Packed.pack_column [| red 0 [ A.Omega ] |] in
  Alcotest.(check bool) "1-class Ω round-trip" true
    (Packed.unpack_column tiny = [| red 0 [ A.Omega ] |])

(* The determinism contract: the packed table — and a snapshot carrying
   its columns — is byte-identical whatever the domain count. *)
let test_parallel_determinism () =
  let i =
    Hiergen.Families.random_dag ~n:60 ~max_bases:3 ~virtual_prob:0.3
      ~declare_prob:0.3
      ~members:(List.init 8 (fun k -> Printf.sprintf "m%d" k))
      ~seed:123
  in
  let g = i.Hiergen.Families.graph in
  let cl = Chg.Closure.compute g in
  let snapshot_bytes table =
    Store.Snapshot.encode
      { Store.Snapshot.s_session = "det";
        s_epoch = 0;
        s_protocol = "cxxlookup-rpc/1";
        s_graph = g;
        s_columns = Packed.columns table }
  in
  let reference = Packed.build ~jobs:1 cl in
  let ref_enc = Packed.encode reference in
  let ref_snap = snapshot_bytes reference in
  List.iter
    (fun jobs ->
      let table = Packed.build ~jobs cl in
      Alcotest.(check bool)
        (Printf.sprintf "table bytes identical (jobs=%d)" jobs)
        true
        (String.equal (Packed.encode table) ref_enc);
      Alcotest.(check bool)
        (Printf.sprintf "snapshot bytes identical (jobs=%d)" jobs)
        true
        (String.equal (snapshot_bytes table) ref_snap))
    [ 2; 4; 7 ]

(* Parallel workers run with private metrics bags merged at join: the
   counter totals must not depend on the schedule either. *)
let test_parallel_metrics_merge () =
  let module Metrics = Lookup_core.Metrics in
  let i =
    Hiergen.Families.random_dag ~n:40 ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.4
      ~members:(List.init 6 (fun k -> Printf.sprintf "m%d" k))
      ~seed:5
  in
  let cl = Chg.Closure.compute i.Hiergen.Families.graph in
  let counters jobs =
    let metrics = Metrics.create () in
    ignore (Packed.build ~jobs ~metrics cl);
    Telemetry.Json.to_string (Metrics.counters_json metrics)
  in
  let reference = counters 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "merged counters (jobs=%d)" jobs)
        reference (counters jobs))
    [ 2; 4 ]

(* column_append re-bases codes in integers (the add_class path); it
   must produce exactly the column a fresh pack of the extended boxed
   column would — same entries, same arena words — through a chain of
   appends, with Ω in immediates, groups and blue slices. *)
let column_append_gen =
  QCheck.Gen.(
    let lv n = oneof [ return A.Omega; map (fun c -> A.Lv c) (int_bound (n - 1)) ] in
    let verdict n =
      frequency
        [ (2, return None);
          ( 3,
            map2
              (fun ldc l -> Some (Engine.Red { A.r_ldc = ldc; r_lvs = [ l ] }))
              (int_bound (n - 1)) (lv n) );
          ( 1,
            map2
              (fun ldc ls -> Some (Engine.Red { A.r_ldc = ldc; r_lvs = ls }))
              (int_bound (n - 1))
              (list_size (int_range 2 3) (lv n)) );
          (1, map (fun ls -> Some (Engine.Blue ls)) (list_size (int_range 0 3) (lv n))) ]
    in
    int_range 1 12 >>= fun n ->
    int_range 1 4 >>= fun k ->
    pair (array_size (return n) (verdict n))
      (flatten_l (List.init k (fun i -> verdict (n + i + 1)))))

let prop_column_append =
  QCheck.Test.make ~count:500 ~name:"column_append = repack of the extended column"
    (QCheck.make column_append_gen) (fun (boxed, appended) ->
      let _, ok =
        List.fold_left
          (fun (boxed, ok) v ->
            let boxed' = Array.append boxed [| v |] in
            let col = Packed.column_append (Packed.pack_column boxed) v in
            ( boxed',
              ok
              && Packed.column_equal col (Packed.pack_column boxed')
              && Packed.unpack_column col = boxed' ))
          (boxed, true) appended
      in
      ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_packed_matches_eager_and_spec; prop_roundtrip; prop_column_append ]
  @ [ Alcotest.test_case "Ω coding edge cases" `Quick test_omega_edge_cases;
      Alcotest.test_case "parallel determinism" `Quick
        test_parallel_determinism;
      Alcotest.test_case "parallel metrics merge" `Quick
        test_parallel_metrics_merge ]
