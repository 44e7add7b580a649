(* Telemetry tests: the instrumentation layer makes the paper's Section 5
   complexity model directly observable, so its bounds become executable
   assertions here — most importantly that the per-member edge-traversal
   count is linear in |N|+|E| on all-unambiguous hierarchies. *)

module G = Chg.Graph
module Engine = Lookup_core.Engine
module Memo = Lookup_core.Memo
module Incremental = Lookup_core.Incremental
module Metrics = Lookup_core.Metrics
module Families = Hiergen.Families
module Counter = Telemetry.Counter

let v = Counter.value

(* The paper's Figure 9 hierarchy: S; A,B : virtual S; C : virtual A,
   virtual B; D : C; E : virtual A, virtual B, D — everyone but D and E
   declares m; lookup(E, m) famously resolves to C::m. *)
let fig9 () =
  let b = G.create_builder () in
  let m = [ G.member "m" ] in
  let vb n = (n, G.Virtual, G.Public) in
  let nb n = (n, G.Non_virtual, G.Public) in
  ignore (G.add_class b "S" ~bases:[] ~members:m);
  ignore (G.add_class b "A" ~bases:[ vb "S" ] ~members:m);
  ignore (G.add_class b "B" ~bases:[ vb "S" ] ~members:m);
  ignore (G.add_class b "C" ~bases:[ vb "A"; vb "B" ] ~members:m);
  ignore (G.add_class b "D" ~bases:[ nb "C" ] ~members:[]);
  ignore (G.add_class b "E" ~bases:[ vb "A"; vb "B"; nb "D" ] ~members:[]);
  G.freeze b

(* -- telemetry primitives ------------------------------------------- *)

let test_counter_sink () =
  let c = Counter.make "c" in
  Counter.incr c;
  Counter.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (v c);
  Counter.reset c;
  Alcotest.(check int) "counter resets" 0 (v c);
  Alcotest.(check bool) "null sink drops silently" true
    (Telemetry.Sink.emit Telemetry.Sink.null "e" [];
     Telemetry.Sink.length Telemetry.Sink.null = 0)

let test_json_output () =
  let j =
    Telemetry.Json.Obj
      [ ("s", Telemetry.Json.String "a\"b\nc");
        ("f", Telemetry.Json.Float 1.5);
        ("l", Telemetry.Json.List [ Telemetry.Json.Int 1; Telemetry.Json.Null ])
      ]
  in
  Alcotest.(check string) "compact json"
    "{\"s\":\"a\\\"b\\nc\",\"f\":1.5,\"l\":[1,null]}"
    (Telemetry.Json.to_string j);
  (* telemetry JSON must stay parseable by the project's own parser when
     no floats are involved (one toolchain, two dialects would be a trap) *)
  let ints = Telemetry.Json.Obj [ ("n", Telemetry.Json.Int 3) ] in
  match Chg.Json.of_string (Telemetry.Json.to_string ~pretty:true ints) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "Chg.Json rejects telemetry output: %s" e

(* A file written by to_string and read back prints the same text again:
   a bench quick mode rewrites only its own rows.  2771371.2 is the
   float whose six digits, [2.77137e+06], once read back as 2771370.0
   and printed another way. *)
let test_json_reprint_fixed_point () =
  let module J = Telemetry.Json in
  Alcotest.(check string) "six whole digits print whole" "2771370.0"
    (J.to_string (J.Float 2771371.2));
  let reprint text = J.to_string ~pretty:true (J.of_string text) in
  let doc =
    J.to_string ~pretty:true
      (J.Obj
         [ ("f", J.List (List.map (fun f -> J.Float f)
                   [ 2771371.2; 123456.7; 999999.5; 1.5e-7; -0.25; 3.0;
                     1e20; 9.999999e14 +. 0.5; Float.nan ]));
           ("i", J.Int (-42)); ("s", J.String "a\"b/c"); ("b", J.Bool true) ])
  in
  Alcotest.(check string) "document reprints identically" doc (reprint doc)

let prop_float_reprint_fixed_point =
  QCheck.Test.make ~count:2000 ~name:"json float reprint fixed point"
    QCheck.(oneof [ float; map (fun (m, e) -> ldexp (float_of_int m) e)
                              (pair small_signed_int (int_range (-60) 60)) ])
    (fun f ->
      let text = Telemetry.Json.to_string (Telemetry.Json.Float f) in
      String.equal text
        (Telemetry.Json.to_string (Telemetry.Json.of_string text)))

(* -- engine instrumentation ----------------------------------------- *)

let test_engine_counters () =
  let g = fig9 () in
  let m = Metrics.create () in
  ignore (Engine.build ~metrics:m (Chg.Closure.compute g));
  Alcotest.(check int) "classes visited" 6 (v m.Metrics.classes_visited);
  Alcotest.(check int) "entries computed" 6 (v m.Metrics.members_processed);
  Alcotest.(check int) "declared kills" 4 (v m.Metrics.declared_kills);
  (* only D (1 base) and E (3 bases) collect incoming verdicts *)
  Alcotest.(check int) "edge traversals" 4 (v m.Metrics.edge_traversals);
  Alcotest.(check int) "every entry got a verdict" 6
    (v m.Metrics.red_verdicts + v m.Metrics.blue_verdicts);
  Alcotest.(check int) "fig9 is unambiguous" 0 (v m.Metrics.blue_verdicts);
  Alcotest.(check bool) "dominance probes ran" true
    (v m.Metrics.dominance_probes > 0);
  Alcotest.(check int) "one timed build" 1
    (Telemetry.Histogram.count m.Metrics.build_ns)

let test_disabled_metrics_inert () =
  (* builds without ?metrics must not leak into the shared disabled bag:
     not a counter, not a build time, not a trace event *)
  let g = fig9 () in
  let cl = Chg.Closure.compute g in
  ignore (Engine.build cl);
  ignore (Lookup_core.Packed.build ~jobs:1 cl);
  ignore (Lookup_core.Packed.build ~jobs:2 cl);
  ignore (Lint.run cl);
  let memo = Memo.create cl in
  G.iter_classes g (fun c -> ignore (Memo.lookup memo c "m"));
  List.iter
    (fun (name, value) ->
      Alcotest.(check int) ("disabled counter " ^ name) 0 value)
    (Metrics.counters Metrics.disabled);
  let built = Metrics.disabled.Metrics.build_ns in
  Alcotest.(check int) "disabled bag timed no build" 0
    (Telemetry.Histogram.count built);
  Alcotest.(check int) "disabled bag recorded no build time" 0
    (Telemetry.Histogram.sum built);
  Alcotest.(check int) "disabled sink stays empty" 0
    (Telemetry.Sink.length Metrics.disabled.Metrics.sink)

let test_red_demotion_counted () =
  (* Figure 1-style replicated base: two non-virtual A subobjects reach
     the join, so two red verdicts combine into a blue one. *)
  let b = G.create_builder () in
  let nb n = (n, G.Non_virtual, G.Public) in
  ignore (G.add_class b "A" ~bases:[] ~members:[ G.member "m" ]);
  ignore (G.add_class b "L" ~bases:[ nb "A" ] ~members:[]);
  ignore (G.add_class b "R" ~bases:[ nb "A" ] ~members:[]);
  ignore (G.add_class b "J" ~bases:[ nb "L"; nb "R" ] ~members:[]);
  let g = G.freeze b in
  let m = Metrics.create () in
  ignore (Engine.build ~metrics:m (Chg.Closure.compute g));
  Alcotest.(check int) "one ambiguous entry" 1 (v m.Metrics.blue_verdicts);
  Alcotest.(check int) "demotion counted" 1 (v m.Metrics.red_demotions)

(* -- memo instrumentation (satellite: cache hit/miss accounting) ----- *)

let test_memo_cache_hit_accounting () =
  let g = fig9 () in
  let m = Metrics.create () in
  let memo = Memo.create ~metrics:m (Chg.Closure.compute g) in
  let e = G.find g "E" in
  let first = Memo.lookup memo e "m" in
  let entries = Memo.cached_entries memo in
  let misses = v m.Metrics.memo_misses in
  let hits = v m.Metrics.memo_hits in
  Alcotest.(check bool) "first query fills the cache" true (entries > 0);
  Alcotest.(check bool) "root query recursed into bases" true
    (v m.Metrics.memo_recursive_fills > 0);
  (* the repeated query must not grow the cache and must register as
     exactly one cache hit *)
  let second = Memo.lookup memo e "m" in
  Alcotest.(check bool) "same verdict" true (first = second);
  Alcotest.(check int) "cache did not grow" entries
    (Memo.cached_entries memo);
  Alcotest.(check int) "no new misses" misses (v m.Metrics.memo_misses);
  Alcotest.(check int) "exactly one new hit" (hits + 1)
    (v m.Metrics.memo_hits);
  (* laziness is visible in the counters too: only E and its bases *)
  Alcotest.(check int) "entries = misses" entries (v m.Metrics.memo_misses)

(* -- incremental instrumentation ------------------------------------ *)

let test_incremental_counters () =
  let g = fig9 () in
  let m = Metrics.create () in
  let inc = Incremental.create ~metrics:m () in
  G.iter_classes g (fun c ->
      ignore
        (Incremental.add_class inc (G.name g c)
           ~bases:
             (List.map
                (fun (b : G.base) -> (G.name g b.b_class, b.b_kind, b.b_access))
                (G.bases g c))
           ~members:(G.members g c)));
  Alcotest.(check int) "one row per class" 6 (v m.Metrics.incr_rows);
  Alcotest.(check int) "per-row members = table entries" 6
    (v m.Metrics.incr_row_members);
  Alcotest.(check bool) "closure growth recorded" true
    (v m.Metrics.incr_closure_bits > 0);
  Alcotest.(check int) "same edge traversals as the eager pass" 4
    (v m.Metrics.edge_traversals)

(* -- trace replay ---------------------------------------------------- *)

let test_trace_replays_topologically () =
  let g = fig9 () in
  let m = Metrics.create ~trace:true () in
  let eng = Engine.build_member ~metrics:m (Chg.Closure.compute g) "m" in
  let events = Telemetry.Sink.events m.Metrics.sink in
  Alcotest.(check bool) "events recorded" true (events <> []);
  let int_field ev k =
    match Telemetry.Event.field_opt ev k with
    | Some (Telemetry.Event.Int i) -> Some i
    | _ -> None
  in
  let str_field ev k =
    match Telemetry.Event.field_opt ev k with
    | Some (Telemetry.Event.Str s) -> Some s
    | _ -> None
  in
  (* classes are visited in topological (= id) order *)
  let visit_ids =
    List.filter_map
      (fun (ev : Telemetry.Event.t) ->
        if ev.name = "visit" then int_field ev "id" else None)
      events
  in
  Alcotest.(check (list int)) "visits in topological order"
    [ 0; 1; 2; 3; 4; 5 ] visit_ids;
  (* every flow event lands on the class being visited *)
  let current = ref None in
  List.iter
    (fun (ev : Telemetry.Event.t) ->
      match ev.name with
      | "visit" -> current := str_field ev "class"
      | "flow" ->
        Alcotest.(check (option string))
          "flow targets the visited class" !current (str_field ev "to")
      | _ -> ())
    events;
  (* the traced verdict for E matches the engine's *)
  let e_verdict =
    List.find_map
      (fun (ev : Telemetry.Event.t) ->
        if ev.name = "verdict" && str_field ev "class" = Some "E" then
          str_field ev "verdict"
        else None)
      events
  in
  let expected =
    Option.map
      (Format.asprintf "%a" (Engine.pp_verdict g))
      (Engine.lookup eng (G.find g "E") "m")
  in
  Alcotest.(check (option string)) "traced verdict = engine verdict"
    expected e_verdict;
  (* spans are well-bracketed *)
  let count name =
    List.length
      (List.filter (fun (ev : Telemetry.Event.t) -> ev.name = name) events)
  in
  Alcotest.(check int) "span begin/end pair up" (count "span_begin")
    (count "span_end")

(* -- the Section 5 bound as a property ------------------------------- *)

(* All-unambiguous families (every lookup of "m" resolves): chains,
   redeclared diamond stacks, and wide trees, across random sizes.  The
   paper claims O(|N|+|E|) per member column; the measured unit is the
   edge-traversal counter, and each edge is examined at most once per
   member, so the bound is |E| <= |N|+|E| exactly — not asymptotically. *)
let unambiguous_instance_gen =
  QCheck.Gen.(
    oneof
      [ map
          (fun (n, virt) ->
            Families.chain ~n
              ~kind:(if virt then G.Virtual else G.Non_virtual))
          (pair (int_range 2 80) bool);
        map
          (fun (levels, virt) ->
            Families.redeclared_diamond_stack ~levels
              ~kind:(if virt then G.Virtual else G.Non_virtual))
          (pair (int_range 1 14) bool);
        map
          (fun (fanout, depth) -> Families.wide_tree ~fanout ~depth)
          (pair (int_range 2 4) (int_range 1 4)) ])

let unambiguous_instance_arb =
  QCheck.make unambiguous_instance_gen ~print:(fun i ->
      i.Families.description)

let prop_member_column_is_linear =
  QCheck.Test.make ~count:300
    ~name:"per-member edge traversals <= |N|+|E| (unambiguous)"
    unambiguous_instance_arb
    (fun { Families.graph = g; _ } ->
      let m = Metrics.create () in
      ignore (Engine.build_member ~metrics:m (Chg.Closure.compute g) "m");
      let n = G.num_classes g and e = G.num_edges g in
      v m.Metrics.blue_verdicts = 0  (* the family really is unambiguous *)
      && v m.Metrics.classes_visited = n
      && v m.Metrics.edge_traversals <= e
      && v m.Metrics.edge_traversals <= n + e
      && v m.Metrics.o_extensions <= n + e)

let prop_memo_conserves_work =
  (* over any query sequence, fills never exceed the eager column's
     entries, and a second identical sequence is 100% hits *)
  QCheck.Test.make ~count:150 ~name:"memo misses bounded, replay all hits"
    unambiguous_instance_arb
    (fun { Families.graph = g; probe; _ } ->
      let cl = Chg.Closure.compute g in
      let m = Metrics.create () in
      let memo = Memo.create ~metrics:m cl in
      ignore (Memo.lookup memo probe "m");
      ignore (Memo.lookup memo probe "m");
      let misses = v m.Metrics.memo_misses in
      ignore (Memo.lookup memo probe "m");
      v m.Metrics.memo_misses = misses
      && Memo.cached_entries memo = misses
      && misses <= G.num_classes g)

let suite =
  [ Alcotest.test_case "counter/sink primitives" `Quick test_counter_sink;
    Alcotest.test_case "json output" `Quick test_json_output;
    Alcotest.test_case "json reprint fixed point" `Quick
      test_json_reprint_fixed_point;
    Alcotest.test_case "engine counters on Figure 9" `Quick
      test_engine_counters;
    Alcotest.test_case "disabled metrics are inert" `Quick
      test_disabled_metrics_inert;
    Alcotest.test_case "red demotion counted" `Quick
      test_red_demotion_counted;
    Alcotest.test_case "memo cache hit/miss accounting" `Quick
      test_memo_cache_hit_accounting;
    Alcotest.test_case "incremental row counters" `Quick
      test_incremental_counters;
    Alcotest.test_case "trace replays Figure 8" `Quick
      test_trace_replays_topologically ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_member_column_is_linear; prop_memo_conserves_work;
        prop_float_reprint_fixed_point ]
