(* Tests for the lookup service layer: memo eviction, the compiled-table
   cache, sessions (including mutation repair of compiled columns), the
   cxxlookup-rpc/1 protocol codec, and the request dispatcher. *)

module G = Chg.Graph
module J = Chg.Json
module Path = Subobject.Path
module Spec = Subobject.Spec
module Engine = Lookup_core.Engine
module Memo = Lookup_core.Memo
module Packed = Lookup_core.Packed
module Table_cache = Service.Table_cache
module Session = Service.Session
module Protocol = Service.Protocol
module Server = Service.Server
module W = Hiergen.Workload

let graph () = Hiergen.Figures.fig3 ()
let members = [ "foo"; "bar" ]

let verdict_t g =
  Alcotest.testable
    (fun ppf v ->
      match v with
      | None -> Format.pp_print_string ppf "none"
      | Some v -> Engine.pp_verdict g ppf v)
    ( = )

(* ---- Memo eviction (the residency-cap contract) ---- *)

let test_memo_cap_and_correctness () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let eng = Engine.build cl in
  let memo = Memo.create ~max_entries:2 cl in
  (* run everything twice: the second pass exercises lookups whose cached
     entries were evicted by later fills *)
  for _ = 1 to 2 do
    G.iter_classes g (fun c ->
        List.iter
          (fun m ->
            Alcotest.check (verdict_t g)
              (Printf.sprintf "verdict %s::%s under 2-entry cap" (G.name g c)
                 m)
              (Engine.lookup eng c m) (Memo.lookup memo c m))
          members)
  done;
  Alcotest.(check bool)
    "cap honoured" true
    (Memo.cached_entries memo <= 2)

let test_memo_evict_and_clear () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let memo = Memo.create cl in
  G.iter_classes g (fun c -> ignore (Memo.lookup memo c "foo"));
  let resident = Memo.cached_entries memo in
  Alcotest.(check bool) "something resident" true (resident > 0);
  Alcotest.(check int) "evict reports drops" 3 (Memo.evict memo 3);
  Alcotest.(check int) "residency shrank" (resident - 3)
    (Memo.cached_entries memo);
  (* evicting more than resident drops what is left *)
  Alcotest.(check int) "evict is capped" (resident - 3)
    (Memo.evict memo 10_000);
  Alcotest.(check int) "empty" 0 (Memo.cached_entries memo);
  let queries_before = Memo.root_queries memo "foo" in
  Memo.clear memo;
  Alcotest.(check int) "clear keeps query counts" queries_before
    (Memo.root_queries memo "foo");
  (* still correct after total eviction *)
  let eng = Engine.build cl in
  G.iter_classes g (fun c ->
      Alcotest.check (verdict_t g) "post-eviction verdict"
        (Engine.lookup eng c "foo")
        (Memo.lookup memo c "foo"))

let test_memo_root_queries () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let memo = Memo.create cl in
  Alcotest.(check int) "starts at zero" 0 (Memo.root_queries memo "foo");
  ignore (Memo.lookup memo (G.find g "H") "foo");
  ignore (Memo.lookup memo (G.find g "G") "foo");
  (* H's fill recurses through its bases; only the two public calls
     count *)
  Alcotest.(check int) "root queries only" 2 (Memo.root_queries memo "foo");
  ignore (Memo.materialize_column memo "foo");
  Alcotest.(check int) "materialize is not a query" 2
    (Memo.root_queries memo "foo")

let test_memo_column_matches_engine () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let eng = Engine.build cl in
  let memo = Memo.create ~max_entries:2 cl in
  let col = Memo.materialize_column memo "bar" in
  Alcotest.(check int) "column length" (G.num_classes g)
    (Packed.column_classes col);
  G.iter_classes g (fun c ->
      Alcotest.check (verdict_t g) "column entry" (Engine.lookup eng c "bar")
        (Packed.column_get col c))

let test_memo_bad_cap () =
  let cl = Chg.Closure.compute (graph ()) in
  Alcotest.check_raises "zero cap rejected"
    (Invalid_argument "Memo.create: max_entries must be >= 1")
    (fun () -> ignore (Memo.create ~max_entries:0 cl))

(* ---- The verdict store ---- *)

let col_of verdicts = Packed.pack_column verdicts

let red c = Some (Engine.Red { r_ldc = c; r_lvs = [ Lookup_core.Abstraction.Omega ] })

let test_cache_invalidate_and_update () =
  let t = Table_cache.create () in
  Table_cache.fill t 0 (col_of [| red 0 |]);
  Table_cache.fill t 3 (col_of [| red 0 |]) (* grows the array *);
  Alcotest.(check (list int)) "resident ids" [ 0; 3 ]
    (List.map fst (Table_cache.columns t));
  Alcotest.(check bool) "empty slot misses" true (Table_cache.find t 1 = None);
  let before = Table_cache.columns t in
  (* the add_class path: extend every resident column *)
  Table_cache.update t 4 (fun _ col -> Some (Packed.column_append col (red 1)));
  (match Table_cache.find t 3 with
  | Some col ->
    Alcotest.(check int) "extended" 2 (Packed.column_classes col);
    Alcotest.check (verdict_t (graph ())) "new slot" (red 1)
      (Packed.column_get col 1)
  | None -> Alcotest.fail "column 3 disappeared");
  Alcotest.(check bool) "columns handed out earlier are unchanged" true
    (List.for_all (fun (_, col) -> Packed.column_classes col = 1) before);
  (* update returning None drops, and a shorter array drops the tail *)
  Table_cache.update t 2 (fun id col -> if id = 0 then None else Some col);
  Alcotest.(check int) "all dropped" 0 (Table_cache.entries t);
  let find k = List.assoc k (Table_cache.counters t) in
  Alcotest.(check (list int)) "hits, misses, promotions, evictions"
    [ 1; 1; 2; 0 ]
    (List.map find
       [ "table_hits"; "table_misses"; "table_promotions"; "table_evictions" ])

(* ---- Sessions ---- *)

let resident s m = List.mem_assoc m (Session.compiled_columns s)
let store_counter s k = List.assoc k (Table_cache.counters (Session.cache s))

let test_session_serves_and_promotes () =
  let g = graph () in
  let s = Session.create ~name:"t" g in
  let eng = Engine.build (Chg.Closure.compute g) in
  let expect_served cls m layer =
    match Session.lookup s cls m with
    | Error c -> Alcotest.failf "unknown class %s" c
    | Ok (v, served) ->
      Alcotest.check (verdict_t g)
        (Printf.sprintf "%s::%s agrees with engine" cls m)
        (Engine.lookup eng (G.find g cls) m)
        v;
      Alcotest.(check string)
        (Printf.sprintf "%s::%s served via" cls m)
        layer
        (Session.served_string served)
  in
  expect_served "H" "foo" "table" (* compiles foo's column *);
  expect_served "G" "foo" "table";
  expect_served "A" "foo" "table";
  Alcotest.(check bool) "foo column resident" true (resident s "foo");
  Alcotest.(check bool) "bar not compiled yet" false (resident s "bar");
  expect_served "H" "bar" "table";
  Alcotest.(check int) "one compile per member" 2
    (store_counter s "table_promotions");
  Alcotest.(check int) "misses = compiles" 2 (store_counter s "table_misses");
  let c = Session.counters s in
  Alcotest.(check int) "lookup counter" 4 (List.assoc "lookups" c)

(* Every (class, member) pair of a hierarchy, with the member's id *)
let all_pairs s =
  let g = Session.graph s in
  List.concat_map
    (fun m ->
      let id = Option.get (Session.member_symbol s m) in
      List.map (fun c -> (c, m, id)) (G.classes g))
    (G.member_names g)

let test_store_compiles_once () =
  let i =
    Hiergen.Families.random_dag ~n:40 ~max_bases:3 ~virtual_prob:0.3
      ~declare_prob:0.2
      ~members:(List.init 12 (Printf.sprintf "m%d"))
      ~seed:3
  in
  let g = i.Hiergen.Families.graph in
  let s = Session.create ~name:"once" g in
  let touched =
    List.filter (fun m -> Session.member_symbol s m <> None) [ "m1"; "m4"; "m7" ]
  in
  let pairs = List.filter (fun (_, m, _) -> List.mem m touched) (all_pairs s) in
  for _ = 1 to 3 do
    List.iter
      (fun (c, m, id) ->
        ignore (Session.lookup s (G.name g c) m);
        ignore (Session.lookup_code s ~cls:c ~member:id))
      pairs
  done;
  Alcotest.(check bool) "some members touched" true (touched <> []);
  Alcotest.(check int) "table_promotions = distinct members touched"
    (List.length touched) (store_counter s "table_promotions");
  Alcotest.(check int) "table_evictions = 0" 0 (store_counter s "table_evictions");
  Alcotest.(check (list string)) "exactly the touched columns are resident"
    (List.sort compare touched)
    (List.map fst (Session.compiled_columns s))

let test_store_undeclared_name () =
  let g = graph () in
  let s = Session.create ~name:"t" g in
  ignore (Session.lookup s "H" "foo");
  let check_undeclared what =
    let syms = Session.num_member_symbols s in
    let cols = List.map fst (Session.compiled_columns s) in
    let compiled = store_counter s "table_promotions" in
    (match Session.lookup s "H" "nosuch" with
    | Ok (None, served) ->
      Alcotest.(check string) (what ^ ": via") "memo" (Session.served_string served)
    | Ok (Some _, _) -> Alcotest.failf "%s: undeclared name resolved" what
    | Error c -> Alcotest.failf "%s: lost class %s" what c);
    Alcotest.(check int) (what ^ ": no intern") syms (Session.num_member_symbols s);
    Alcotest.(check (option int)) (what ^ ": no symbol") None
      (Session.member_symbol s "nosuch");
    Alcotest.(check (list string)) (what ^ ": store unchanged") cols
      (List.map fst (Session.compiled_columns s));
    Alcotest.(check int) (what ^ ": nothing compiled") compiled
      (store_counter s "table_promotions")
  in
  check_undeclared "before a mutation";
  ignore (Session.add_member s ~cls:"A" (G.member "fresh"));
  check_undeclared "after a mutation"

let test_store_no_compile_after_mutation () =
  let g = graph () in
  let s = Session.create ~name:"t" g in
  ignore (Session.lookup s "H" "foo");
  ignore (Session.add_member s ~cls:"A" (G.member "fresh"));
  let compiled = store_counter s "table_promotions" in
  List.iter
    (fun (c, m, id) ->
      let via served = Session.served_string served in
      let want = if m = "foo" then "table" else "memo" in
      (match Session.lookup s (G.name g c) m with
      | Ok (_, served) -> Alcotest.(check string) ("by name via " ^ m) want (via served)
      | Error cls -> Alcotest.failf "lost class %s" cls);
      match Session.lookup_code s ~cls:c ~member:id with
      | Ok (_, served) -> Alcotest.(check string) ("by id via " ^ m) want (via served)
      | Error _ -> Alcotest.fail "lookup_code failed")
    (all_pairs s);
  Alcotest.(check int) "nothing compiled after the mutation" compiled
    (store_counter s "table_promotions");
  Alcotest.(check (list string)) "only the warm column is resident" [ "foo" ]
    (List.map fst (Session.compiled_columns s))

let test_session_unknown_class () =
  let s = Session.create ~name:"t" (graph ()) in
  match Session.lookup s "Nope" "foo" with
  | Error c -> Alcotest.(check string) "echoes the class" "Nope" c
  | Ok _ -> Alcotest.fail "lookup of unknown class succeeded"

(* the oracle for mutations: rebuild the mutated hierarchy from scratch
   and run the eager engine on it *)
let engine_of_session s =
  Engine.build (Chg.Closure.compute (Session.graph s))

let check_all_lookups s =
  let g = Session.graph s in
  let eng = engine_of_session s in
  G.iter_classes g (fun c ->
      List.iter
        (fun m ->
          match Session.lookup s (G.name g c) m with
          | Error cls -> Alcotest.failf "lost class %s" cls
          | Ok (v, _) ->
            Alcotest.check (verdict_t g)
              (Printf.sprintf "%s::%s vs fresh engine" (G.name g c) m)
              (Engine.lookup eng c m) v)
        (G.member_names g))

let test_session_add_class_extends_columns () =
  let g = graph () in
  let s = Session.create ~name:"t" g in
  (* warm: compile foo's column *)
  ignore (Session.lookup s "H" "foo");
  Alcotest.(check bool) "foo compiled" true (resident s "foo");
  let id =
    Session.add_class s ~cls:"Z"
      ~bases:[ ("H", G.Non_virtual, G.Public); ("F", G.Virtual, G.Public) ]
      ~members:[ G.member "baz" ]
  in
  Alcotest.(check int) "dense id appended" (G.num_classes g) id;
  Alcotest.(check int) "epoch bumped" 1 (Session.epoch s);
  (* the warm column survived the mutation and covers the new class *)
  Alcotest.(check bool) "foo column still resident" true (resident s "foo");
  (match Session.lookup s "Z" "foo" with
  | Ok (_, served) ->
    Alcotest.(check string) "new class served from the extended column"
      "table"
      (Session.served_string served)
  | Error c -> Alcotest.failf "lost class %s" c);
  check_all_lookups s

let test_session_add_member_invalidates () =
  let g = graph () in
  let s = Session.create ~name:"t" g in
  ignore (Session.lookup s "H" "foo");
  let old = List.assoc "foo" (Session.compiled_columns s) in
  let rows, invalidated = Session.add_member s ~cls:"B" (G.member "foo") in
  Alcotest.(check bool) "compiled column was invalidated" true invalidated;
  Alcotest.(check bool) "some rows recomputed" true (rows > 0);
  (* the old column is replaced by one repacked from the engine's rows *)
  let fresh = List.assoc "foo" (Session.compiled_columns s) in
  Alcotest.(check bool) "column repacked" false (Packed.column_equal old fresh);
  Alcotest.(check int) "epoch bumped" 1 (Session.epoch s);
  (match Session.lookup s "B" "foo" with
  | Ok (_, served) ->
    Alcotest.(check string) "served from the repacked column" "table"
      (Session.served_string served)
  | Error c -> Alcotest.failf "lost class %s" c);
  check_all_lookups s;
  (* an unrelated member's addition leaves nothing to invalidate *)
  let _, invalidated2 = Session.add_member s ~cls:"B" (G.member "qux") in
  Alcotest.(check bool) "nothing resident to invalidate" false invalidated2;
  check_all_lookups s

(* The store is the whole read-side residency: warming every (class,
   member) pair of a 600-class, 256-member hierarchy by id grows the
   live heap by the packed columns and little else — no boxed verdict
   outlives the sweep that compiled its column. *)
let test_store_memory_bound () =
  let i =
    Hiergen.Families.random_dag ~n:600 ~max_bases:2 ~virtual_prob:0.2
      ~declare_prob:0.05
      ~members:(List.init 256 (Printf.sprintf "m%d"))
      ~seed:1
  in
  let g = i.Hiergen.Families.graph in
  let s = Session.create ~name:"wide" g in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  let members = Session.num_member_symbols s in
  for member = 0 to members - 1 do
    for cls = 0 to G.num_classes g - 1 do
      match Session.lookup_code s ~cls ~member with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "lookup_code rejected a valid pair"
    done
  done;
  let grown = live_words () - before in
  let store = Session.cache s in
  let store_words = Table_cache.bytes store / (Sys.word_size / 8) in
  Alcotest.(check int) "every member compiled" members (Table_cache.entries store);
  if grown > (2 * store_words) + 16_384 then
    Alcotest.failf "live heap grew by %d words; the store holds %d" grown
      store_words

(* A mutation never changes what the session handed out before it: the
   old graph, closure and compiled columns stay as they were, though the
   new ones share storage with them. *)
let test_published_values_persist () =
  let g = graph () in
  let s = Session.create ~name:"t" g in
  ignore (Session.lookup s "H" "foo");
  let g0 = Session.graph s and cl0 = Session.closure s in
  let doc0 = Chg.Serialize.to_string g0 in
  let bits cl =
    List.concat_map
      (fun y ->
        List.map
          (fun x -> (Chg.Closure.is_base cl x y, Chg.Closure.is_virtual_base cl x y))
          (G.classes g0))
      (G.classes g0)
  in
  let bits0 = bits cl0 in
  let cols0 =
    List.map (fun (m, col) -> (m, Packed.unpack_column col)) (Session.compiled_columns s)
  in
  let published0 = Session.compiled_columns s in
  ignore (Session.add_member s ~cls:"B" (G.member "zip"));
  let g1 = Session.graph s in
  ignore
    (Session.add_class s ~cls:"Z"
       ~bases:[ ("H", G.Virtual, G.Public) ]
       ~members:[ G.member "foo" ]);
  ignore (Session.add_member s ~cls:"A" (G.member "zap"));
  Alcotest.(check string) "first graph unchanged" doc0 (Chg.Serialize.to_string g0);
  Alcotest.(check (option int)) "first graph has no Z" None (G.find_opt g0 "Z");
  Alcotest.(check bool) "first closure unchanged" true (bits cl0 = bits0);
  Alcotest.(check bool) "first closure keeps its graph" true
    (Chg.Closure.graph cl0 == g0);
  Alcotest.(check int) "second graph keeps its classes" (G.num_classes g0)
    (G.num_classes g1);
  Alcotest.(check bool) "second graph has B::zip, not A::zap" true
    (G.declares g1 (G.find g1 "B") "zip" && not (G.declares g1 (G.find g1 "A") "zap"));
  Alcotest.(check bool) "compiled columns handed out unchanged" true
    (List.for_all2
       (fun (m, boxed) (m', col) -> m = m' && Packed.unpack_column col = boxed)
       cols0 published0);
  check_all_lookups s

(* ---- Protocol codec ---- *)

let parse line =
  match Protocol.parse_request line with
  | Ok rq -> rq
  | Error (_, code, msg) ->
    Alcotest.failf "parse failed: %s %s" (Protocol.code_string code) msg

let test_protocol_parse_ok () =
  let rq = parse {|{"id":7,"op":"lookup","session":"s","class":"A","member":"m"}|} in
  Alcotest.(check bool) "id echo" true (rq.Protocol.rq_id = J.Int 7);
  Alcotest.(check (option string)) "session" (Some "s")
    rq.Protocol.rq_session;
  (match rq.Protocol.rq_op with
  | Protocol.Lookup
      { lk_query = { q_class = "A"; q_member = "m" }; lk_semantics = Mro.Cpp }
    -> ()
  | _ -> Alcotest.fail "wrong op");
  (match (parse {|{"op":"batch_lookup","session":"s","queries":[{"class":"A","member":"m"},{"class":"B","member":"n"}]}|}).Protocol.rq_op with
  | Protocol.Batch_lookup { bl_queries = [ a; b ]; bl_semantics = Mro.Cpp } ->
    Alcotest.(check string) "q1" "A" a.Protocol.q_class;
    Alcotest.(check string) "q2 member" "n" b.Protocol.q_member
  | _ -> Alcotest.fail "wrong batch op");
  (match (parse {|{"op":"mutate","session":"s","add_member":{"class":"C","member":{"name":"m","static":true}}}|}).Protocol.rq_op with
  | Protocol.Mutate (Protocol.Add_member { mm_class = "C"; mm_member }) ->
    Alcotest.(check bool) "static parsed" true mm_member.G.m_static
  | _ -> Alcotest.fail "wrong mutate op");
  (* versioned request accepted *)
  match (parse {|{"rpc":"cxxlookup-rpc/1","op":"stats"}|}).Protocol.rq_op with
  | Protocol.Stats -> ()
  | _ -> Alcotest.fail "wrong stats op"

let expect_error line code =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "accepted %s" line
  | Error (_, c, _) ->
    Alcotest.(check string)
      (Printf.sprintf "error code for %s" line)
      (Protocol.code_string code) (Protocol.code_string c)

let test_protocol_parse_errors () =
  expect_error "nonsense" Protocol.Parse_error;
  expect_error {|[1,2]|} Protocol.Bad_request;
  expect_error {|{"id":1}|} Protocol.Bad_request;
  expect_error {|{"op":"frobnicate"}|} Protocol.Unknown_op;
  expect_error {|{"rpc":"cxxlookup-rpc/2","op":"stats"}|}
    Protocol.Bad_version;
  expect_error {|{"op":"lookup","class":"A"}|} Protocol.Bad_request;
  (* the id is still recovered for the error response *)
  match Protocol.parse_request {|{"id":"q1","op":"frobnicate"}|} with
  | Error (id, _, _) ->
    Alcotest.(check bool) "id recovered" true (id = J.String "q1")
  | Ok _ -> Alcotest.fail "accepted unknown op"

(* ---- Server dispatch ---- *)

let field r name =
  match J.member name r with
  | Ok v -> v
  | Error e -> Alcotest.failf "response lacks %s: %s" name e

let is_ok r = field r "ok" = J.Bool true

let error_code r =
  match J.member "code" (field r "error") with
  | Ok (J.String s) -> s
  | _ -> Alcotest.fail "unstructured error"

let open_request ?(session = "s") g =
  J.Obj
    [ ("id", J.Int 0); ("op", J.String "open");
      ("session", J.String session); ("chg", Chg.Serialize.to_json g) ]

let test_server_open_and_errors () =
  let srv = Server.create () in
  let r = Server.handle_json srv (open_request (graph ())) in
  Alcotest.(check bool) "open ok" true (is_ok r);
  Alcotest.(check bool) "class count" true (field r "classes" = J.Int 8);
  let dup = Server.handle_json srv (open_request (graph ())) in
  Alcotest.(check string) "duplicate session" "duplicate_session"
    (error_code dup);
  let unknown =
    Server.handle_line srv
      {|{"id":1,"op":"lookup","session":"nope","class":"A","member":"foo"}|}
  in
  Alcotest.(check string) "unknown session" "unknown_session"
    (error_code unknown);
  let bad_class =
    Server.handle_line srv
      {|{"id":2,"op":"lookup","session":"s","class":"Nope","member":"foo"}|}
  in
  Alcotest.(check string) "unknown class" "unknown_class"
    (error_code bad_class);
  let closed =
    Server.handle_line srv {|{"id":3,"op":"close","session":"s"}|}
  in
  Alcotest.(check bool) "close ok" true (is_ok closed);
  Alcotest.(check string) "closed session gone" "unknown_session"
    (error_code
       (Server.handle_line srv {|{"id":4,"op":"close","session":"s"}|}));
  (* duplicate open, unknown session, unknown class, close-after-close *)
  let errors = List.assoc "errors" (Server.counters srv) in
  Alcotest.(check int) "error counter" 4 errors

let test_server_open_source_rejects_bad () =
  let srv = Server.create () in
  let r =
    Server.handle_line srv
      {|{"id":0,"op":"open","source":"struct A : NotDeclared {};"}|}
  in
  Alcotest.(check string) "bad hierarchy" "bad_hierarchy" (error_code r)

(* every malformed line and misdirected verb must come back as a
   structured error response — the server never throws, never dies *)
let test_server_protocol_error_paths () =
  let srv = Server.create () in
  let code line = error_code (Server.handle_line srv line) in
  Alcotest.(check string) "malformed json" "parse_error" (code "{not json");
  Alcotest.(check string) "truncated json" "parse_error"
    (code {|{"op":"stats"|});
  Alcotest.(check string) "non-object request" "bad_request"
    (code {|[1,2,3]|});
  Alcotest.(check string) "unknown verb" "unknown_op"
    (code {|{"op":"defragment"}|});
  Alcotest.(check string) "lookup without session" "bad_request"
    (code {|{"op":"lookup","class":"A","member":"m"}|});
  Alcotest.(check string) "lookup against nonexistent session"
    "unknown_session"
    (code {|{"op":"lookup","session":"ghost","class":"A","member":"m"}|});
  Alcotest.(check string) "mutate with both kinds" "bad_request"
    (code
       {|{"op":"mutate","session":"ghost","add_class":{"name":"X"},"add_member":{"class":"X","member":{"name":"m"}}}|});
  ignore (Server.handle_json srv (open_request (graph ())));
  (* durability verbs without a store: structured store_error *)
  Alcotest.(check string) "snapshot without store" "store_error"
    (code {|{"op":"snapshot","session":"s"}|});
  Alcotest.(check string) "restore without store" "store_error"
    (code {|{"op":"restore","session":"elsewhere"}|});
  (* a closed session is gone: lookups answer unknown_session *)
  Alcotest.(check bool) "close ok" true
    (is_ok (Server.handle_line srv {|{"op":"close","session":"s"}|}));
  Alcotest.(check string) "lookup against closed session" "unknown_session"
    (code {|{"op":"lookup","session":"s","class":"A","member":"foo"}|});
  (* the server survived all of it: a fresh open still works *)
  Alcotest.(check bool) "still serving" true
    (is_ok (Server.handle_json srv (open_request (graph ()))))

(* ---- the durable server: store-backed open/mutate/restore ---------- *)

let with_temp_store f =
  let dir = Filename.temp_file "cxxsrv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_server_store_restart () =
  with_temp_store (fun dir ->
      let store = Store.open_dir dir in
      let srv = Server.create ~store () in
      Alcotest.(check bool) "open ok" true
        (is_ok (Server.handle_json srv (open_request ~session:"d" (graph ()))));
      Alcotest.(check bool) "mutate ok" true
        (is_ok
           (Server.handle_line srv
              {|{"op":"mutate","session":"d","add_member":{"class":"B","member":{"name":"zap"}}}|}));
      (* restoring a name that is open is a duplicate, not a reopen *)
      Alcotest.(check string) "restore of open session" "duplicate_session"
        (error_code
           (Server.handle_line srv {|{"op":"restore","session":"d"}|}));
      (* stats carry the protocol version and the session epoch *)
      let st = Server.handle_line srv {|{"op":"stats","session":"d"}|} in
      Alcotest.(check bool) "stats protocol" true
        (field st "protocol" = J.String Protocol.version);
      Alcotest.(check bool) "stats epoch" true (field st "epoch" = J.Int 1);
      Store.close store;
      (* restart: a new server over the same directory recovers it all *)
      let store2 = Store.open_dir dir in
      let srv2 = Server.create ~store:store2 () in
      (match Server.recover_sessions srv2 with
      | [ Server.Recovered { r_session = "d"; r_epoch = 1; r_replayed = 1;
                             r_torn = false } ] -> ()
      | other ->
        Alcotest.failf "unexpected recovery: %d results"
          (List.length other));
      let r =
        Server.handle_line srv2
          {|{"op":"lookup","session":"d","class":"H","member":"zap"}|}
      in
      Alcotest.(check bool) "recovered verdict" true
        (field r "verdict" = J.String "red"
        && field r "resolves_to" = J.String "B");
      (* restore of a never-stored name: structured store_error *)
      Alcotest.(check string) "restore unknown name" "store_error"
        (error_code
           (Server.handle_line srv2 {|{"op":"restore","session":"nope"}|}));
      (* close, then reopen from the store via the restore verb *)
      Alcotest.(check bool) "close ok" true
        (is_ok (Server.handle_line srv2 {|{"op":"close","session":"d"}|}));
      let back = Server.handle_line srv2 {|{"op":"restore","session":"d"}|} in
      Alcotest.(check bool) "restore ok" true (is_ok back);
      Alcotest.(check bool) "restore epoch" true
        (field back "epoch" = J.Int 1);
      let r2 =
        Server.handle_line srv2
          {|{"op":"lookup","session":"d","class":"H","member":"zap"}|}
      in
      Alcotest.(check bool) "verdict after restore verb" true
        (field r2 "verdict" = J.String "red");
      Store.close store2)

(* ---- observability: metrics verb, stats fields, request log, flight
   recorder ---- *)

let test_server_metrics_verb () =
  let srv = Server.create () in
  ignore (Server.handle_json srv (open_request (graph ())));
  ignore
    (Server.handle_line srv
       {|{"op":"lookup","session":"s","class":"A","member":"foo"}|});
  let r = Server.handle_line srv {|{"op":"metrics"}|} in
  Alcotest.(check bool) "metrics ok" true (is_ok r);
  Alcotest.(check bool) "content type announced" true
    (field r "format" = J.String "text/plain; version=0.0.4");
  let body =
    match field r "body" with
    | J.String s -> s
    | _ -> Alcotest.fail "metrics body is not a string"
  in
  (match Telemetry.Expocheck.check body with
  | Ok n -> Alcotest.(check bool) "exposition has samples" true (n > 0)
  | Error e -> Alcotest.failf "metrics body rejected: %s" e);
  let has needle =
    let nl = String.length needle and bl = String.length body in
    let rec scan i =
      i + nl <= bl && (String.sub body i nl = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "request counter exposed" true
    (has "cxxlookup_server_requests_total");
  Alcotest.(check bool) "per-verb duration histogram exposed" true
    (has "cxxlookup_server_request_duration_ns_bucket");
  Alcotest.(check bool) "session series labelled" true
    (has "session=\"s\"");
  (* two scrapes of a quiet server must be monotone (the counter moved
     only by the metrics request in between) *)
  let r2 = Server.handle_line srv {|{"op":"metrics"}|} in
  let body2 =
    match field r2 "body" with J.String s -> s | _ -> assert false
  in
  match Telemetry.Expocheck.check_monotone ~prev:body ~next:body2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scrapes not monotone: %s" e

let test_server_stats_observability_fields () =
  let srv = Server.create () in
  ignore (Server.handle_json srv (open_request (graph ())));
  ignore
    (Server.handle_line srv
       {|{"op":"lookup","session":"s","class":"A","member":"foo"}|});
  ignore (Server.handle_line srv {|{"op":"defragment"}|}) (* unknown_op *);
  let r = Server.handle_line srv {|{"op":"stats"}|} in
  let service = field r "service" in
  (match J.member "uptime_ns" service with
  | Ok (J.Int ns) ->
    Alcotest.(check bool) "uptime positive" true (ns >= 0)
  | _ -> Alcotest.fail "stats lacks service.uptime_ns");
  (match J.member "verbs" service with
  | Ok verbs ->
    Alcotest.(check bool) "per-verb counts" true
      (J.member "lookup" verbs = Ok (J.Int 1)
      && J.member "open" verbs = Ok (J.Int 1))
  | Error e -> Alcotest.failf "stats lacks service.verbs: %s" e);
  match J.member "error_codes" service with
  | Ok codes ->
    Alcotest.(check bool) "per-code counts" true
      (J.member "unknown_op" codes = Ok (J.Int 1))
  | Error e -> Alcotest.failf "stats lacks service.error_codes: %s" e

let test_server_request_log_and_flight () =
  let path = Filename.temp_file "cxxlog" ".jsonl" in
  let log = Service.Request_log.open_path path in
  let srv = Server.create ~request_log:log ~slow_ms:0 () in
  ignore (Server.handle_json srv (open_request (graph ())));
  ignore
    (Server.handle_line srv
       {|{"id":"q1","op":"lookup","session":"s","class":"A","member":"foo"}|});
  ignore (Server.handle_line srv {|{"op":"nonsense"}|});
  Service.Request_log.close log;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one log line per request" 3 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match J.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "log line not JSON: %s (%s)" l e)
      lines
  in
  let second = List.nth parsed 1 in
  Alcotest.(check bool) "verb recorded" true
    (J.member "verb" second = Ok (J.String "lookup"));
  Alcotest.(check bool) "request id carried" true
    (J.member "id" second = Ok (J.String "q1"));
  Alcotest.(check bool) "outcome ok" true
    (J.member "outcome" second = Ok (J.String "ok"));
  Alcotest.(check bool) "slow_ms 0 marks everything slow" true
    (J.member "slow" second = Ok (J.Bool true));
  Alcotest.(check bool) "response bytes measured when log on" true
    (match J.member "bytes" second with
    | Ok (J.Int b) -> b > 0
    | _ -> false);
  let third = List.nth parsed 2 in
  Alcotest.(check bool) "error outcome recorded" true
    (J.member "outcome" third = Ok (J.String "unknown_op"));
  (* the flight recorder holds the same requests, oldest first *)
  let dump = Filename.temp_file "cxxflight" ".txt" in
  let oc = open_out dump in
  Server.dump_flight srv oc;
  close_out oc;
  let ic = open_in dump in
  let first_line = input_line ic in
  close_in ic;
  Sys.remove dump;
  Alcotest.(check string) "flight header counts requests"
    "--- cxxlookup flight recorder: last 3 of 3 requests ---" first_line

(* ---- QCheck: the wire protocol against the spec oracle ---- *)

let qc_members = [ "m"; "n"; "p" ]

let instance_gen =
  QCheck.Gen.(
    map
      (fun (n, max_bases, vp, dp, seed) ->
        Hiergen.Families.random_dag ~n ~max_bases
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:(float_of_int dp /. 10.)
          ~members:qc_members ~seed)
      (tup5 (int_range 1 14) (int_range 1 3) (int_range 0 10)
         (int_range 1 6) (int_range 0 10000)))

let instance_arb =
  QCheck.make instance_gen ~print:(fun i ->
      i.Hiergen.Families.description ^ "\n"
      ^ Format.asprintf "%a" G.pp i.Hiergen.Families.graph)

let result_matches_spec g (q : W.query) r =
  let verdict =
    match J.member "verdict" r with
    | Ok (J.String s) -> s
    | _ -> "?"
  in
  match Spec.lookup_static g q.W.q_class q.W.q_member with
  | Spec.Resolved p ->
    verdict = "red"
    && J.member "resolves_to" r = Ok (J.String (G.name g (Path.ldc p)))
  | Spec.Ambiguous _ -> verdict = "blue"
  | Spec.Undeclared -> verdict = "none"

let prop_batch_matches_spec =
  QCheck.Test.make ~count:120
    ~name:"batch_lookup over exhaustive workload = spec oracle" instance_arb
    (fun { Hiergen.Families.graph = g; _ } ->
      let srv = Server.create () in
      let opened = Server.handle_json srv (open_request g) in
      opened <> J.Null
      && is_ok opened
      &&
      let ws = W.exhaustive g in
      let resp =
        Server.handle_line srv (W.to_batch_request ~session:"s" g ws)
      in
      is_ok resp
      &&
      match J.member "results" resp with
      | Ok (J.List rs) when List.length rs = List.length ws ->
        List.for_all2 (result_matches_spec g) ws rs
      | _ -> false)

let prop_serve_sessions_promote =
  (* replaying a workload twice per session: the first pass compiles
     each column, the second is served from them, answers equal *)
  QCheck.Test.make ~count:60 ~name:"promotion never changes answers"
    instance_arb (fun { Hiergen.Families.graph = g; _ } ->
      let s = Session.create ~name:"q" g in
      let ws = W.exhaustive g in
      let run () =
        List.map
          (fun (q : W.query) ->
            match Session.lookup s (G.name g q.W.q_class) q.W.q_member with
            | Ok (v, _) -> v
            | Error _ -> assert false)
          ws
      in
      run () = run ())

(* ---- QCheck: a mutation trace against the spec oracle ----

   A random hierarchy (virtual edges, names redeclared across classes,
   some static) takes a random interleaving of add_class and
   add_member.  Before the first mutation only [warm_members] are
   queried, so their columns are compiled, while the hierarchy's other
   names are first asked for after it and are answered from the engine's
   rows, as are names the trace adds.  Each add_class then extends the
   resident columns, and an add_member of a warm name replaces a
   resident column.  After every mutation each (class, member) pair is
   answered three ways and checked against the oracle on the session's
   own graph: by name (also against the full verdict of a from-scratch
   eager engine, which pins the leastVirtual sets the oracle's resolve
   code does not show), by interned id, and under C3 against a
   from-scratch Mro table.  The session's closure must also agree bit
   for bit with one computed from scratch. *)

let trace_members = [ "m"; "n"; "p"; "q" ]
let warm_members = [ "m"; "n" ]

type trace_op =
  | T_class of { t_bases : (int * bool) list; t_members : (int * bool) list }
      (** base indices (mod the class count, virtual?) and member
          indices (into [trace_members], static?) *)
  | T_member of { t_cls : int; t_member : int; t_static : bool }

let pp_trace_op = function
  | T_class { t_bases; t_members } ->
    Printf.sprintf "add_class bases=[%s] members=[%s]"
      (String.concat ";"
         (List.map (fun (b, v) -> Printf.sprintf "%d%s" b (if v then "v" else "")) t_bases))
      (String.concat ";"
         (List.map (fun (m, st) -> Printf.sprintf "%d%s" m (if st then "s" else "")) t_members))
  | T_member { t_cls; t_member; t_static } ->
    Printf.sprintf "add_member %d %d%s" t_cls t_member (if t_static then "s" else "")

let trace_gen =
  QCheck.Gen.(
    let op =
      frequency
        [ ( 2,
            map2
              (fun bases members -> T_class { t_bases = bases; t_members = members })
              (list_size (int_range 0 3) (pair (int_bound 1000) bool))
              (list_size (int_range 0 2)
                 (pair (int_bound (List.length trace_members - 1)) bool)) );
          ( 3,
            map3
              (fun c m st -> T_member { t_cls = c; t_member = m; t_static = st })
              (int_bound 1000)
              (int_bound (List.length trace_members - 1))
              bool ) ]
    in
    pair
      (map
         (fun (n, vp, seed) ->
           Hiergen.Families.random_static_dag ~n ~max_bases:3
             ~virtual_prob:(float_of_int vp /. 10.)
             ~declare_prob:0.3 ~static_prob:0.25
             ~members:[ "m"; "n"; "p" ] ~seed)
         (triple (int_range 1 10) (int_range 0 10) (int_range 0 10000)))
      (list_size (int_range 1 10) op))

let trace_arb =
  QCheck.make trace_gen ~print:(fun (i, ops) ->
      Format.asprintf "%a" G.pp i.Hiergen.Families.graph
      ^ String.concat "\n" (List.map pp_trace_op ops))

let expect_code g c m =
  match Spec.lookup_static g c m with
  | Spec.Resolved p -> Path.ldc p
  | Spec.Ambiguous _ -> -2
  | Spec.Undeclared -> -1

(* Applies one op; ops that would be rejected (a duplicate member) are
   skipped, so every trace stays well-formed. *)
let apply_trace_op s k op =
  let g = Session.graph s in
  let n = G.num_classes g in
  let decl (m, static) = G.member ~static (List.nth trace_members m) in
  match op with
  | T_class { t_bases; t_members } ->
    let bases =
      List.sort_uniq compare (List.map (fun (b, v) -> (b mod n, v)) t_bases)
      |> List.fold_left
           (fun acc (b, v) -> if List.mem_assoc b acc then acc else (b, v) :: acc)
           []
      |> List.rev_map (fun (b, v) ->
             (G.name g b, (if v then G.Virtual else G.Non_virtual), G.Public))
    in
    let members =
      List.sort_uniq (fun (a, _) (b, _) -> compare a b) t_members
      |> List.map decl
    in
    ignore
      (Session.add_class s ~cls:(Printf.sprintf "T%d" k) ~bases ~members)
  | T_member { t_cls; t_member; t_static } ->
    let c = t_cls mod n in
    let m = decl (t_member, t_static) in
    if not (G.declares g c m.G.m_name) then
      ignore (Session.add_member s ~cls:(G.name g c) m)

let session_matches_oracle ?(only = fun _ -> true) s =
  let g = Session.graph s in
  let n = G.num_classes g in
  let c3 = Mro.compute Mro.C3 g in
  let cl = Chg.Closure.compute g and scl = Session.closure s in
  let eager = Engine.build cl in
  let closure_ok =
    List.for_all
      (fun y ->
        List.for_all
          (fun x ->
            Chg.Closure.is_base scl x y = Chg.Closure.is_base cl x y
            && Chg.Closure.is_virtual_base scl x y
               = Chg.Closure.is_virtual_base cl x y)
          (G.classes g))
      (G.classes g)
  in
  closure_ok
  && Chg.Closure.graph scl == g
  && List.for_all
       (fun m ->
         let id = Option.get (Session.member_symbol s m) in
         List.for_all
           (fun c ->
             let want = expect_code g c m in
             let by_id () =
               match Session.lookup_code s ~cls:c ~member:id with
               | Ok (code, _) -> code = want
               | Error _ -> false
             in
             by_id ()
             && (match Session.lookup s (G.name g c) m with
                | Ok (v, _) ->
                  Session.code_of_verdict v = want && v = Engine.lookup eager c m
                | Error _ -> false)
             && by_id ()
             && Session.mro_lookup s Mro.C3 (G.name g c) m
                = Ok (Mro.lookup c3 c m))
           (List.init n Fun.id))
       (List.filter only (G.member_names g))

let prop_mutation_trace_matches_spec =
  QCheck.Test.make ~count:200
    ~name:"mutation trace: lookup, lookup_code, C3 and closure = oracle"
    trace_arb (fun ({ Hiergen.Families.graph = g; _ }, ops) ->
      let s = Session.create ~name:"trace" g in
      session_matches_oracle ~only:(fun m -> List.mem m warm_members) s
      && List.for_all
           (fun (k, op) ->
             apply_trace_op s k op;
             session_matches_oracle s)
           (List.mapi (fun k op -> (k, op)) ops))

let suite =
  [ Alcotest.test_case "memo cap keeps verdicts intact" `Quick
      test_memo_cap_and_correctness;
    Alcotest.test_case "memo evict/clear" `Quick test_memo_evict_and_clear;
    Alcotest.test_case "memo root-query counting" `Quick
      test_memo_root_queries;
    Alcotest.test_case "memo materialized column" `Quick
      test_memo_column_matches_engine;
    Alcotest.test_case "memo rejects bad cap" `Quick test_memo_bad_cap;
    Alcotest.test_case "cache invalidate/update" `Quick
      test_cache_invalidate_and_update;
    Alcotest.test_case "session serves and promotes" `Quick
      test_session_serves_and_promotes;
    Alcotest.test_case "store compiles each column once" `Quick
      test_store_compiles_once;
    Alcotest.test_case "store ignores undeclared names" `Quick
      test_store_undeclared_name;
    Alcotest.test_case "store compiles nothing after a mutation" `Quick
      test_store_no_compile_after_mutation;
    Alcotest.test_case "store memory bound on a wide warm session" `Quick
      test_store_memory_bound;
    Alcotest.test_case "session unknown class" `Quick
      test_session_unknown_class;
    Alcotest.test_case "add_class extends compiled columns" `Quick
      test_session_add_class_extends_columns;
    Alcotest.test_case "add_member invalidates its column" `Quick
      test_session_add_member_invalidates;
    Alcotest.test_case "published values survive later mutations" `Quick
      test_published_values_persist;
    Alcotest.test_case "protocol parses every verb" `Quick
      test_protocol_parse_ok;
    Alcotest.test_case "protocol error codes" `Quick
      test_protocol_parse_errors;
    Alcotest.test_case "server open/close and errors" `Quick
      test_server_open_and_errors;
    Alcotest.test_case "server rejects bad source" `Quick
      test_server_open_source_rejects_bad;
    Alcotest.test_case "server protocol error paths" `Quick
      test_server_protocol_error_paths;
    Alcotest.test_case "server store restart" `Quick
      test_server_store_restart;
    Alcotest.test_case "metrics verb renders the registry" `Quick
      test_server_metrics_verb;
    Alcotest.test_case "stats observability fields" `Quick
      test_server_stats_observability_fields;
    Alcotest.test_case "request log and flight recorder" `Quick
      test_server_request_log_and_flight ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_batch_matches_spec; prop_serve_sessions_promote;
        prop_mutation_trace_matches_spec ]
