(* Tests for the lookup service layer: the compiled-table cache,
   sessions (including mutation repair of compiled columns), the
   cxxlookup-rpc/1 protocol codec, and the request dispatcher. *)

module G = Chg.Graph
module J = Chg.Json
module Path = Subobject.Path
module Spec = Subobject.Spec
module Engine = Lookup_core.Engine
module Packed = Lookup_core.Packed
module Table_cache = Service.Table_cache
module Session = Service.Session
module Protocol = Service.Protocol
module Server = Service.Server
module Frame = Service.Frame
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
  J.to_string
    (J.Obj
       [ ("id", J.Int 0); ("op", J.String "open");
         ("session", J.String session); ("chg", Chg.Serialize.to_json g) ])

let test_server_open_and_errors () =
  let srv = Server.create () in
  let r = Server.handle_line srv (open_request (graph ())) in
  Alcotest.(check bool) "open ok" true (is_ok r);
  Alcotest.(check bool) "class count" true (field r "classes" = J.Int 8);
  let dup = Server.handle_line srv (open_request (graph ())) in
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
  ignore (Server.handle_line srv (open_request (graph ())));
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
    (is_ok (Server.handle_line srv (open_request (graph ()))))

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
        (is_ok (Server.handle_line srv (open_request ~session:"d" (graph ()))));
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
  ignore (Server.handle_line srv (open_request (graph ())));
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
  ignore (Server.handle_line srv (open_request (graph ())));
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
  ignore (Server.handle_line srv (open_request (graph ())));
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
      let opened = Server.handle_line srv (open_request g) in
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


(* ---- Garbage per served request ---- *)

(* Words a call of [f] allocates, as (minor, major), after a warm-up.
   Minor: the fewest over [n] single calls, so no other thread's
   allocation counts (a call the scheduler did not interrupt counts only
   its own).  Major: averaged over the [n] calls, so that what a request
   promotes or keeps, which lands in a minor collection that most single
   calls do not run, still counts. *)
let words_per_call n f =
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let minor = ref infinity in
  let _, _, major0 = Gc.counters () in
  for _ = 1 to n do
    let minor0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    minor := Float.min !minor (Gc.minor_words () -. minor0)
  done;
  let _, _, major1 = Gc.counters () in
  (!minor, (major1 -. major0) /. float n)

(* A warm fig9 session served by name over JSON lines and by id over 1b
   frames.  A request allocates what it answers: a per-request registry
   probe that built a fresh histogram put ~500 words on the major heap
   each time, and the JSON codec allocated per character. *)
let test_request_garbage () =
  let srv = Server.create () in
  let source =
    In_channel.with_open_text "../examples/fig9.cpp" In_channel.input_all
  in
  let opened =
    Server.handle_line srv
      (J.to_string
         (J.Obj
            [ ("id", J.Int 0); ("op", J.String "open");
              ("session", J.String "s"); ("source", J.String source) ]))
  in
  Alcotest.(check bool) "opened" true (J.member "ok" opened = Ok (J.Bool true));
  let line = {|{"id":7,"op":"lookup","session":"s","class":"E","member":"m"}|} in
  (* the server loop serializes every answer, so the encode counts *)
  let minor, major =
    words_per_call 10_000 (fun () ->
        J.to_string (Server.handle_line srv line))
  in
  if major >= 50. then
    Alcotest.failf "JSON lookup: %.1f major words per request (< 50)" major;
  if minor > 800. then
    Alcotest.failf "JSON lookup: %.1f minor words per request (<= 800)" minor;
  let classes, members =
    match
      Frame.decode_response ~op:Frame.op_symbols
        (Server.handle_frame srv
           (Frame.encode_request
              { Frame.fr_id = 0; fr_session = "s"; fr_op = Frame.Symbols }))
    with
    | Ok (_, Frame.Ok_symbols { os_classes; os_members; _ }) ->
      (os_classes, os_members)
    | _ -> Alcotest.fail "symbols did not answer"
  in
  let index name names = Option.get (Array.find_index (String.equal name) names) in
  let frame =
    Frame.encode_request
      { Frame.fr_id = 7; fr_session = "s";
        fr_op =
          Frame.Lookup
            { lk_class = index "E" classes; lk_member = index "m" members } }
  in
  let _, fmajor =
    words_per_call 10_000 (fun () -> Server.handle_frame srv frame)
  in
  if fmajor >= 50. then
    Alcotest.failf "1b lookup: %.1f major words per request (< 50)" fmajor

(* Words promoted to the major heap per call, over [n] calls, and the
   minor collections those calls spanned.  A collection promotes what is
   live in the minor heap when it runs: for a warm server, the request
   in flight and whatever the previous requests left reachable. *)
let promoted_per_call n f =
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let _, promoted0, _ = Gc.counters () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let _, promoted1, _ = Gc.counters () in
  ( (Gc.quick_stat ()).Gc.minor_collections - minor0,
    (promoted1 -. promoted0) /. float n )

(* A warm request keeps nothing: the flight recorder stores ints and
   strings the server already holds, so a minor collection promotes
   only the request it interrupts.  A recorder of records (entry,
   option box, id, session string) had every collection promote its 64
   newest entries: 2.56 words per JSON lookup here, 0.47 per 1b
   frame. *)
let test_warm_requests_promote_nothing () =
  let srv = Server.create () in
  let opened =
    Server.handle_line srv
      {|{"id":0,"op":"open","session":"s","source":"struct A { int m; }; struct B : A {};"}|}
  in
  Alcotest.(check bool) "opened" true (J.member "ok" opened = Ok (J.Bool true));
  let spans what collections =
    if collections < 4 then
      Alcotest.failf "%s: %d minor collections (want >= 4)" what collections
  in
  let line = {|{"id":7,"op":"lookup","session":"s","class":"B","member":"m"}|} in
  let collections, promoted =
    promoted_per_call 40_000 (fun () -> J.to_string (Server.handle_line srv line))
  in
  spans "JSON lookup" collections;
  if promoted > 0.5 then
    Alcotest.failf "JSON lookup: %.2f promoted words per request (<= 0.5)"
      promoted;
  let frame =
    Frame.encode_request
      { Frame.fr_id = 7; fr_session = "s";
        fr_op = Frame.Lookup { lk_class = 1; lk_member = 0 } }
  in
  let collections, promoted =
    promoted_per_call 200_000 (fun () -> Server.handle_frame srv frame)
  in
  spans "1b lookup" collections;
  if promoted > 0.05 then
    Alcotest.failf "1b lookup: %.3f promoted words per request (<= 0.05)"
      promoted

(* A warm id batch allocates per request, not per lookup: once every
   member's row is built, 64 pairs cost the same minor words as 1.
   Measured on {!Server.answer_frame} into a buffer that is reused, as
   a connection's is — [handle_frame]'s fresh result string grows with
   the answer. *)
let test_id_batch_allocates_per_request () =
  let i =
    Hiergen.Families.random_dag ~n:60 ~max_bases:3 ~virtual_prob:0.3
      ~declare_prob:0.3
      ~members:(List.init 8 (Printf.sprintf "m%d"))
      ~seed:5
  in
  let g = i.Hiergen.Families.graph in
  let srv = Server.create () in
  let opened =
    Server.handle_line srv
      (J.to_string
         (J.Obj
            [ ("id", J.Int 0); ("op", J.String "open"); ("session", J.String "s");
              ("chg", Chg.Serialize.to_json g) ]))
  in
  Alcotest.(check bool) "opened" true (J.member "ok" opened = Ok (J.Bool true));
  let members =
    match
      Frame.decode_response ~op:Frame.op_symbols
        (Server.handle_frame srv
           (Frame.encode_request
              { Frame.fr_id = 0; fr_session = "s"; fr_op = Frame.Symbols }))
    with
    | Ok (_, Frame.Ok_symbols { os_members; _ }) -> Array.length os_members
    | _ -> Alcotest.fail "symbols did not answer"
  in
  let classes = G.num_classes g in
  let batch k =
    Frame.encode_request
      { Frame.fr_id = 7; fr_session = "s";
        fr_op =
          Frame.Batch_lookup
            (Array.init k (fun j -> (j * 7 mod classes, j mod members))) }
  in
  let out = Service.Outbuf.create 4096 in
  (* the fewest words over many calls: a call the thread scheduler did
     not interrupt, so no other thread's allocation is counted *)
  let minor f =
    let fewest = ref infinity in
    for _ = 1 to 2_000 do
      Service.Outbuf.clear out;
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Server.answer_frame srv out f));
      fewest := Float.min !fewest (Gc.minor_words () -. w0)
    done;
    !fewest
  in
  let one = minor (batch 1) and many = minor (batch 64) in
  if many <> one then
    Alcotest.failf
      "warm id batch: %.0f minor words for 64 pairs, %.0f for 1 (want equal)"
      many one

(* ---- a 1b mutation trace against the spec oracle ----

   The trace above, driven over frames alone: add_class and add_member
   frames interleaved with id lookups and batches over every (class,
   member) pair, each answer checked against the oracle on the trace's
   own graph.  The first round builds every member's resolve-code row;
   a row that outlived a mutation would answer the verdict from before
   it.  Symbol ids come from the symbols frame and the mutation
   responses' deltas, as a client's would.  [line] and [frame] are one
   round trip each; the net variant sends batches and mutations on one
   connection and single lookups on another, each served by its own
   worker domain. *)
let run_1b_trace ~line ~frame ~single (g, ops) =
  let session = "t1b" in
  (match
     J.of_string
       (line
          (J.to_string
             (J.Obj
                [ ("id", J.Int 0); ("op", J.String "open");
                  ("session", J.String session);
                  ("chg", Chg.Serialize.to_json g) ])))
   with
  | Ok j when J.member "ok" j = Ok (J.Bool true) -> ()
  | _ -> QCheck.Test.fail_report "open failed");
  let ask ?(via = frame) op =
    let opcode =
      match op with
      | Frame.Lookup _ -> Frame.op_lookup
      | Frame.Batch_lookup _ -> Frame.op_batch_lookup
      | Frame.Add_member _ -> Frame.op_add_member
      | Frame.Add_class _ -> Frame.op_add_class
      | Frame.Symbols -> Frame.op_symbols
    in
    match
      Frame.decode_response ~op:opcode
        (via (Frame.encode_request { Frame.fr_id = 1; fr_session = session; fr_op = op }))
    with
    | Ok (_, r) -> r
    | Error msg -> QCheck.Test.fail_reportf "undecodable response: %s" msg
  in
  let names =
    ref
      (match ask Frame.Symbols with
      | Frame.Ok_symbols { os_members; _ } -> os_members
      | _ -> QCheck.Test.fail_report "symbols did not answer")
  in
  let learn delta =
    List.iter
      (fun (id, name) ->
        if id <> Array.length !names then
          QCheck.Test.fail_reportf "delta id %d, expected %d" id (Array.length !names);
        names := Array.append !names [| name |])
      delta
  in
  let g = ref g in
  let round () =
    let n = G.num_classes !g in
    let pairs =
      List.concat_map
        (fun c -> List.init (Array.length !names) (fun m -> (c, m)))
        (List.init n Fun.id)
    in
    let want (c, m) = expect_code !g c !names.(m) in
    let rec batches = function
      | [] -> ()
      | ps ->
        let k = min 64 (List.length ps) in
        let chunk = List.filteri (fun i _ -> i < k) ps in
        (match ask (Frame.Batch_lookup (Array.of_list chunk)) with
        | Frame.Ok_batch { ob_codes; _ } ->
          List.iteri
            (fun i (c, m) ->
              if ob_codes.(i) <> want (c, m) then
                QCheck.Test.fail_reportf "batch (%s, %s): %d, oracle %d"
                  (G.name !g c) !names.(m) ob_codes.(i) (want (c, m)))
            chunk
        | _ -> QCheck.Test.fail_report "batch did not answer Ok_batch");
        batches (List.filteri (fun i _ -> i >= k) ps)
    in
    batches pairs;
    List.iter
      (fun (c, m) ->
        match ask ~via:single (Frame.Lookup { lk_class = c; lk_member = m }) with
        | Frame.Ok_lookup code when code = want (c, m) -> ()
        | _ ->
          QCheck.Test.fail_reportf "lookup (%s, %s) disagrees with the oracle"
            (G.name !g c) !names.(m))
      pairs
  in
  let decl (m, static) = G.member ~static (List.nth trace_members m) in
  round ();
  List.iteri
    (fun k op ->
      let n = G.num_classes !g in
      (match op with
      | T_class { t_bases; t_members } ->
        let bases =
          List.sort_uniq compare (List.map (fun (b, v) -> (b mod n, v)) t_bases)
          |> List.fold_left
               (fun acc (b, v) -> if List.mem_assoc b acc then acc else (b, v) :: acc)
               []
          |> List.rev_map (fun (b, v) ->
                 (G.name !g b, (if v then G.Virtual else G.Non_virtual), G.Public))
        in
        let members =
          List.sort_uniq (fun (a, _) (b, _) -> compare a b) t_members |> List.map decl
        in
        let name = Printf.sprintf "T%d" k in
        (match ask (Frame.Add_class { ac_name = name; ac_bases = bases; ac_members = members }) with
        | Frame.Ok_add_class { oac_class; oac_new_symbols; _ } when oac_class = n ->
          learn oac_new_symbols
        | _ -> QCheck.Test.fail_report "add_class did not answer Ok_add_class");
        g := fst (G.extend !g name ~bases ~members)
      | T_member { t_cls; t_member; t_static } ->
        let c = t_cls mod n in
        let m = decl (t_member, t_static) in
        if not (G.declares !g c m.G.m_name) then begin
          (match ask (Frame.Add_member { am_class = c; am_member = m }) with
          | Frame.Ok_add_member { oam_new_symbols; _ } -> learn oam_new_symbols
          | _ -> QCheck.Test.fail_report "add_member did not answer Ok_add_member");
          g := G.with_member !g (G.name !g c) m
        end);
      round ())
    ops;
  true

let prop_1b_trace_in_process =
  QCheck.Test.make ~count:100 ~name:"1b mutation trace = oracle, in process"
    trace_arb (fun ({ Hiergen.Families.graph = g; _ }, ops) ->
      let srv = Server.create () in
      run_1b_trace
        ~line:(fun l -> J.to_string (Server.handle_line srv l))
        ~frame:(Server.handle_frame srv) ~single:(Server.handle_frame srv) (g, ops))

let prop_1b_trace_net =
  QCheck.Test.make ~count:20 ~name:"1b mutation trace = oracle, net server, 2 workers"
    trace_arb (fun ({ Hiergen.Families.graph = g; _ }, ops) ->
      let srv = Server.create () in
      let net =
        Net.Server.create
          ~config:{ Net.Server.default_config with workers = 2 }
          srv (Net.Server.Tcp ("127.0.0.1", 0))
      in
      let th = Thread.create Net.Server.run net in
      Fun.protect
        ~finally:(fun () ->
          Net.Server.stop net;
          Thread.join th)
        (fun () ->
          let addr = Net.Server.bound_addr net in
          let a = Net.Client.connect addr and b = Net.Client.connect addr in
          Fun.protect
            ~finally:(fun () ->
              Net.Client.close a;
              Net.Client.close b)
            (fun () ->
              let some = function
                | Some r -> r
                | None -> QCheck.Test.fail_report "server closed the connection"
              in
              run_1b_trace
                ~line:(fun l -> some (Net.Client.request a l))
                ~frame:(fun f -> some (Net.Client.request_frame a f))
                ~single:(fun f -> some (Net.Client.request_frame b f))
                (g, ops))))

(* An [open] reads its document in one pass, as the scanner validates
   the line: a warm open of a 600-class, 256-member hierarchy
   (read-1b-wide's shape, ~660 KB) allocates at most 0.5 minor and
   0.25 major words per document byte.  Taping the document and
   walking the tape cost about 0.9 minor and 1.0 major words; building
   it as a tree first, about 4 minor words. *)
let test_open_garbage () =
  let g =
    (Hiergen.Families.random_dag ~n:600 ~max_bases:2 ~virtual_prob:0.2
       ~declare_prob:0.05
       ~members:(List.init 256 (Printf.sprintf "m%d"))
       ~seed:1)
      .Hiergen.Families.graph
  in
  let doc = Chg.Serialize.to_string g in
  let srv = Server.create () in
  (* [Gc.counters]' major figure counts promoted and directly major
     words as they happen *)
  let major () =
    let _, _, w = Gc.counters () in
    w
  in
  let fewest = ref infinity and fewest_major = ref infinity in
  for i = 0 to 3 do
    let line =
      Printf.sprintf {|{"id":%d,"op":"open","session":"o%d","chg":%s}|} i i doc
    in
    let w0 = Gc.minor_words () and m0 = major () in
    let r = Server.handle_line srv line in
    let w = Gc.minor_words () -. w0 and m = major () -. m0 in
    Alcotest.(check bool) "opened" true (J.member "ok" r = Ok (J.Bool true));
    (* the first open warms the server *)
    if i > 0 then begin
      fewest := Float.min !fewest w;
      fewest_major := Float.min !fewest_major m
    end
  done;
  let bytes = float_of_int (String.length doc) in
  let per_byte = !fewest /. bytes and major_per_byte = !fewest_major /. bytes in
  (* the layout-matching reader and a session that interns nothing
     measure 0.14 minor and 0.08 major words per byte here *)
  if per_byte > 0.2 then
    Alcotest.failf "warm open: %.2f minor words per document byte (<= 0.2)"
      per_byte;
  if major_per_byte > 0.125 then
    Alcotest.failf "warm open: %.2f major words per document byte (<= 0.125)"
      major_per_byte

let suite =
  [ Alcotest.test_case "cache invalidate/update" `Quick
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
      test_server_request_log_and_flight;
    Alcotest.test_case "garbage per served request" `Quick
      test_request_garbage;
    Alcotest.test_case "warm requests promote nothing" `Quick
      test_warm_requests_promote_nothing ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_batch_matches_spec; prop_serve_sessions_promote;
        prop_mutation_trace_matches_spec ]
  @ [ Alcotest.test_case "warm id batch allocates per request, not per lookup"
        `Quick test_id_batch_allocates_per_request ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_1b_trace_in_process; prop_1b_trace_net ]
  @ [ Alcotest.test_case "warm open allocates in proportion to its input"
        `Quick test_open_garbage ]
