(* Tests for the JSON substrate and graph (de)serialization. *)

module G = Chg.Graph
module Json = Chg.Json

let json_roundtrip ?(pretty = false) j =
  match Json.of_string (Json.to_string ~pretty j) with
  | Ok j' -> j' = j
  | Error _ -> false

let test_json_values () =
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Json.to_string j)
        true
        (json_roundtrip j && json_roundtrip ~pretty:true j))
    [ Json.Null; Json.Bool true; Json.Bool false; Json.Int 0; Json.Int (-42);
      Json.Int max_int; Json.String ""; Json.String "hello";
      Json.String "quotes \" and \\ and \n tabs \t";
      Json.List []; Json.List [ Json.Int 1; Json.Int 2 ];
      Json.Obj [];
      Json.Obj
        [ ("a", Json.List [ Json.Obj [ ("b", Json.Null) ] ]);
          ("c", Json.String "d") ] ]

let test_json_parse_basics () =
  Alcotest.(check bool) "whitespace" true
    (Json.of_string "  { \"a\" : [ 1 , 2 ] }  "
    = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"a\\u0041b\"" = Ok (Json.String "aAb"));
  Alcotest.(check bool) "named escapes" true
    (Json.of_string "\"a\\n\\t\\\\b\"" = Ok (Json.String "a\n\t\\b"))

let test_json_errors () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | Ok _ -> Alcotest.failf "accepted malformed %S" src
      | Error msg ->
        Alcotest.(check bool) "has message" true (String.length msg > 0))
    [ ""; "{"; "["; "\"unterminated"; "1.5"; "1e3"; "nul"; "[1,]";
      "{\"a\":}"; "{\"a\" 1}"; "[1] garbage"; "{1: 2}" ]

(* The exact error text, offset included, of every failure branch of the
   scanner: clients and goldens see these strings verbatim. *)
let json_error_table =
    [ (* strings and escapes *)
      ("\"abc", "JSON error at offset 4: unterminated string");
      ("[\"a", "JSON error at offset 3: unterminated string");
      ("\"ab\\", "JSON error at offset 4: unterminated escape");
      ("\"a\\x\"", "JSON error at offset 3: invalid escape '\\x'");
      ("\"\\u00\"", "JSON error at offset 3: truncated \\u escape");
      ("\"\\u0\"", "JSON error at offset 3: truncated \\u escape");
      ("\"\\u00e9\"",
       "JSON error at offset 3: non-ASCII \\u escapes are not supported");
      ("\"\\uzzzz\"", "JSON error at offset 3: malformed \\u escape");
      ("\"\\u00 1\"", "JSON error at offset 3: malformed \\u escape");
      (* numbers *)
      ("1.5", "JSON error at offset 1: floats are not supported");
      ("-12e3", "JSON error at offset 3: floats are not supported");
      ("[7E1]", "JSON error at offset 2: floats are not supported");
      ("-", "JSON error at offset 1: malformed number");
      ("[-x]", "JSON error at offset 2: malformed number");
      ("4611686018427387904", "JSON error at offset 19: malformed number");
      ("-4611686018427387905", "JSON error at offset 20: malformed number");
      ("99999999999999999999999 ", "JSON error at offset 23: malformed number");
      (* literals *)
      ("nul", "JSON error at offset 0: invalid literal (expected null)");
      ("[tru]", "JSON error at offset 1: invalid literal (expected true)");
      ("falsy", "JSON error at offset 0: invalid literal (expected false)");
      (* arrays and objects *)
      ("[1 2]", "JSON error at offset 3: expected ',' or ']'");
      ("[1", "JSON error at offset 2: expected ',' or ']'");
      ("{\"a\":1 \"b\":2}", "JSON error at offset 7: expected ',' or '}'");
      ("{\"a\":1", "JSON error at offset 6: expected ',' or '}'");
      ("{\"a\" 1}", "JSON error at offset 5: expected ':', found '1'");
      ("{\"a\"", "JSON error at offset 4: expected ':', found end of input");
      ("{1:2}", "JSON error at offset 1: expected '\"', found '1'");
      ("{\"a\":1,",
       "JSON error at offset 7: expected '\"', found end of input");
      (* values *)
      ("", "JSON error at offset 0: unexpected end of input");
      ("[1,", "JSON error at offset 3: unexpected end of input");
      ("@", "JSON error at offset 0: unexpected character '@'");
      ("[,]", "JSON error at offset 1: unexpected character ','");
      ("{\"a\":}", "JSON error at offset 5: unexpected character '}'");
      (* trailing garbage *)
      ("[1] x", "JSON error at offset 4: trailing garbage");
      ("1 2", "JSON error at offset 2: trailing garbage");
      (* accepted edge cases the error branches sit beside *)
      ("-4611686018427387904", "accepted -4611686018427387904");
      ("4611686018427387903", "accepted 4611686018427387903");
      ("007", "accepted 7");
      ("\"\\u0_41\"", "accepted \"A\"");
      ("\"a\\/b\\b\\r\"", "accepted \"a/b\\u0008\\r\"");
      (" {\"k\" : [ true , false , null ] } ",
       "accepted {\"k\":[true,false,null]}") ]

let test_json_error_text () =
  List.iter
    (fun (src, expected) ->
      let got =
        match Json.of_string src with
        | Ok j -> "accepted " ^ Json.to_string j
        | Error msg -> msg
      in
      Alcotest.(check string) (Printf.sprintf "%S" src) expected got)
    json_error_table

(* Skipped fields are validated, not built: hollow values of their own
   kind, at the top level only. *)
let test_json_skip_hollow () =
  let parse ?skip src =
    match Json.of_string ?skip src with
    | Ok j -> Json.to_string j
    | Error msg -> msg
  in
  Alcotest.(check string) "hollow of each kind"
    {|{"a":{},"b":[],"c":"","d":7,"e":null,"f":"kept"}|}
    (parse ~skip:[ "a"; "b"; "c"; "d"; "e" ]
       {|{"a":{"x":[1,"y"]},"b":[{"z":"\n"}],"c":"s\tt","d":7,"e":null,"f":"kept"}|});
  Alcotest.(check string) "only top-level fields are skipped"
    {|{"x":{"chg":"deep"}}|}
    (parse ~skip:[ "chg" ] {|{"x":{"chg":"deep"}}|});
  Alcotest.(check string) "a skipped value still meets the grammar"
    "JSON error at offset 15: invalid escape '\\q'"
    (parse ~skip:[ "chg" ] {|{"chg":["ok","\q"]}|})

(* The router's shallow decode of an [open] against the full decode,
   over every line of the scanner's error table carried as its [chg]
   or its [source]: the same error (code, id, text and offset), or the
   same request up to the hollow hierarchy. *)
let test_shallow_open_matches_full () =
  let module P = Service.Protocol in
  let summary = function
    | Error (id, code, msg) ->
      Printf.sprintf "error %s %s %s" (Json.to_string id) (P.code_string code) msg
    | Ok (rq : P.request) ->
      Printf.sprintf "ok %s %s %s" (Json.to_string rq.P.rq_id)
        (Option.value rq.P.rq_session ~default:"-")
        (match rq.P.rq_op with
        | P.Open { o_hierarchy = P.Chg_json _; _ } -> "open chg"
        | P.Open { o_hierarchy = P.Source _; _ } -> "open source"
        | op -> P.op_string op)
  in
  List.iter
    (fun (src, _) ->
      List.iter
        (fun field ->
          let line =
            Printf.sprintf {|{"id":1,"op":"open","session":"s","%s":%s}|} field src
          in
          Alcotest.(check string) line
            (summary (P.parse_request line))
            (summary (P.parse_request ~shallow:true line)))
        [ "chg"; "source" ])
    json_error_table

let graphs_equal a b =
  G.num_classes a = G.num_classes b
  && List.for_all
       (fun c ->
         G.name a c = G.name b c
         && G.bases a c = G.bases b c
         && G.members a c = G.members b c)
       (G.classes a)

let test_graph_roundtrip_figures () =
  List.iter
    (fun mk ->
      let g = mk () in
      match Chg.Serialize.of_string (Chg.Serialize.to_string g) with
      | Ok g' -> Alcotest.(check bool) "roundtrip" true (graphs_equal g g')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [ Hiergen.Figures.fig1; Hiergen.Figures.fig2; Hiergen.Figures.fig3;
      Hiergen.Figures.fig9 ]

let test_graph_roundtrip_rich_members () =
  let b = G.create_builder () in
  ignore
    (G.add_class b "X" ~bases:[]
       ~members:
         [ G.member ~access:G.Private "a";
           G.member ~kind:G.Function ~virtual_:true ~access:G.Protected "f";
           G.member ~static:true "s";
           G.member ~kind:G.Type "T";
           G.member ~kind:G.Enumerator "red" ]);
  ignore
    (G.add_class b "Y" ~bases:[ ("X", G.Virtual, G.Protected) ] ~members:[]);
  let g = G.freeze b in
  match Chg.Serialize.of_string (Chg.Serialize.to_string ~pretty:true g) with
  | Ok g' -> Alcotest.(check bool) "roundtrip" true (graphs_equal g g')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_graph_bad_inputs () =
  List.iter
    (fun src ->
      match Chg.Serialize.of_string src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [ "{}";
      {|{"format":"other","version":1,"classes":[]}|};
      {|{"format":"cxxlookup-chg","version":99,"classes":[]}|};
      {|{"format":"cxxlookup-chg","version":1,"classes":[{"name":"A"}]}|};
      (* unknown base *)
      {|{"format":"cxxlookup-chg","version":1,"classes":[
         {"name":"A","bases":[{"class":"Z","virtual":false,
          "access":"public"}],"members":[]}]}|} ]

let test_graph_forward_reference_ok () =
  (* of_decls reorders, so serialized classes may arrive in any order *)
  let src =
    {|{"format":"cxxlookup-chg","version":1,"classes":[
       {"name":"D","bases":[{"class":"B","virtual":true,"access":"public"}],
        "members":[]},
       {"name":"B","bases":[],"members":[{"name":"m","kind":"data",
        "static":false,"virtual":false,"access":"public"}]}]}|}
  in
  match Chg.Serialize.of_string src with
  | Ok g ->
    Alcotest.(check int) "two classes" 2 (G.num_classes g);
    let cl = Chg.Closure.compute g in
    Alcotest.(check bool) "edge kind preserved" true
      (Chg.Closure.is_virtual_base cl (G.find g "B") (G.find g "D"))
  | Error e -> Alcotest.failf "should parse: %s" e

let test_lookup_preserved_through_roundtrip () =
  let g = Hiergen.Figures.fig9 () in
  match Chg.Serialize.of_string (Chg.Serialize.to_string g) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok g' ->
    let eng = Lookup_core.Engine.build (Chg.Closure.compute g') in
    Alcotest.(check (option string)) "E::m -> C" (Some "C")
      (Option.map (G.name g')
         (Lookup_core.Engine.resolves_to eng (G.find g' "E") "m"))

(* ---- the tree decode against the in-place decode ----

   A cxxlookup-chg document decoded two ways: built as a tree and walked
   ([Json.of_string], [Serialize.of_json]), or read in place by the
   scanner as it validates the bytes ([Serialize.of_string], the
   server's one-pass reader).  The schema is written twice, once per
   reader; these tests pin that the two agree, graph for graph and
   error text for error text, and that an [open] carrying the document
   answers exactly what the tree decode implies. *)

module P = Service.Protocol

let tree_decode doc =
  Result.map Chg.Serialize.to_string
    (Result.bind (Json.of_string doc) Chg.Serialize.of_json)

let in_place_decode doc =
  Result.map Chg.Serialize.to_string (Chg.Serialize.of_string doc)

let open_line doc =
  Printf.sprintf {|{"id":1,"op":"open","session":"s","chg":%s}|} doc

(* The response an [open] line must get: everything from the tree. *)
let expected_open line =
  match Json.of_string line with
  | Error msg -> P.error_response ~id:Json.Null P.Parse_error msg
  | Ok j ->
    let id = Result.value (Json.member "id" j) ~default:Json.Null in
    (match Result.bind (Json.member "chg" j) Chg.Serialize.of_json with
    | Error msg -> P.error_response ~id P.Bad_hierarchy msg
    | Ok g ->
      P.ok_response ~id
        [ ("protocol", Json.String P.version); ("session", Json.String "s");
          ("classes", Json.Int (G.num_classes g));
          ("edges", Json.Int (G.num_edges g));
          ("members", Json.Int (List.length (G.member_names g))) ])

let served_open line =
  Service.Server.handle_line (Service.Server.create ()) line

(* Every family, small. *)
let family st =
  let module F = Hiergen.Families in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let kind () = if Random.State.bool st then G.Virtual else G.Non_virtual in
  let members = [ "m"; "n"; "o" ] and seed = Random.State.bits st in
  match Random.State.int st 9 with
  | 0 -> F.chain ~n:(int 1 8) ~kind:(kind ())
  | 1 -> F.diamond_stack ~levels:(int 1 3) ~kind:(kind ())
  | 2 -> F.redeclared_diamond_stack ~levels:(int 1 3) ~kind:(kind ())
  | 3 -> F.fence ~width:(int 1 3) ~levels:(int 1 3)
  | 4 -> F.wide_tree ~fanout:(int 2 3) ~depth:(int 1 3)
  | 5 -> F.blue_chain ~width:(int 1 3) ~depth:(int 1 3)
  | 6 ->
    F.random_dag ~n:(int 1 12) ~max_bases:3 ~virtual_prob:0.3
      ~declare_prob:0.4 ~members ~seed
  | 7 ->
    F.random_static_dag ~n:(int 1 12) ~max_bases:3 ~virtual_prob:0.3
      ~declare_prob:0.4 ~static_prob:0.5 ~members ~seed
  | _ ->
    let i =
      F.random_dag ~n:(int 1 6) ~max_bases:2 ~virtual_prob:0.5
        ~declare_prob:0.5 ~members ~seed
    in
    (* random_dag declares public, non-static data members only:
       redeclare them with every kind, access and staticness *)
    let b = G.create_builder () in
    G.iter_classes i.F.graph (fun c ->
        ignore
          (G.add_class b (G.name i.F.graph c)
             ~bases:
               (List.map
                  (fun (x : G.base) ->
                    (G.name i.F.graph x.b_class, x.b_kind, G.Protected))
                  (G.bases i.F.graph c))
             ~members:
               (List.mapi
                  (fun k (m : G.member) ->
                    G.member
                      ~kind:[| G.Data; G.Function; G.Type; G.Enumerator |].(k mod 4)
                      ~access:[| G.Private; G.Protected; G.Public |].(k mod 3)
                      ~static:(k mod 2 = 0) m.m_name)
                  (G.members i.F.graph c))));
    { i with F.graph = G.freeze b }

(* ---- mutations of a document tree ---- *)

type step = Key of string | Nth of int

(* the paths of every object in [j] *)
let rec objects path j =
  match j with
  | Json.Obj fields ->
    List.rev path
    :: List.concat_map (fun (k, v) -> objects (Key k :: path) v) fields
  | Json.List items ->
    List.concat (List.mapi (fun i v -> objects (Nth i :: path) v) items)
  | _ -> []

(* [f] applied to the value at [path] (to every binding of a key) *)
let rec at path f j =
  match (path, j) with
  | [], _ -> f j
  | Key k :: rest, Json.Obj fields ->
    Json.Obj (List.map (fun (k', v) -> (k', if k = k' then at rest f v else v)) fields)
  | Nth i :: rest, Json.List items ->
    Json.List (List.mapi (fun i' v -> if i = i' then at rest f v else v) items)
  | _ -> j

let rec everywhere f = function
  | Json.Obj fields ->
    f (Json.Obj (List.map (fun (k, v) -> (k, everywhere f v)) fields))
  | Json.List items -> Json.List (List.map (everywhere f) items)
  | j -> j

let pick st l = List.nth l (Random.State.int st (List.length l))

(* a value of another kind than [v] *)
let wrong_type st v =
  let kind = function
    | Json.Null -> 0 | Json.Bool _ -> 1 | Json.Int _ -> 2
    | Json.String _ -> 3 | Json.List _ -> 4 | Json.Obj _ -> 5
  in
  pick st
    (List.filter
       (fun w -> kind w <> kind v)
       [ Json.Null; Json.Bool true; Json.Int 7; Json.String "1";
         Json.List [ Json.Int 1 ]; Json.Obj [ ("name", Json.String "m") ] ])

(* One mutation at a random object of [j]: a field dropped, given a
   wrong type, or shadowed by an earlier duplicate, or the object
   itself replaced by a non-object. *)
let damage st j =
  match objects [] j with
  | [] -> j
  | paths ->
  at (pick st paths)
    (function
      | Json.Obj [] -> Json.List []
      | Json.Obj fields as o ->
        let k, v = pick st fields in
        (match Random.State.int st 4 with
        | 0 -> Json.Obj (List.filter (fun (k', _) -> k' <> k) fields)
        | 1 -> Json.Obj (List.map (fun (k', v') -> (k', if k = k' then wrong_type st v else v')) fields)
        | 2 -> Json.Obj ((k, wrong_type st v) :: fields)
        | _ -> wrong_type st o)
      | v -> v)
    j

(* Text-level rewrites that keep a document's meaning: escaped keys
   and strings, [\/] in names, whitespace. *)
let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) and k = String.length sub in
  let i = ref 0 in
  while !i < String.length s do
    if !i + k <= String.length s && String.sub s !i k = sub then begin
      Buffer.add_string b by;
      i := !i + k
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* the six-byte escape of the ASCII byte [c] *)
let u c = Printf.sprintf "%cu%04x" '\\' (Char.code c)

let escape_text doc =
  List.fold_left
    (fun d (sub, by) -> replace_all ~sub ~by d)
    doc
    [ ({|"name":|}, {|"n|} ^ u 'a' ^ {|me":|});
      ({|"access":|}, {|"|} ^ u 'a' ^ {|ccess":|});
      ({|"virtual":|}, {|"virtu|} ^ u 'a' ^ {|l":|});
      ({|"public"|}, {|"p|} ^ u 'u' ^ {|blic"|});
      ("/", {|\/|}) ]

(* [g]'s document with a '/' in every class name, for [escape_text]'s
   [\/]: class objects are the ones with "bases", base objects the ones
   with "class". *)
let slash_names g =
  everywhere
    (function
      | Json.Obj fields
        when List.mem_assoc "bases" fields || List.mem_assoc "class" fields ->
        Json.Obj
          (List.map
             (function
               | (("name" | "class") as k), Json.String s ->
                 (k, Json.String (s ^ "/x"))
               | f -> f)
             fields)
      | j -> j)
    (Chg.Serialize.to_json g)

(* [j] with every class name (and base reference) through [cls] and
   every member name through [mem] *)
let renamed ~cls ~mem j =
  everywhere
    (function
      | Json.Obj fields ->
        let is k = List.mem_assoc k fields in
        let f =
          if is "bases" then Some cls
          else if is "kind" then Some mem
          else if is "class" then Some cls
          else None
        in
        (match f with
        | None -> Json.Obj fields
        | Some f ->
          Json.Obj
            (List.map
               (function
                 | (("name" | "class") as k), Json.String x -> (k, Json.String (f x))
                 | kv -> kv)
               fields))
      | j -> j)
    j

(* Names of one length built from [k] blocks of "Aa" and "BB": all of
   them have the same polynomial hash, so they probe one chain. *)
let colliding k i =
  String.concat "" (List.init k (fun b -> if (i lsr b) land 1 = 0 then "Aa" else "BB"))

(* [f] over the names, numbered in first-seen order *)
let numbered f =
  let seen = Hashtbl.create 16 in
  fun x ->
    match Hashtbl.find_opt seen x with
    | Some y -> y
    | None ->
      let y = f (Hashtbl.length seen) x in
      Hashtbl.add seen x y;
      y

let swap_adjacent st = function
  | Json.Obj fields when List.length fields >= 2 && Random.State.bool st ->
    let i = Random.State.int st (List.length fields - 1) in
    let a = Array.of_list fields in
    let x = a.(i) in
    a.(i) <- a.(i + 1);
    a.(i + 1) <- x;
    Json.Obj (Array.to_list a)
  | j -> j

(* a well-formed value of the same field, for an earlier duplicate *)
let another st = function
  | Json.String x -> Json.String (x ^ "x")
  | Json.Bool b -> Json.Bool (not b)
  | Json.Int n -> Json.Int (n + 1)
  | v -> ignore st; v

(* every member's kind, static, virtual and access drawn at random *)
let random_flags st =
  everywhere (function
    | Json.Obj fields when List.mem_assoc "kind" fields ->
      let str xs = Json.String (pick st xs) and bool () = Json.Bool (Random.State.bool st) in
      Json.Obj
        (List.map
           (function
             | "kind", _ -> ("kind", str [ "data"; "function"; "type"; "enumerator" ])
             | "static", _ -> ("static", bool ())
             | "virtual", _ -> ("virtual", bool ())
             | "access", _ -> ("access", str [ "public"; "protected"; "private" ])
             | kv -> kv)
           fields)
    | j -> j)

(* A mutation of [g]'s document: its name, the text, and whether it
   keeps the document's meaning. *)
let mutated st g =
  let j = Chg.Serialize.to_json g in
  match Random.State.int st 15 with
  | 9 ->
    (* names that differ only in their last byte *)
    let long x = String.make 40 'p' ^ x in
    ("last byte", Json.to_string (renamed ~cls:long ~mem:long j), false)
  | 10 ->
    let cls = numbered (fun i _ -> colliding 6 i)
    and mem = numbered (fun i _ -> colliding 3 i) in
    ("hash collisions", Json.to_string (renamed ~cls ~mem j), false)
  | 11 ->
    (* quotes, backslashes and \u escapes inside names *)
    let mem = numbered (fun i x -> if i mod 2 = 0 then x ^ {|"\|} else x) in
    ( "escaped names",
      replace_all ~sub:{|"class":"|} ~by:({|"class":"|} ^ u 'K')
        (replace_all ~sub:{|{"name":"|} ~by:({|{"name":"|} ^ u 'e')
           (Json.to_string (renamed ~cls:Fun.id ~mem j))),
      false )
  | 12 -> ("flags at random", Json.to_string (random_flags st j), false)
  | 13 -> ("keys swapped", Json.to_string (everywhere (swap_adjacent st) j), true)
  | 14 ->
    ( "earlier duplicates",
      Json.to_string
        (everywhere
           (function
             | Json.Obj ((k, v) :: _ as f) when Random.State.bool st ->
               Json.Obj ((k, another st v) :: f)
             | j -> j)
           j),
      false )
  | 0 -> ("as is", Chg.Serialize.to_string g, true)
  | 1 ->
    ( "fields reordered",
      Json.to_string
        (everywhere (function Json.Obj f -> Json.Obj (List.rev f) | j -> j) j),
      true )
  | 2 ->
    ( "later duplicates and unknown fields",
      Json.to_string
        (everywhere
           (function
             | Json.Obj ((k, v) :: _ as f) ->
               Json.Obj
                 (f
                 @ [ (k, wrong_type st v);
                     ("x-extra", Json.List [ Json.Obj []; Json.Null ]) ])
             | j -> j)
           j),
      true )
  | 3 -> ("escapes", escape_text (Json.to_string (slash_names g)), false)
  | 4 -> ("pretty", Json.to_string ~pretty:true j, true)
  | 5 | 6 -> ("one error", Json.to_string (damage st j), false)
  | _ -> ("two errors", Json.to_string (damage st (damage st j)), false)

let prop_tree_and_in_place_agree =
  QCheck.Test.make ~count:400
    ~name:"tree and in-place decodes agree on mutated documents"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = (family st).Hiergen.Families.graph in
      let what, doc, same_meaning = mutated st g in
      let line = open_line doc in
      let tree = tree_decode doc and in_place = in_place_decode doc in
      let expected = Json.to_string (expected_open line)
      and served = Json.to_string (served_open line) in
      (tree = in_place && expected = served
      && ((not same_meaning) || in_place = Ok (Chg.Serialize.to_string g))
      && (what <> "escapes"
         || in_place = Ok (Chg.Serialize.to_string
                             (Result.get_ok (Chg.Serialize.of_json (slash_names g))))))
      || QCheck.Test.fail_reportf
           "%s: %s\ntree:     %s\nin place: %s\nexpected: %s\nserved:   %s"
           what doc
           (match tree with Ok s -> s | Error e -> "error " ^ e)
           (match in_place with Ok s -> s | Error e -> "error " ^ e)
           expected served)

(* ---- one-pass graph build = the sorting build ---- *)

let decls_of g =
  List.map
    (fun c ->
      { G.d_name = G.name g c;
        d_bases =
          List.map
            (fun (b : G.base) -> (G.name g b.b_class, b.b_kind, b.b_access))
            (G.bases g c);
        d_members = G.members g c })
    (G.classes g)

(* names, ids, edges both ways and members, class by class *)
let same_graph a b =
  G.num_classes a = G.num_classes b
  && G.num_edges a = G.num_edges b
  && List.for_all
       (fun c ->
         let n = G.name a c in
         n = G.name b c
         && G.find_opt a n = Some c
         && G.find_opt b n = Some c
         && G.bases a c = G.bases b c
         && G.derived a c = G.derived b c
         && G.members a c = G.members b c)
       (G.classes a)

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* [decls] with the [i]th declaration passed through [f] *)
let map_nth i f decls = List.mapi (fun k d -> if k = i then f d else d) decls

(* A declaration list drawn from [g]'s, bases-first or damaged: what it
   is, and the list. *)
let damaged_decls st g =
  let decls = decls_of g in
  let n = List.length decls in
  let pick () = Random.State.int st n in
  let nth i = List.nth decls i in
  let many = List.init 40 (fun k -> G.member (Printf.sprintf "x%d" k)) in
  match Random.State.int st 9 with
  | 0 -> ("bases first", decls)
  | 1 -> ("shuffled", shuffle st decls)
  | 2 ->
    let i = pick () and at = Random.State.int st (n + 1) in
    ( "duplicate class",
      List.filteri (fun k _ -> k < at) decls
      @ [ nth i ]
      @ List.filteri (fun k _ -> k >= at) decls )
  | 3 ->
    ( "duplicate base",
      map_nth (pick ())
        (fun d ->
          match d.G.d_bases with
          | [] -> d
          | b :: _ -> { d with G.d_bases = d.G.d_bases @ [ b ] })
        decls )
  | 4 ->
    ( "duplicate member",
      map_nth (pick ())
        (fun d ->
          match d.G.d_members with
          | [] -> d
          | m :: _ -> { d with G.d_members = d.G.d_members @ [ m ] })
        decls )
  | 5 ->
    let dup = Random.State.bool st in
    ( (if dup then "many members, one twice" else "many members"),
      map_nth (pick ())
        (fun d ->
          { d with
            G.d_members =
              d.G.d_members @ many @ if dup then [ List.nth many 17 ] else [] })
        decls )
  | 6 ->
    ( "unknown base",
      map_nth (pick ())
        (fun d ->
          { d with G.d_bases = d.G.d_bases @ [ ("Nowhere", G.Virtual, G.Public) ] })
        decls )
  | 7 ->
    ( "first derives from last",
      map_nth 0
        (fun d ->
          { d with
            G.d_bases =
              (G.name g (n - 1), G.Non_virtual, G.Public) :: d.G.d_bases })
        decls )
  | _ ->
    ( "derives from itself",
      map_nth (pick ())
        (fun d ->
          { d with G.d_bases = (d.G.d_name, G.Virtual, G.Public) :: d.G.d_bases })
        decls )

let prop_one_pass_build_agrees =
  QCheck.Test.make ~count:400
    ~name:"one-pass graph build = the sorting build"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = (family st).Hiergen.Families.graph in
      let what, decls = damaged_decls st g in
      let show = function
        | Ok g -> Chg.Serialize.to_string g
        | Error e -> "error " ^ G.error_to_string e
      in
      let built = G.of_decls decls and sorted = G.of_decls_sorted decls in
      (match (built, sorted) with
      | Ok a, Ok b ->
        same_graph a b && (what <> "bases first" || same_graph a g)
      | Error a, Error b -> G.error_to_string a = G.error_to_string b
      | _ -> false)
      || QCheck.Test.fail_reportf "%s\none pass: %s\nsorted:   %s" what
           (show built) (show sorted))

(* ---- the snapshot's graph section ---- *)

let prop_binary_graph_roundtrip =
  QCheck.Test.make ~count:400
    ~name:"snapshot graph section: read_graph (write_graph g) = g"
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = (family st).Hiergen.Families.graph in
      let w = Chg.Binary.Writer.create () in
      Chg.Binary.write_graph w g;
      let r = Chg.Binary.Reader.of_string (Chg.Binary.Writer.contents w) in
      let g' = Chg.Binary.read_graph r in
      (same_graph g g' && Chg.Binary.Reader.at_end r)
      || QCheck.Test.fail_reportf "%s\nread back as\n%s"
           (Chg.Serialize.to_string g) (Chg.Serialize.to_string g'))

(* Every scanner failure, carried as an [open]'s [chg]: the same
   response, text and offset, as the tree decode gives. *)
let test_error_table_as_open_chg () =
  List.iter
    (fun (src, _) ->
      let line = open_line src in
      Alcotest.(check string) line
        (Json.to_string (expected_open line))
        (Json.to_string (served_open line));
      Alcotest.(check bool) (src ^ ": both decodes agree") true
        (tree_decode src = in_place_decode src))
    json_error_table

(* The [chg] is read as the line is scanned, but a syntax error later in
   the line is still the answer: every scanner failure of the error
   table, after a [chg] that fails the schema (and after one that
   passes it), answers what the tree decode implies. *)
let test_syntax_error_after_chg () =
  let doc =
    Chg.Serialize.to_string
      (Hiergen.Families.chain ~n:2 ~kind:G.Virtual).Hiergen.Families.graph
  in
  List.iter
    (fun (src, _) ->
      List.iter
        (fun chg ->
          let line =
            Printf.sprintf {|{"id":1,"op":"open","session":"s","chg":%s,"x":%s}|}
              chg src
          in
          Alcotest.(check string) line
            (Json.to_string (expected_open line))
            (Json.to_string (served_open line)))
        [ "{}"; doc ])
    json_error_table

(* Skipping a field builds nothing from it: the words a skip allocates
   do not grow with the field. *)
let test_skip_allocation_is_flat () =
  let line n =
    open_line
      (Chg.Serialize.to_string
         (Hiergen.Families.random_dag ~n ~max_bases:2 ~virtual_prob:0.2
            ~declare_prob:0.05
            ~members:(List.init 24 (Printf.sprintf "m%d"))
            ~seed:1)
           .Hiergen.Families.graph)
  in
  let words l =
    let fewest = ref infinity in
    for _ = 1 to 5 do
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Json.of_string ~skip:[ "chg" ] l));
      fewest := Float.min !fewest (Gc.minor_words () -. w0)
    done;
    !fewest
  in
  let small = words (line 10) and large = words (line 600) in
  if Float.abs (large -. small) > 8. then
    Alcotest.failf "skipping chg: %.0f words at 10 classes, %.0f at 600" small
      large

(* A line may repeat [chg]: the first wins, and only it is read, so a
   scan allocates in proportion to its line, whatever the number of
   duplicates (reading each would grow with the line times them).
   Every such [open] gets the response the tree decode gives, and a
   lookup the response it gets with no [chg] at all. *)
let test_duplicate_chg_is_linear () =
  let doc =
    Chg.Serialize.to_string
      (Hiergen.Families.chain ~n:3 ~kind:G.Virtual).Hiergen.Families.graph
  in
  let dups = String.concat "" (List.init 10_000 (fun _ -> {|,"chg":1|})) in
  (* [Gc.counters]' minor figure counts only finished minor cycles *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let lookup = {|{"id":1,"op":"lookup","session":"s","class":"A","member":"m"|} in
  List.iter
    (fun (line, expected) ->
      let w0 = words () in
      ignore (Sys.opaque_identity (P.parse_request line));
      let per_byte = (words () -. w0) /. float_of_int (String.length line) in
      let what = String.sub line 0 40 in
      if per_byte > 4. then
        Alcotest.failf "%s...: %.1f words per line byte (<= 4)" what per_byte;
      Alcotest.(check string) what
        (Json.to_string expected)
        (Json.to_string (served_open line)))
    (List.map
       (fun line -> (line, expected_open line))
       [ Printf.sprintf {|{"id":1,"op":"open","session":"s","chg":%s%s}|} doc
           dups;
         Printf.sprintf {|{"id":1,"op":"open","session":"s","chg":1%s}|} dups ]
    @ [ (lookup ^ dups ^ "}", served_open (lookup ^ "}")) ])

let suite =
  [ Alcotest.test_case "json value roundtrips" `Quick test_json_values;
    Alcotest.test_case "json parsing basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json malformed inputs" `Quick test_json_errors;
    Alcotest.test_case "json error text and offsets" `Quick
      test_json_error_text;
    Alcotest.test_case "json skipped fields come back hollow" `Quick
      test_json_skip_hollow;
    Alcotest.test_case "shallow open decode = full decode on the error table"
      `Quick test_shallow_open_matches_full;
    Alcotest.test_case "graph roundtrip: figures" `Quick
      test_graph_roundtrip_figures;
    Alcotest.test_case "graph roundtrip: rich members" `Quick
      test_graph_roundtrip_rich_members;
    Alcotest.test_case "graph bad inputs" `Quick test_graph_bad_inputs;
    Alcotest.test_case "forward references accepted" `Quick
      test_graph_forward_reference_ok;
    Alcotest.test_case "lookup preserved through roundtrip" `Quick
      test_lookup_preserved_through_roundtrip;
    QCheck_alcotest.to_alcotest prop_tree_and_in_place_agree;
    Alcotest.test_case "error table as an open's chg: tree = in place"
      `Quick test_error_table_as_open_chg;
    Alcotest.test_case "a syntax error after the chg beats its schema error"
      `Quick test_syntax_error_after_chg;
    Alcotest.test_case "skipping a field allocates the same at any size"
      `Quick test_skip_allocation_is_flat;
    Alcotest.test_case "duplicate chg fields: first wins, linear allocation"
      `Quick test_duplicate_chg_is_linear;
    QCheck_alcotest.to_alcotest prop_one_pass_build_agrees;
    QCheck_alcotest.to_alcotest prop_binary_graph_roundtrip ]
