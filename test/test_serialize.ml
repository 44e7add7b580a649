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
      test_lookup_preserved_through_roundtrip ]
