(* The raw speed floor, held to the spec oracle and fuzzed: the
   cxxlookup-rpc/1b binary framing must answer verdict-for-verdict like
   the JSON protocol's spec-backed oracle on arbitrary hierarchies, and
   malformed input on either fast path — truncated or bit-flipped
   frames, corrupt mmap sections — must come back as in-band errors
   ([bad_request] / store errors), never as an exception or a wrong
   verdict. *)

module G = Chg.Graph
module B = Chg.Binary
module J = Chg.Json
module Path = Subobject.Path
module Spec = Subobject.Spec
module Engine = Lookup_core.Engine
module Packed = Lookup_core.Packed
module Session = Service.Session
module Server = Service.Server
module Frame = Service.Frame
module P = Service.Protocol

(* ---- scratch helpers ----------------------------------------------- *)

let temp_dir () =
  let f = Filename.temp_file "cxxraw" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let corrupt_byte path off mask =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let response_ok j = J.member "ok" j = Ok (J.Bool true)

(* A server with [g] opened as session [s]; class ids in frames are the
   graph's own ids (the session interns classes in graph order). *)
let server_with g ~session =
  let srv = Server.create () in
  let resp =
    Server.handle_line srv
      (J.to_string
         (J.Obj
            [ ("id", J.Int 0); ("op", J.String "open");
              ("session", J.String session);
              ("chg", Chg.Serialize.to_json g) ]))
  in
  if not (response_ok resp) then
    Alcotest.failf "open failed: %s" (J.to_string resp);
  srv

let frame_request srv rq = Server.handle_frame srv (Frame.encode_request rq)

let decode_ok ~op resp =
  match Frame.decode_response ~op resp with
  | Ok (_, r) -> r
  | Error msg -> Alcotest.failf "bad response frame: %s" msg

let member_ids srv ~session =
  match
    decode_ok ~op:Frame.op_symbols
      (frame_request srv
         { Frame.fr_id = 0; fr_session = session; fr_op = Frame.Symbols })
  with
  | Frame.Ok_symbols { os_members; _ } ->
    let h = Hashtbl.create (Array.length os_members) in
    Array.iteri (fun i n -> Hashtbl.replace h n i) os_members;
    h
  | _ -> Alcotest.fail "symbols did not answer Ok_symbols"

(* The spec oracle's verdict as a {!Frame.verdict_code}. *)
let oracle_code g c m =
  match Spec.lookup_static g c m with
  | Spec.Resolved p -> Path.ldc p
  | Spec.Ambiguous _ -> -2
  | Spec.Undeclared -> -1

(* ---- generators (mirroring the store recovery property) ------------ *)

let qc_members = [ "m"; "n"; "p" ]

let instance_gen =
  QCheck.Gen.(
    map
      (fun (n, max_bases, vp, dp, seed) ->
        Hiergen.Families.random_dag ~n ~max_bases
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:(float_of_int dp /. 10.)
          ~members:qc_members ~seed)
      (tup5 (int_range 2 12) (int_range 1 3) (int_range 0 10)
         (int_range 1 6) (int_range 0 10000)))

let instance_arb =
  QCheck.make instance_gen ~print:(fun i ->
      Printf.sprintf "%s\n%s" i.Hiergen.Families.description
        (Format.asprintf "%a" G.pp i.Hiergen.Families.graph))

(* ---- binary frames = spec oracle ------------------------------------ *)

let prop_frames_match_oracle =
  QCheck.Test.make ~count:50
    ~name:"1b lookup and batch_lookup = spec oracle on arbitrary DAGs"
    instance_arb (fun inst ->
      let g = inst.Hiergen.Families.graph in
      let session = "q" in
      let srv = server_with g ~session in
      let mids = member_ids srv ~session in
      let pairs =
        List.concat_map
          (fun m ->
            let mid =
              match Hashtbl.find_opt mids m with
              | Some i -> i
              | None -> Alcotest.failf "member %S not interned" m
            in
            List.init (G.num_classes g) (fun c -> (c, m, mid)))
          (G.member_names g)
      in
      let codes =
        List.map
          (fun (c, m, mid) ->
            match
              decode_ok ~op:Frame.op_lookup
                (frame_request srv
                   { Frame.fr_id = 1; fr_session = session;
                     fr_op = Frame.Lookup { lk_class = c; lk_member = mid } })
            with
            | Frame.Ok_lookup code ->
              if code <> oracle_code g c m then
                QCheck.Test.fail_reportf
                  "lookup(%s, %s): frame code %d, oracle %d" (G.name g c) m
                  code (oracle_code g c m);
              code
            | _ -> Alcotest.fail "lookup did not answer Ok_lookup")
          pairs
      in
      (match
         decode_ok ~op:Frame.op_batch_lookup
           (frame_request srv
              { Frame.fr_id = 2; fr_session = session;
                fr_op =
                  Frame.Batch_lookup
                    (Array.of_list
                       (List.map (fun (c, _, mid) -> (c, mid)) pairs)) })
       with
      | Frame.Ok_batch { ob_codes; ob_resolved; ob_ambiguous; ob_not_found }
        ->
        if Array.to_list ob_codes <> codes then
          QCheck.Test.fail_report "batch codes differ from single lookups";
        let count p = List.length (List.filter p codes) in
        if
          ob_resolved <> count (fun c -> c >= 0)
          || ob_ambiguous <> count (( = ) (-2))
          || ob_not_found <> count (( = ) (-1))
        then QCheck.Test.fail_report "batch counts disagree with codes"
      | _ -> Alcotest.fail "batch did not answer Ok_batch");
      true)

(* Mutations over frames: add_class/add_member answered with intern
   deltas, and the mutated hierarchy answers like a fresh oracle. *)
let test_frame_mutations () =
  let g = Hiergen.Figures.fig3 () in
  let session = "s" in
  let srv = server_with g ~session in
  let n0 = G.num_classes g in
  let resp =
    decode_ok ~op:Frame.op_add_class
      (frame_request srv
         { Frame.fr_id = 1; fr_session = session;
           fr_op =
             Frame.Add_class
               { ac_name = "Z";
                 ac_bases = [ (G.name g 0, G.Non_virtual, G.Public) ];
                 ac_members = [ G.member "zonly" ] } })
  in
  let zid =
    match resp with
    | Frame.Ok_add_class { oac_class; oac_classes; oac_new_symbols; _ } ->
      Alcotest.(check int) "class count after add_class" (n0 + 1) oac_classes;
      Alcotest.(check bool) "delta carries the new member" true
        (List.exists (fun (_, n) -> n = "zonly") oac_new_symbols);
      oac_class
    | _ -> Alcotest.fail "add_class did not answer Ok_add_class"
  in
  let mids = member_ids srv ~session in
  let zonly = Hashtbl.find mids "zonly" in
  (match
     decode_ok ~op:Frame.op_lookup
       (frame_request srv
          { Frame.fr_id = 2; fr_session = session;
            fr_op = Frame.Lookup { lk_class = zid; lk_member = zonly } })
   with
  | Frame.Ok_lookup code ->
    Alcotest.(check int) "Z::zonly resolves to Z" zid code
  | _ -> Alcotest.fail "lookup did not answer Ok_lookup");
  match
    decode_ok ~op:Frame.op_add_member
      (frame_request srv
         { Frame.fr_id = 3; fr_session = session;
           fr_op =
             Frame.Add_member
               { am_class = zid; am_member = G.member "znext" } })
  with
  | Frame.Ok_add_member { oam_member; oam_new_symbols; _ } ->
    Alcotest.(check (list (pair int string)))
      "delta is exactly the new symbol"
      [ (oam_member, "znext") ]
      oam_new_symbols
  | _ -> Alcotest.fail "add_member did not answer Ok_add_member"

(* ---- codec parity: one request core behind both framings ----------- *)

let labelled srv metric label =
  List.filter_map
    (fun (labels, v) ->
      Option.map (fun k -> (k, v)) (List.assoc_opt label labels))
    (Telemetry.Registry.find_values (Server.registry srv) metric)

(* (verb, outcome, session, via) of every flight-recorder entry *)
let flight srv =
  let path = Filename.temp_file "cxxparity" ".txt" in
  Out_channel.with_open_text path (fun oc -> Server.dump_flight srv oc);
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  List.filter_map
    (fun l ->
      match J.of_string l with
      | Error _ -> None  (* header / footer markers *)
      | Ok j ->
        let str k =
          match J.member k j with Ok (J.String s) -> s | _ -> "-"
        in
        Some (str "verb", str "outcome", str "session", str "via"))
    lines

(* The same trace over JSON lines on one fresh server and over 1b frames
   on another (both open over JSON).  One step differs by design: a
   member name the session never declared is an ordinary query over
   JSON (verdict none), but a member id past the intern table is a
   client bug in 1b and fails [bad_request].  Everything else — verb
   counts, error codes, in-flight gauges and flight-recorder entries —
   must agree exactly. *)
let test_codec_parity () =
  let g = Hiergen.Figures.fig3 () in
  let session = "s" in
  let by_json = server_with g ~session in
  let by_frame = server_with g ~session in
  let mids = member_ids by_frame ~session in
  let m = Hashtbl.find mids "foo" in
  let c = G.num_classes g - 1 and a = 0 in
  let cname = G.name g c and aname = G.name g a in
  let line fields =
    ignore
      (Server.handle_line by_json
         (J.to_string (J.Obj (("id", J.Int 1) :: fields))))
  in
  let sess = ("session", J.String session) in
  let q cls mem = J.Obj [ ("class", J.String cls); ("member", J.String mem) ] in
  let frame ?(session = session) op =
    ignore (frame_request by_frame { Frame.fr_id = 1; fr_session = session; fr_op = op })
  in
  (* the member_ids bootstrap above was one symbols frame: mirror it *)
  line [ ("op", J.String "symbols"); sess ];
  let verbs0 = labelled by_frame "cxxlookup_server_requests_total" "verb" in
  Alcotest.(check (list (pair string int))) "same start"
    (labelled by_json "cxxlookup_server_requests_total" "verb") verbs0;
  line [ ("op", J.String "lookup"); sess; ("class", J.String cname); ("member", J.String "foo") ];
  frame (Frame.Lookup { lk_class = c; lk_member = m });
  line
    [ ("op", J.String "batch_lookup"); sess;
      ("queries", J.List [ q cname "foo"; q aname "foo" ]) ];
  frame (Frame.Batch_lookup [| (c, m); (a, m) |]);
  line
    [ ("op", J.String "mutate"); sess;
      ( "add_member",
        J.Obj [ ("class", J.String aname); ("member", J.Obj [ ("name", J.String "fresh") ]) ] ) ];
  frame (Frame.Add_member { am_class = a; am_member = G.member "fresh" });
  line
    [ ("op", J.String "mutate"); sess;
      ( "add_class",
        J.Obj
          [ ("name", J.String "Z");
            ("bases", J.List [ J.Obj [ ("class", J.String aname) ] ]);
            ("members", J.List [ J.Obj [ ("name", J.String "zonly") ] ]) ] ) ];
  frame
    (Frame.Add_class
       { ac_name = "Z"; ac_bases = [ (aname, G.Non_virtual, G.Public) ];
         ac_members = [ G.member "zonly" ] });
  line [ ("op", J.String "symbols"); sess ];
  frame Frame.Symbols;
  line [ ("op", J.String "lookup"); sess; ("class", J.String cname); ("member", J.String "nosuch") ];
  frame (Frame.Lookup { lk_class = c; lk_member = 1000 });
  line
    [ ("op", J.String "lookup"); ("session", J.String "gone");
      ("class", J.String cname); ("member", J.String "foo") ];
  frame ~session:"gone" (Frame.Lookup { lk_class = c; lk_member = m });
  Alcotest.(check (list (pair string int))) "requests_total{verb}"
    (labelled by_json "cxxlookup_server_requests_total" "verb")
    (labelled by_frame "cxxlookup_server_requests_total" "verb");
  Alcotest.(check (list (pair string int))) "errors_total{code}, JSON"
    [ ("unknown_session", 1) ]
    (labelled by_json "cxxlookup_server_errors_total" "code");
  Alcotest.(check (list (pair string int))) "errors_total{code}, 1b"
    [ ("bad_request", 1); ("unknown_session", 1) ]
    (labelled by_frame "cxxlookup_server_errors_total" "code");
  List.iter
    (fun srv ->
      List.iter
        (fun (verb, v) -> Alcotest.(check int) ("inflight " ^ verb) 0 v)
        (labelled srv "cxxlookup_server_inflight" "verb"))
    [ by_json; by_frame ];
  let fj = flight by_json and ff = flight by_frame in
  Alcotest.(check int) "flight entries" (List.length fj) (List.length ff);
  let show (v, o, s, via) = String.concat " " [ v; o; s; via ] in
  List.iteri
    (fun i (ej, ef) ->
      let ej =
        (* the one by-design difference: the unknown member step *)
        match ej with
        | ("lookup", "ok", s, _) when i = List.length fj - 2 ->
          ("lookup", "bad_request", s, "-")
        | e -> e
      in
      Alcotest.(check string) (Printf.sprintf "flight entry %d" i) (show ej) (show ef))
    (List.combine fj ff)

(* ---- fuzz: mangled frames are errors, never exceptions -------------- *)

(* Every fuzz case mangles one of these valid frames. *)
let seed_frames session =
  [ Frame.encode_request
      { Frame.fr_id = 7; fr_session = session;
        fr_op = Frame.Lookup { lk_class = 1; lk_member = 0 } };
    Frame.encode_request
      { Frame.fr_id = 8; fr_session = session;
        fr_op = Frame.Batch_lookup [| (0, 0); (1, 1); (2, 0) |] };
    Frame.encode_request
      { Frame.fr_id = 9; fr_session = session;
        fr_op =
          Frame.Add_member { am_class = 0; am_member = G.member "fz" } };
    Frame.encode_request
      { Frame.fr_id = 10; fr_session = session; fr_op = Frame.Symbols } ]

type mangle = Truncate of int | Flip of int * int

let mangle_gen nframes =
  QCheck.Gen.(
    tup2 (int_range 0 (nframes - 1))
      (oneof
         [ map (fun k -> Truncate k) (int_range 0 1000);
           map (fun (p, m) -> Flip (p, m))
             (tup2 (int_range 0 1000) (int_range 1 255)) ]))

let mangle_arb nframes =
  QCheck.make (mangle_gen nframes) ~print:(fun (i, m) ->
      match m with
      | Truncate k -> Printf.sprintf "frame %d truncated at %d/1000" i k
      | Flip (p, m) -> Printf.sprintf "frame %d flip %d/1000 mask %#x" i p m)

(* The fuzzed server is shared across cases: a mangled frame that
   happens to decode as a valid mutation is allowed to mutate — the
   property is about crashes and response well-formedness, and the
   goodness probe below re-checks a known verdict after every case. *)
let prop_mangled_frames =
  let g = Hiergen.Figures.fig3 () in
  let session = "f" in
  let srv = server_with g ~session in
  let frames = seed_frames session in
  let good_frame =
    Frame.encode_request
      { Frame.fr_id = 99; fr_session = session;
        fr_op = Frame.Lookup { lk_class = 0; lk_member = 0 } }
  in
  let good_code =
    match decode_ok ~op:Frame.op_lookup (Server.handle_frame srv good_frame)
    with
    | Frame.Ok_lookup code -> code
    | _ -> Alcotest.fail "probe lookup failed"
  in
  QCheck.Test.make ~count:300
    ~name:"truncated/bit-flipped 1b frames: in-band errors, never a crash"
    (mangle_arb (List.length frames))
    (fun (which, m) ->
      let f = List.nth frames which in
      let len = String.length f in
      let mangled =
        match m with
        | Truncate k -> String.sub f 0 (k * len / 1000)
        | Flip (p, mask) ->
          let b = Bytes.of_string f in
          let p = p * (len - 1) / 1000 in
          Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor mask));
          Bytes.to_string b
      in
      let resp = Server.handle_frame srv mangled in
      (* the response is always a well-formed frame both decoders
         accept: header magic, and a typed decode for whichever op the
         mangled header claims *)
      if String.length resp < Frame.header_len then
        QCheck.Test.fail_reportf "short response (%d bytes)"
          (String.length resp);
      if Char.code resp.[0] <> Frame.response_magic then
        QCheck.Test.fail_report "response lacks the 0xB2 magic";
      let claimed_op =
        if String.length mangled > 1 then Char.code mangled.[1] else 0
      in
      (match Frame.decode_response ~op:claimed_op resp with
      | Ok _ -> ()
      | Error msg ->
        QCheck.Test.fail_reportf "response frame undecodable: %s" msg);
      (* and the server still serves the known-good verdict *)
      (match
         Frame.decode_response ~op:Frame.op_lookup
           (Server.handle_frame srv good_frame)
       with
      | Ok (_, Frame.Ok_lookup code) when code = good_code -> ()
      | _ -> QCheck.Test.fail_report "probe verdict changed after fuzz");
      true)

(* Truncating a frame below the declared payload length is the net
   layer's concern (it only delivers complete frames); at the handler
   boundary a length mismatch must still answer parse_error. *)
let test_frame_length_mismatch () =
  let g = Hiergen.Figures.fig3 () in
  let session = "s" in
  let srv = server_with g ~session in
  let f =
    Frame.encode_request
      { Frame.fr_id = 1; fr_session = session;
        fr_op = Frame.Lookup { lk_class = 0; lk_member = 0 } }
  in
  let truncated = String.sub f 0 (String.length f - 2) in
  match Frame.decode_response ~op:Frame.op_lookup
          (Server.handle_frame srv truncated)
  with
  | Ok (_, Frame.Err (P.Parse_error, _)) -> ()
  | Ok (_, _) -> Alcotest.fail "expected a parse_error frame"
  | Error msg -> Alcotest.failf "undecodable response: %s" msg

(* Client-side decoder fuzz: mangled *response* frames must come back
   as [Error], never raise — the client trusts the server no more than
   the server trusts the client. *)
let prop_mangled_responses =
  let resps =
    [ (Frame.op_lookup, Frame.encode_response ~id:3 (Frame.Ok_lookup 5));
      ( Frame.op_batch_lookup,
        Frame.encode_response ~id:4
          (Frame.Ok_batch
             { ob_codes = [| 1; -2; -1 |]; ob_resolved = 1; ob_ambiguous = 1;
               ob_not_found = 1 }) );
      ( Frame.op_symbols,
        Frame.encode_response ~id:5
          (Frame.Ok_symbols
             { os_epoch = 0; os_classes = [| "A"; "B" |];
               os_members = [| "m" |] }) );
      ( Frame.op_lookup,
        Frame.encode_response ~id:6 (Frame.Err (P.Bad_request, "nope")) ) ]
  in
  QCheck.Test.make ~count:300
    ~name:"mangled 1b responses: client decoder returns Error, never raises"
    (mangle_arb (List.length resps))
    (fun (which, m) ->
      let op, f = List.nth resps which in
      let len = String.length f in
      let mangled =
        match m with
        | Truncate k -> String.sub f 0 (k * len / 1000)
        | Flip (p, mask) ->
          let b = Bytes.of_string f in
          let p = p * (len - 1) / 1000 in
          Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor mask));
          Bytes.to_string b
      in
      (* any result is fine; any exception is the bug *)
      (match Frame.decode_response ~op mangled with
      | Ok _ | Error _ -> ());
      true)

(* ---- mmap restore = decode restore = spec oracle -------------------- *)

let boxed_columns g =
  let cl = Chg.Closure.compute g in
  let e = Engine.build cl in
  List.map
    (fun m ->
      (m, Array.init (G.num_classes g) (fun c -> Engine.lookup e c m)))
    (G.member_names g)

let compiled_columns g =
  List.map (fun (m, col) -> (m, Packed.pack_column col)) (boxed_columns g)

let write_store_snapshot dir g =
  let st = Store.open_dir dir in
  ignore
    (Store.write_snapshot st
       { Store.Snapshot.s_session = "q";
         s_epoch = 0;
         s_protocol = P.version;
         s_graph = g;
         s_columns = compiled_columns g });
  Store.close st

let recover_with dir mode =
  let st =
    Store.open_dir ~config:{ Store.default_config with mmap_restore = mode }
      dir
  in
  let r = Store.recover st "q" in
  let engaged =
    match List.assoc_opt "store_mmap_restores" (Store.counters st) with
    | Some n -> n > 0
    | None -> false
  in
  Store.close st;
  (r, engaged)

let prop_mmap_matches_oracle =
  QCheck.Test.make ~count:40
    ~name:"mmap restore (verify/fast) = decode restore = spec oracle"
    instance_arb (fun inst ->
      let g = inst.Hiergen.Families.graph in
      with_temp_dir (fun dir ->
          write_store_snapshot dir g;
          let restored mode =
            match recover_with dir mode with
            | (Ok (Some rv), _) -> rv.Store.rv_snapshot
            | (Ok None, _) -> Alcotest.fail "store lost its snapshot"
            | (Error e, _) -> Alcotest.failf "recover failed: %s" e
          in
          let check_columns what (s : Store.Snapshot.t) =
            List.iter
              (fun m ->
                let col =
                  match List.assoc_opt m s.Store.Snapshot.s_columns with
                  | Some c -> c
                  | None -> Alcotest.failf "%s: column %S missing" what m
                in
                for c = 0 to G.num_classes g - 1 do
                  let code = Packed.column_resolve_code col c in
                  if code <> oracle_code g c m then
                    QCheck.Test.fail_reportf
                      "%s: column %S class %s: code %d, oracle %d" what m
                      (G.name g c) code (oracle_code g c m)
                done)
              (G.member_names g)
          in
          check_columns "decode" (restored `Off);
          check_columns "mmap-verify" (restored `Verify);
          check_columns "mmap-fast" (restored `Fast);
          true))

(* Legacy snapshots (tag-3 boxed columns, whatever the payload) predate
   the mappable section, so the zero-copy opener must decline and the
   store must restore them through the decode path: the graph and meta,
   no columns, and no mmap engagement.  A session over them compiles
   each column on its first miss, with the oracle's verdicts. *)
let test_legacy_snapshot_falls_back_to_decode () =
  let g = Hiergen.Figures.fig3 () in
  with_temp_dir (fun dir ->
      let section f =
        let w = B.Writer.create () in
        f w;
        B.Writer.contents w
      in
      let crc_int s = Int32.to_int (B.crc32_string s) land 0xffffffff in
      let w = B.Writer.create () in
      B.Writer.raw w "CXLSNAP0";
      B.Writer.u32 w 1;
      let sections =
        [ ( 1,
            section (fun w ->
                B.Writer.string w "q";
                B.Writer.i64 w 0;
                B.Writer.string w P.version) );
          (2, section (fun w -> B.write_graph w g));
          (3, "columns in a codec this build does not read") ]
      in
      B.Writer.u32 w (List.length sections);
      List.iter
        (fun (tag, payload) ->
          B.Writer.u8 w tag;
          B.Writer.u32 w (String.length payload);
          B.Writer.u32 w (crc_int payload);
          B.Writer.raw w payload)
        sections;
      Unix.mkdir (Filename.concat dir "q") 0o700;
      Out_channel.with_open_bin
        (Filename.concat dir (Filename.concat "q" "snap-0000000000.snap"))
        (fun oc -> Out_channel.output_string oc (B.Writer.contents w));
      match recover_with dir `Verify with
      | (Ok (Some rv), engaged) ->
        Alcotest.(check bool) "mmap did not engage on a legacy file" false
          engaged;
        let snap = rv.Store.rv_snapshot in
        Alcotest.(check int) "no columns restored" 0
          (List.length snap.Store.Snapshot.s_columns);
        let s =
          Session.restore ~name:"q" ~epoch:snap.Store.Snapshot.s_epoch
            ~columns:snap.Store.Snapshot.s_columns snap.Store.Snapshot.s_graph
        in
        List.iter
          (fun m ->
            for c = 0 to G.num_classes g - 1 do
              match Session.lookup s (G.name g c) m with
              | Ok (v, Session.Compiled) ->
                Alcotest.(check int)
                  (Printf.sprintf "legacy verdict (%s, %s)" (G.name g c) m)
                  (oracle_code g c m) (Session.code_of_verdict v)
              | Ok (_, Session.Memoised) ->
                Alcotest.failf "(%s, %s) not served from a column"
                  (G.name g c) m
              | Error e -> Alcotest.failf "lookup failed: %s" e
            done)
          (G.member_names g);
        Alcotest.(check (list string)) "columns compiled on a miss"
          (List.sort compare (G.member_names g))
          (List.map fst (Session.compiled_columns s))
      | (Ok None, _) -> Alcotest.fail "legacy snapshot invisible to recovery"
      | (Error e, _) -> Alcotest.failf "legacy recovery failed: %s" e)

(* A flipped bit anywhere in the snapshot must never crash recovery or
   change a verdict under the default (verifying) mode: either an older
   snapshot/decode path serves the right answers, or recovery reports
   the store unusable.  With a single corrupt snapshot on disk, that
   means [Error] — which the service layer answers as a store error. *)
let prop_corrupt_snapshot =
  let case_gen = QCheck.Gen.(tup2 instance_gen (int_range 0 1000)) in
  let case_arb =
    QCheck.make case_gen ~print:(fun (i, p) ->
        Printf.sprintf "flip at %d/1000 of\n%s" p
          i.Hiergen.Families.description)
  in
  QCheck.Test.make ~count:60
    ~name:"corrupt snapshot under verify: error or right verdicts, no crash"
    case_arb (fun (inst, pos) ->
      let g = inst.Hiergen.Families.graph in
      with_temp_dir (fun dir ->
          write_store_snapshot dir g;
          let snap_path =
            match
              let st = Store.open_dir dir in
              let p = Store.newest_snapshot st "q" in
              Store.close st;
              p
            with
            | Some (_, p) -> p
            | None -> Alcotest.fail "no snapshot written"
          in
          let size = (Unix.stat snap_path).Unix.st_size in
          corrupt_byte snap_path (pos * (size - 1) / 1000) 0x10;
          (match recover_with dir `Verify with
          | (Ok (Some rv), _) ->
            (* recovery may succeed on a damaged file — the flip landed
               in padding, or turned a section tag into an unknown one
               the reader skips for forward compatibility, dropping
               that section (a missing column is safe degradation: the
               session recompiles it).  What must never happen is a
               column that is present answering wrong. *)
            List.iter
              (fun m ->
                match
                  List.assoc_opt m rv.Store.rv_snapshot.Store.Snapshot.s_columns
                with
                | None -> ()
                | Some col ->
                  for c = 0 to G.num_classes g - 1 do
                    if Packed.column_resolve_code col c <> oracle_code g c m
                    then
                      QCheck.Test.fail_reportf
                        "corrupt snapshot served a wrong verdict for (%s, %s)"
                        (G.name g c) m
                  done)
              (G.member_names g)
          | (Ok None, _) | (Error _, _) -> ());
          true))

(* Fast mode skips the CRC pass by contract, so a corrupt image may
   serve — but the structural checks and per-access bounds checks must
   keep every probe inside the mapping: probing all columns never
   escapes with anything but [Corrupt]. *)
let prop_corrupt_fast_no_crash =
  let case_gen = QCheck.Gen.(tup2 instance_gen (int_range 0 1000)) in
  let case_arb =
    QCheck.make case_gen ~print:(fun (i, p) ->
        Printf.sprintf "flip at %d/1000 of\n%s" p
          i.Hiergen.Families.description)
  in
  QCheck.Test.make ~count:60
    ~name:"corrupt snapshot under fast: probes stay bounds-checked"
    case_arb (fun (inst, pos) ->
      let g = inst.Hiergen.Families.graph in
      with_temp_dir (fun dir ->
          write_store_snapshot dir g;
          let snap_path =
            match
              let st = Store.open_dir dir in
              let p = Store.newest_snapshot st "q" in
              Store.close st;
              p
            with
            | Some (_, p) -> p
            | None -> Alcotest.fail "no snapshot written"
          in
          let size = (Unix.stat snap_path).Unix.st_size in
          corrupt_byte snap_path (pos * (size - 1) / 1000) 0x10;
          (match recover_with dir `Fast with
          | (Ok (Some rv), _) ->
            List.iter
              (fun (_, col) ->
                for c = 0 to Packed.column_classes col - 1 do
                  match Packed.column_resolve_code col c with
                  | _ -> ()
                  | exception B.Corrupt _ -> ()
                done)
              rv.Store.rv_snapshot.Store.Snapshot.s_columns
          | (Ok None, _) | (Error _, _) -> ());
          true))

(* ---- suite ---------------------------------------------------------- *)

let suite =
  [ Alcotest.test_case "frame mutations carry intern deltas" `Quick
      test_frame_mutations;
    Alcotest.test_case "under-length frame answers parse_error" `Quick
      test_frame_length_mismatch;
    Alcotest.test_case "legacy snapshot falls back to decode" `Quick
      test_legacy_snapshot_falls_back_to_decode;
    Alcotest.test_case "JSON and 1b account alike" `Quick test_codec_parity ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_frames_match_oracle;
        prop_mangled_frames;
        prop_mangled_responses;
        prop_mmap_matches_oracle;
        prop_corrupt_snapshot;
        prop_corrupt_fast_no_crash ]

(* ---- id frames in place = the typed decode they replaced -------------

   Lookup and batch_lookup frames are decoded where they lie and
   answered straight into the connection's buffer.  Their answers must
   be, byte for byte, what the typed path answered.  The expectation is
   built the way that path built it: {!Frame.decode_request}, the
   typed request's session and id checks (class before member, the
   first bad pair failing a batch), the spec oracle's verdicts, and
   {!Frame.encode_response}.  The frames are random well-formed ones
   and the malformed ones the in-place shape check must reject:
   truncated payloads, trailing bytes, batch counts past or short of the
   payload, bad session lengths, length mismatches, unknown sessions,
   bad class and member ids.  Every response echoes the request's 8 id
   bytes verbatim, including ids outside ±2^62 that an [int] cannot
   hold; for every other id that is exactly what
   [Frame.encode_response ~id] wrote.  The session's counters must agree
   with the pairs resolved, bad batches counting the pairs before their
   first bad id. *)

let set_u32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

(* [f] with its header's payload length made to agree with it *)
let refit b =
  set_u32 b 2 (Bytes.length b - Frame.header_len);
  Bytes.to_string b

let extreme_ids =
  [| 0x4000000000000001L; 0x8000000000000000L; 0x7fffffffffffffffL;
     0xC000000000000001L; -1L; 0L |]

let random_frame rs ~session ~classes ~members =
  let id () =
    match Random.State.int rs 4 with
    | 0 -> extreme_ids.(Random.State.int rs (Array.length extreme_ids))
    | 1 -> Random.State.int64 rs Int64.max_int
    | _ -> Int64.of_int (Random.State.int rs 1000)
  in
  (* mostly valid ids, sometimes one past the end or far out *)
  let pick n =
    match Random.State.int rs 20 with
    | 0 -> n + Random.State.int rs 3
    | 1 -> 0xffffffff
    | _ -> if n = 0 then 0 else Random.State.int rs n
  in
  let pair () = (pick classes, pick members) in
  let op =
    if Random.State.bool rs then
      let c, m = pair () in
      Frame.Lookup { lk_class = c; lk_member = m }
    else Frame.Batch_lookup (Array.init (Random.State.int rs 70) (fun _ -> pair ()))
  in
  let session = if Random.State.int rs 10 = 0 then "nosuch" else session in
  let f =
    Bytes.of_string
      (Frame.encode_request { Frame.fr_id = 0; fr_session = session; fr_op = op })
  in
  Bytes.set_int64_le f Frame.header_len (id ());
  let len = Bytes.length f in
  let batch = match op with Frame.Batch_lookup _ -> true | _ -> false in
  let count_at = Frame.header_len + 12 + String.length session in
  match Random.State.int rs 12 with
  | 0 ->
    (* a truncated payload, header refitted *)
    refit (Bytes.sub f 0 (Frame.header_len + Random.State.int rs (len - Frame.header_len)))
  | 1 ->
    (* trailing bytes *)
    refit (Bytes.cat f (Bytes.make (1 + Random.State.int rs 8) '\007'))
  | 2 when batch ->
    (* a count past the payload, or short of it *)
    let count = Int32.to_int (Bytes.get_int32_le f count_at) in
    set_u32 f count_at
      (if Random.State.bool rs then count + 1 + Random.State.int rs 3
       else if Random.State.bool rs then max 0 (count - 1)
       else 0xffffffff);
    Bytes.to_string f
  | 3 ->
    (* a session length past the payload *)
    set_u32 f (Frame.header_len + 8)
      (if Random.State.bool rs then len else 0xfffffff0);
    Bytes.to_string f
  | 4 ->
    (* header and payload disagree *)
    Bytes.sub_string f 0 (len - 1 - Random.State.int rs (len - 1))
  | _ -> Bytes.to_string f

(* What the typed path answered for [f]. *)
let typed_answer ~g ~names ~session f =
  let nc = G.num_classes g and nm = Array.length names in
  match Frame.parse_header f with
  | Error msg -> (Frame.encode_response ~id:0 (Frame.Err (P.Parse_error, msg)), 0, None)
  | Ok (_, len) when String.length f <> Frame.header_len + len ->
    ( Frame.encode_response ~id:0
        (Frame.Err (P.Parse_error, "frame length disagrees with header")),
      0, None )
  | Ok (op, len) ->
    let body = String.sub f Frame.header_len len in
    (* the typed path echoed the id when the [i64 id | string session]
       prefix read *)
    let prefix =
      try
        let r = B.Reader.of_string body in
        let id = B.Reader.i64 r in
        ignore (B.Reader.string r);
        Some id
      with B.Corrupt _ -> None
    in
    let id = Option.value prefix ~default:0 in
    let id_bytes = Option.map (fun _ -> String.sub body 0 8) prefix in
    let answer r =
      let typed = Frame.encode_response ~id r in
      match id_bytes with
      | None -> typed
      | Some b ->
        let fixed = Bytes.of_string typed in
        Bytes.blit_string b 0 fixed Frame.header_len 8;
        let fixed = Bytes.to_string fixed in
        if Int64.of_int (Int64.to_int (String.get_int64_le b 0)) = String.get_int64_le b 0
           && fixed <> typed
        then Alcotest.fail "an in-range id encodes differently when echoed";
        fixed
    in
    let bad (c, m) =
      if c >= nc then Some (P.Unknown_class, Printf.sprintf "unknown class id %d" c)
      else if m >= nm then Some (P.Bad_request, Printf.sprintf "unknown member id %d" m)
      else None
    in
    let code (c, m) = oracle_code g c names.(m) in
    (match Frame.decode_request ~op body with
    | Error msg -> (answer (Frame.Err (P.Bad_request, msg)), 0, None)
    | Ok { Frame.fr_session; _ } when fr_session <> session ->
      ( answer
          (Frame.Err (P.Unknown_session, Printf.sprintf "no open session %S" fr_session)),
        0, None )
    | Ok { Frame.fr_op = Frame.Lookup { lk_class; lk_member }; _ } ->
      (match bad (lk_class, lk_member) with
      | Some (c, m) -> (answer (Frame.Err (c, m)), 0, None)
      | None ->
        let c = code (lk_class, lk_member) in
        (answer (Frame.Ok_lookup c), 1, Some [ c ]))
    | Ok { Frame.fr_op = Frame.Batch_lookup pairs; _ } ->
      let rec first_bad i =
        if i = Array.length pairs then None
        else match bad pairs.(i) with Some e -> Some (i, e) | None -> first_bad (i + 1)
      in
      (match first_bad 0 with
      | Some (i, (c, m)) ->
        (answer (Frame.Err (c, m)), i, Some (List.init i (fun k -> code pairs.(k))))
      | None ->
        let codes = Array.map code pairs in
        let count p = Array.fold_left (fun n c -> if p c then n + 1 else n) 0 codes in
        ( answer
            (Frame.Ok_batch
               { ob_codes = codes; ob_resolved = count (fun c -> c >= 0);
                 ob_ambiguous = count (( = ) (-2));
                 ob_not_found = count (( = ) (-1)) }),
          Array.length codes, Some (Array.to_list codes) ))
    | Ok _ -> Alcotest.fail "the generator made a frame that is not a lookup")

let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let session_counters srv ~session =
  let stats =
    Server.handle_line srv
      (Printf.sprintf {|{"id":0,"op":"stats","session":%S}|} session)
  in
  let get path =
    match
      List.fold_left (fun j k -> Result.bind j (J.member k)) (Ok stats) path
    with
    | Ok (J.Int n) -> n
    | _ -> Alcotest.failf "stats lacks %s" (String.concat "." path)
  in
  let c k = get [ "stats"; "counters"; k ] and tb k = get [ "stats"; "table"; k ] in
  ( c "lookups", c "resolved", c "ambiguous", c "not_found",
    tb "table_hits" + tb "table_misses" )

let prop_id_frames_in_place =
  QCheck.Test.make ~count:100
    ~name:"id frames in place = the typed decode, byte for byte"
    (QCheck.pair instance_arb QCheck.small_nat)
    (fun (inst, seed) ->
      let g = inst.Hiergen.Families.graph in
      let session = "d" in
      let srv = server_with g ~session in
      let mids = member_ids srv ~session in
      let names = Array.make (Hashtbl.length mids) "" in
      Hashtbl.iter (fun n i -> names.(i) <- n) mids;
      let rs = Random.State.make [| seed |] in
      let want_lookups = ref 0 and want_codes = ref [] in
      let out = Service.Outbuf.create 16 in
      for _ = 1 to 60 do
        let f =
          random_frame rs ~session ~classes:(G.num_classes g)
            ~members:(Array.length names)
        in
        let want, n, codes = typed_answer ~g ~names ~session f in
        let got = Server.handle_frame srv f in
        if got <> want then
          QCheck.Test.fail_reportf "frame %s\n answered %s\n expected %s" (hex f)
            (hex got) (hex want);
        want_lookups := !want_lookups + n;
        want_codes := Option.value codes ~default:[] @ !want_codes;
        (* into a buffer that already holds bytes: they stay, and a
           failure drops only what its own request wrote *)
        Service.Outbuf.clear out;
        Service.Outbuf.add_string out "prior";
        let k = Server.answer_frame srv out f in
        if Service.Outbuf.contents out <> "prior" ^ want || k <> String.length want
        then QCheck.Test.fail_reportf "frame %s: answer_frame disagrees" (hex f);
        want_lookups := !want_lookups + n;
        want_codes := Option.value codes ~default:[] @ !want_codes
      done;
      let lookups, resolved, ambiguous, not_found, table = session_counters srv ~session in
      let count p = List.length (List.filter p !want_codes) in
      if
        (lookups, resolved, ambiguous, not_found, table)
        <> ( !want_lookups, count (fun c -> c >= 0), count (( = ) (-2)),
             count (( = ) (-1)), !want_lookups )
      then
        QCheck.Test.fail_reportf
          "counters lookups/resolved/ambiguous/not_found/table %d/%d/%d/%d/%d, \
           want %d" lookups resolved ambiguous not_found table !want_lookups;
      true)

(* The extreme ids by hand: the typed path answered 0x4000000000000001
   as 0xC000000000000001. *)
let test_extreme_ids_echoed () =
  let g = Hiergen.Figures.fig3 () in
  let session = "x" in
  let srv = server_with g ~session in
  List.iter
    (fun (what, id, session, op) ->
      let f =
        Bytes.of_string
          (Frame.encode_request { Frame.fr_id = 0; fr_session = session; fr_op = op })
      in
      Bytes.set_int64_le f Frame.header_len id;
      let resp = Server.handle_frame srv (Bytes.to_string f) in
      Alcotest.(check string) what
        (hex (Bytes.sub_string f Frame.header_len 8))
        (hex (String.sub resp Frame.header_len 8)))
    (List.concat_map
       (fun id ->
         let s = Printf.sprintf "%Lx" id in
         [ ("lookup " ^ s, id, session, Frame.Lookup { lk_class = 0; lk_member = 0 });
           ( "batch " ^ s, id, session,
             Frame.Batch_lookup [| (0, 0); (1, 0) |] );
           ("bad class " ^ s, id, session, Frame.Lookup { lk_class = 99; lk_member = 0 });
           ("unknown session " ^ s, id, "nosuch", Frame.Symbols);
           ("symbols " ^ s, id, session, Frame.Symbols) ])
       [ 0x4000000000000001L; 0x8000000000000000L ])

let suite =
  suite
  @ [ Alcotest.test_case "ids outside ±2^62 echo verbatim" `Quick
        test_extreme_ids_echoed;
      QCheck_alcotest.to_alcotest prop_id_frames_in_place ]
