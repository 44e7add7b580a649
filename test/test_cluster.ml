(* Tests for the cluster layer: WAL tailing under concurrent append
   (strictly-consecutive prefix, torn frames completed rather than
   skipped, shrink = Reset), client retry/backoff, the replication
   wire codecs, leader/follower catch-up end to end in-process
   (including a follower restart over its own store and leader-side
   compaction resyncs), the follower's not_leader gate, and a QCheck
   property that routed batch_lookups — each sent whole to one of three
   real networked backends — match the spec oracle exactly. *)

module G = Chg.Graph
module J = Chg.Json
module P = Service.Protocol
module W = Hiergen.Workload
module Path = Subobject.Path
module Spec = Subobject.Spec
module Wal = Store.Wal
module Tail = Store.Wal.Tail_reader

(* ---- scratch directories ------------------------------------------- *)

let temp_dir () =
  let f = Filename.temp_file "cxxcluster" "" in
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

let wait_until ?(timeout = 10.) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || Unix.gettimeofday () -. t0 <= timeout
       && begin
            Thread.delay 0.02;
            go ()
          end
  in
  go ()

let mutation name =
  Store.Mutation.Add_member
    { am_class = "A";
      am_member =
        { G.m_name = name; m_kind = G.Data; m_static = false;
          m_virtual = false; m_access = G.Public } }

(* ---- WAL tail reader ------------------------------------------------ *)

let test_tail_concurrent_append () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_append ~fsync:Wal.Never path in
  let n = 300 in
  let writer =
    Thread.create
      (fun () ->
        for e = 1 to n do
          ignore (Wal.append w ~epoch:e (mutation (Printf.sprintf "m%d" e)));
          if e mod 7 = 0 then Thread.yield ()
        done)
      ()
  in
  let r = Tail.create path in
  let seen = ref [] in
  let deadline = Unix.gettimeofday () +. 10. in
  while List.length !seen < n && Unix.gettimeofday () < deadline do
    match Tail.poll r with
    | Tail.Frames records ->
      List.iter (fun rc -> seen := rc.Wal.rc_epoch :: !seen) records
    | Tail.Nothing -> Thread.yield ()
    | Tail.Reset -> Alcotest.fail "tail reported Reset on an append-only file"
  done;
  Thread.join writer;
  Wal.close w;
  (* every record arrives exactly once, in append order: the reader
     never surfaced a torn frame or skipped one *)
  Alcotest.(check (list int)) "strictly consecutive epochs"
    (List.init n (fun i -> i + 1))
    (List.rev !seen)

let test_tail_completes_torn_frame () =
  with_temp_dir @@ fun dir ->
  (* build a 3-record WAL, then replay it into a second file with the
     third frame initially torn in half *)
  let full = Filename.concat dir "full.log" in
  let w = Wal.open_append ~fsync:Wal.Never full in
  ignore (Wal.append w ~epoch:1 (mutation "m1"));
  ignore (Wal.append w ~epoch:2 (mutation "m2"));
  let two = Wal.size w in
  ignore (Wal.append w ~epoch:3 (mutation "m3"));
  Wal.close w;
  let bytes = In_channel.with_open_bin full In_channel.input_all in
  let torn_at = two + ((String.length bytes - two) / 2) in
  let path = Filename.concat dir "wal.log" in
  let oc = Out_channel.open_bin path in
  Out_channel.output_string oc (String.sub bytes 0 torn_at);
  Out_channel.flush oc;
  let r = Tail.create path in
  let epochs = function
    | Tail.Frames rs -> List.map (fun rc -> rc.Wal.rc_epoch) rs
    | Tail.Nothing -> []
    | Tail.Reset -> Alcotest.fail "unexpected Reset"
  in
  Alcotest.(check (list int)) "complete prefix only" [ 1; 2 ]
    (epochs (Tail.poll r));
  Alcotest.(check (list int)) "torn suffix yields nothing yet" []
    (epochs (Tail.poll r));
  Alcotest.(check int) "offset stops at the valid prefix" two (Tail.offset r);
  (* the other half of the frame lands: the same offset re-validates
     and the record comes through — the bug the reader exists to avoid
     is judging this frame torn once and skipping it forever *)
  Out_channel.output_string oc
    (String.sub bytes torn_at (String.length bytes - torn_at));
  Out_channel.flush oc;
  Out_channel.close oc;
  Alcotest.(check (list int)) "completed frame arrives" [ 3 ]
    (epochs (Tail.poll r))

let test_tail_reset_on_shrink () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_append ~fsync:Wal.Never path in
  ignore (Wal.append w ~epoch:1 (mutation "m1"));
  ignore (Wal.append w ~epoch:2 (mutation "m2"));
  let r = Tail.create path in
  (match Tail.poll r with
  | Tail.Frames rs ->
    Alcotest.(check int) "two records" 2 (List.length rs)
  | _ -> Alcotest.fail "expected frames");
  (* compaction empties the log: the reader must not pretend the old
     offset still means anything *)
  Wal.reset w;
  (match Tail.poll r with
  | Tail.Reset -> ()
  | _ -> Alcotest.fail "expected Reset after the WAL shrank");
  ignore (Wal.append w ~epoch:3 (mutation "m3"));
  (match Tail.poll r with
  | Tail.Frames [ rc ] ->
    Alcotest.(check int) "post-reset record" 3 rc.Wal.rc_epoch
  | _ -> Alcotest.fail "expected the post-reset record");
  Wal.close w

(* ---- client retry / backoff ----------------------------------------- *)

let test_backoff_bounds () =
  for attempt = 0 to 5 do
    for _ = 1 to 20 do
      let d = Net.Client.backoff_delay ~attempt ~backoff_ms:40 in
      let base = 0.040 *. (2. ** float_of_int attempt) in
      if d < (base *. 0.75) -. 1e-9 || d > (base *. 1.25) +. 1e-9 then
        Alcotest.failf "attempt %d: delay %.4f outside [%.4f, %.4f]" attempt d
          (base *. 0.75) (base *. 1.25)
    done
  done

let test_connect_retries_until_listener_appears () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "late.sock" in
  let addr = Net.Server.Unix_path path in
  (* the listener only appears 150 ms in: without retries the connect
     fails on ENOENT, with them it lands *)
  (try
     ignore (Net.Client.connect addr);
     Alcotest.fail "connect succeeded with no listener"
   with Unix.Unix_error _ -> ());
  let listener =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        let fd, _ = Net.Server.listen_on addr in
        let conn, _ = Unix.accept fd in
        Unix.close conn;
        Unix.close fd)
      ()
  in
  let cl = Net.Client.connect ~retries:8 ~backoff_ms:30 addr in
  Net.Client.close cl;
  Thread.join listener

(* ---- replication wire ----------------------------------------------- *)

let prop_b64_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wire base64 roundtrip"
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.char)
    (fun s -> Cluster.Wire.b64_decode (Cluster.Wire.b64_encode s) = Ok s)

let test_hello_roundtrip () =
  let have = [ ("alpha", 7); ("beta", 0) ] in
  (match Cluster.Wire.parse_hello (Cluster.Wire.hello_line ~have) with
  | Ok h -> Alcotest.(check (list (pair string int))) "have survives" have h
  | Error e -> Alcotest.failf "hello failed to parse: %s" e);
  (match Cluster.Wire.parse_hello "{\"repl\":\"hello\",\"protocol\":\"other/9\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "protocol mismatch accepted")

let test_wal_line_roundtrip () =
  let record = { Wal.rc_epoch = 42; rc_mutation = mutation "wired" } in
  match
    Cluster.Wire.parse_server_msg (Cluster.Wire.wal_line ~session:"s" record)
  with
  | Ok (Cluster.Wire.Wal { session; record = r }) ->
    Alcotest.(check string) "session" "s" session;
    Alcotest.(check int) "epoch" 42 r.Wal.rc_epoch;
    Alcotest.(check string) "mutation"
      (Store.Mutation.describe record.Wal.rc_mutation)
      (Store.Mutation.describe r.Wal.rc_mutation)
  | Ok _ -> Alcotest.fail "decoded as the wrong message"
  | Error e -> Alcotest.failf "wal line failed to parse: %s" e

(* ---- follower role --------------------------------------------------- *)

let graph () = Hiergen.Figures.fig3 ()

let open_request ?(session = "s") g =
  { P.rq_id = J.Int 0;
    rq_session = Some session;
    rq_op =
      P.Open
        { o_session = Some session;
          o_hierarchy =
            P.Chg_json (Chg.Serialize.of_string (Chg.Serialize.to_string g))
        } }

let mutate_request ~session name =
  { P.rq_id = J.Int 0;
    rq_session = Some session;
    rq_op =
      P.Mutate
        (P.Add_member
           { mm_class = "A";
             mm_member =
               { G.m_name = name; m_kind = G.Data; m_static = false;
                 m_virtual = false; m_access = G.Public } }) }

let lookup_request ~session ~cls ~member =
  { P.rq_id = J.Int 0;
    rq_session = Some session;
    rq_op =
      P.Lookup
        { lk_query = { P.q_class = cls; q_member = member };
          lk_semantics = Mro.Cpp } }

let resp_ok j = J.member "ok" j = Ok (J.Bool true)

let resp_error_code j =
  match J.member "error" j with
  | Ok e -> (match J.member "code" e with Ok (J.String s) -> s | _ -> "?")
  | Error _ -> "?"

let test_follower_rejects_mutations () =
  let srv = Service.Server.create ~role:Service.Server.Follower () in
  (match Service.Server.role srv with
  | Service.Server.Follower -> ()
  | Service.Server.Leader -> Alcotest.fail "role not recorded");
  let resp = Service.Server.handle_request srv (open_request (graph ())) in
  Alcotest.(check string) "open refused" "not_leader" (resp_error_code resp);
  (* a replicated install still lands, and reads over it work *)
  let g = graph () in
  let snap =
    { Store.Snapshot.s_session = "s"; s_epoch = 0;
      s_protocol = P.version; s_graph = g; s_columns = [] }
  in
  (match Service.Server.install_snapshot srv snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install failed: %s" e);
  let resp =
    Service.Server.handle_request srv
      (lookup_request ~session:"s" ~cls:"C" ~member:"m")
  in
  Alcotest.(check bool) "reads still served" true (resp_ok resp);
  let resp =
    Service.Server.handle_request srv (mutate_request ~session:"s" "nope")
  in
  Alcotest.(check string) "mutate refused" "not_leader" (resp_error_code resp);
  (* the 1b mutations meet the same gate *)
  let frame_refused what op =
    let f =
      Service.Frame.encode_request
        { Service.Frame.fr_id = 9; fr_session = "s"; fr_op = op }
    in
    match
      Service.Frame.decode_response ~op:Service.Frame.op_add_member
        (Service.Server.handle_frame srv f)
    with
    | Ok (9, Service.Frame.Err (P.Not_leader, _)) -> ()
    | _ -> Alcotest.failf "%s frame not refused with not_leader" what
  in
  frame_refused "add_member"
    (Service.Frame.Add_member { am_class = 0; am_member = G.member "nope" });
  frame_refused "add_class"
    (Service.Frame.Add_class
       { ac_name = "Nope"; ac_bases = []; ac_members = [] });
  Alcotest.(check (list (pair string int))) "follower untouched" [ ("s", 0) ]
    (Service.Server.open_sessions srv)

let test_apply_replicated_gap_rejected () =
  let srv = Service.Server.create ~role:Service.Server.Follower () in
  let g = graph () in
  let snap =
    { Store.Snapshot.s_session = "s"; s_epoch = 0;
      s_protocol = P.version; s_graph = g; s_columns = [] }
  in
  (match Service.Server.install_snapshot srv snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install failed: %s" e);
  (match Service.Server.apply_replicated srv ~session:"s" ~epoch:1 (mutation "one") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "consecutive apply failed: %s" e);
  (match Service.Server.apply_replicated srv ~session:"s" ~epoch:3 (mutation "three") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "epoch gap accepted");
  match Service.Server.apply_replicated srv ~session:"missing" ~epoch:1 (mutation "x") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "apply to an unknown session accepted"

(* ---- leader/follower catch-up, end to end in-process ----------------- *)

let session_epoch srv name =
  match List.assoc_opt name (Service.Server.open_sessions srv) with
  | Some e -> e
  | None -> -1

let check_follower_matches_leader ~leader ~follower ~session g =
  List.iter
    (fun (q : W.query) ->
      let cls = G.name g q.W.q_class in
      let rq = lookup_request ~session ~cls ~member:q.W.q_member in
      let strip j =
        match j with
        | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "via") fields)
        | other -> other
      in
      let l = strip (Service.Server.handle_request leader rq) in
      let f = strip (Service.Server.handle_request follower rq) in
      if J.to_string l <> J.to_string f then
        Alcotest.failf "lookup(%s, %s) diverges:\n leader   %s\n follower %s"
          cls q.W.q_member (J.to_string l) (J.to_string f))
    (W.exhaustive g)

let test_replication_catch_up_and_restart () =
  with_temp_dir @@ fun ldir ->
  with_temp_dir @@ fun fdir ->
  (* a tiny compaction threshold so the leader keeps snapshotting and
     resetting its WAL mid-stream: every resync path gets exercised *)
  let store_config =
    { Store.default_config with Store.compact_bytes = 256; fsync = Wal.Never }
  in
  let lstore = Store.open_dir ~config:store_config ldir in
  let leader = Service.Server.create ~store:lstore () in
  let g = graph () in
  Alcotest.(check bool) "leader open" true
    (resp_ok (Service.Server.handle_request leader (open_request g)));
  let repl = Cluster.Repl.create leader (Net.Server.Tcp ("127.0.0.1", 0)) in
  let repl_th = Thread.create Cluster.Repl.run repl in
  let leader_addr = Cluster.Repl.bound_addr repl in
  let follower_of store =
    Service.Server.create ~role:Service.Server.Follower ~store ()
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Repl.stop repl;
      Thread.join repl_th;
      Store.close lstore)
    (fun () ->
      let fstore = Store.open_dir ~config:store_config fdir in
      let follower = follower_of fstore in
      let rep = Cluster.Replica.create ~backoff_ms:20 follower leader_addr in
      let rep_th = Thread.create Cluster.Replica.run rep in
      for i = 1 to 10 do
        Alcotest.(check bool) "leader mutate" true
          (resp_ok
             (Service.Server.handle_request leader
                (mutate_request ~session:"s" (Printf.sprintf "r%d" i))))
      done;
      let caught_up srv () =
        session_epoch srv "s" = session_epoch leader "s"
      in
      Alcotest.(check bool) "follower catches up" true
        (wait_until (caught_up follower));
      check_follower_matches_leader ~leader ~follower ~session:"s" g;
      (* stop the follower entirely, keep mutating, then restart a
         fresh follower over the same store: it recovers locally,
         offers its epochs, and only the delta streams *)
      Cluster.Replica.stop rep;
      Thread.join rep_th;
      Store.close fstore;
      for i = 11 to 25 do
        Alcotest.(check bool) "leader mutate while follower down" true
          (resp_ok
             (Service.Server.handle_request leader
                (mutate_request ~session:"s" (Printf.sprintf "r%d" i))))
      done;
      let fstore = Store.open_dir ~config:store_config fdir in
      let follower = follower_of fstore in
      let recovered = Service.Server.recover_sessions follower in
      Alcotest.(check bool) "restart recovered locally" true
        (List.exists
           (function
             | Service.Server.Recovered { r_session = "s"; _ } -> true
             | _ -> false)
           recovered);
      let rep = Cluster.Replica.create ~backoff_ms:20 follower leader_addr in
      let rep_th = Thread.create Cluster.Replica.run rep in
      Fun.protect
        ~finally:(fun () ->
          Cluster.Replica.stop rep;
          Thread.join rep_th;
          Store.close fstore)
        (fun () ->
          Alcotest.(check bool) "restarted follower catches up" true
            (wait_until (caught_up follower));
          check_follower_matches_leader ~leader ~follower ~session:"s" g))

(* ---- the router ------------------------------------------------------ *)

let with_net ?config srv f =
  let net = Net.Server.create ?config srv (Net.Server.Tcp ("127.0.0.1", 0)) in
  let th = Thread.create Net.Server.run net in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop net;
      Thread.join th)
    (fun () -> f (Net.Server.bound_addr net))

let with_router_t ?config ~leader backends f =
  let rt = Cluster.Router.create ?config ~leader backends (Net.Server.Tcp ("127.0.0.1", 0)) in
  let th = Thread.create Cluster.Router.run rt in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.stop rt;
      Thread.join th)
    (fun () -> f rt)

let with_router ?config ~leader backends f =
  with_router_t ?config ~leader backends (fun rt -> f (Cluster.Router.bound_addr rt))

(* One of the router's own counters, by its exposition name. *)
let router_count rt name =
  List.fold_left (fun acc (_, v) -> acc + v) 0
    (Telemetry.Registry.find_values (Cluster.Router.registry rt) name)

(* three independent backends, all holding [g] under [session] *)
let with_backends g ~session k =
  let mk () =
    let srv = Service.Server.create () in
    let resp = Service.Server.handle_request srv (open_request ~session g) in
    if not (resp_ok resp) then Alcotest.fail "backend open failed";
    srv
  in
  let s0 = mk () and s1 = mk () and s2 = mk () in
  with_net s0 @@ fun a0 ->
  with_net s1 @@ fun a1 ->
  with_net s2 @@ fun a2 -> k (s0, s1, s2) [ a0; a1; a2 ]

let batch_line ~session ~id queries =
  J.to_string
    (J.Obj
       [ ("id", J.Int id); ("op", J.String "batch_lookup");
         ("session", J.String session);
         ( "queries",
           J.List
             (List.map
                (fun (cls, m) ->
                  J.Obj [ ("class", J.String cls); ("member", J.String m) ])
                queries) ) ])

let result_matches_oracle g (cls, member) r =
  let field name =
    match J.member name r with Ok (J.String s) -> Some s | _ -> None
  in
  field "class" = Some cls
  && field "member" = Some member
  &&
  match G.find_opt g cls with
  | None -> field "error" = Some "unknown_class"
  | Some c ->
    (match Spec.lookup_static g c member with
    | Spec.Resolved p ->
      field "verdict" = Some "red"
      && field "resolves_to" = Some (G.name g (Path.ldc p))
    | Spec.Ambiguous _ -> field "verdict" = Some "blue"
    | Spec.Undeclared -> field "verdict" = Some "none")

let check_batch_response g ~queries ~id resp =
  match J.of_string resp with
  | Error e -> Alcotest.failf "unparseable router response: %s" e
  | Ok j ->
    if not (resp_ok j) then
      Alcotest.failf "router answered an error: %s" resp;
    Alcotest.(check bool) "id echoed" true (J.member "id" j = Ok (J.Int id));
    let results =
      match J.member "results" j with
      | Ok (J.List rs) -> rs
      | _ -> Alcotest.fail "no results array"
    in
    Alcotest.(check int) "one result per query, in order"
      (List.length queries) (List.length results);
    List.iteri
      (fun i (q, r) ->
        if not (result_matches_oracle g q r) then
          Alcotest.failf "result %d (%s, %s) diverges from the oracle: %s" i
            (fst q) (snd q) (J.to_string r))
      (List.combine queries results)

let prop_routed_batch_matches_oracle =
  let qc_members = [ "m"; "n"; "p" ] in
  let instance_gen =
    QCheck.Gen.(
      map
        (fun (n, max_bases, vp, dp, seed) ->
          Hiergen.Families.random_dag ~n ~max_bases
            ~virtual_prob:(float_of_int vp /. 10.)
            ~declare_prob:(float_of_int dp /. 10.)
            ~members:qc_members ~seed)
        (tup5 (int_range 1 10) (int_range 1 3) (int_range 0 10)
           (int_range 1 6) (int_range 0 10000)))
  in
  let instance_arb =
    QCheck.make instance_gen ~print:(fun i ->
        i.Hiergen.Families.description ^ "\n"
        ^ Format.asprintf "%a" G.pp i.Hiergen.Families.graph)
  in
  QCheck.Test.make ~count:8
    ~name:"routed batch_lookup over 3 backends = spec oracle" instance_arb
    (fun { Hiergen.Families.graph = g; _ } ->
      with_backends g ~session:"q" (fun _ addrs ->
          with_router ~leader:0 addrs @@ fun raddr ->
          let cl = Net.Client.connect raddr in
          let queries =
            List.map
              (fun (q : W.query) -> (G.name g q.W.q_class, q.W.q_member))
              (W.exhaustive g)
            @ [ ("NoSuchClass", "m") ]
          in
          (match Net.Client.request cl (batch_line ~session:"q" ~id:77 queries) with
          | Some resp -> check_batch_response g ~queries ~id:77 resp
          | None -> Alcotest.fail "router closed the connection");
          Net.Client.close cl;
          true))

let labelled_count registry metric label value =
  List.fold_left
    (fun acc (labels, v) ->
      if List.assoc_opt label labels = Some value then acc + v else acc)
    0
    (Telemetry.Registry.find_values registry metric)

(* Round trips the router has timed, over every backend. *)
let router_round_trips rt =
  List.fold_left
    (fun acc (name, series) ->
      if name <> "cxxlookup_router_backend_rtt_ns" then acc
      else
        List.fold_left
          (fun acc s ->
            match s.Telemetry.Registry.s_instrument with
            | Telemetry.Registry.Histogram h -> acc + Telemetry.Histogram.count h
            | _ -> acc)
          acc series)
    0
    (Telemetry.Registry.collect (Cluster.Router.registry rt))

(* A JSON batch_lookup is one read: each costs one backend round trip,
   its bytes are the session's preferred backend's own answer, and no
   other backend compiles a column for the session.  The preferred
   backend is the top rendezvous score of (session, address). *)
let test_router_json_batch_is_one_read () =
  let g = graph () in
  let session = "s" in
  with_backends g ~session (fun (s0, s1, s2) addrs ->
      with_router_t ~leader:0 addrs @@ fun rt ->
      let score addr =
        Int32.to_int
          (Chg.Binary.crc32_string (session ^ "|" ^ Net.Server.addr_string addr))
        land 0xffffffff
      in
      let servers = [ s0; s1; s2 ] in
      let preferred, others =
        let scored = List.combine (List.map score addrs) servers in
        match List.sort (fun (a, _) (b, _) -> compare b a) scored with
        | (_, p) :: rest -> (p, List.map snd rest)
        | [] -> assert false
      in
      let queries =
        List.map
          (fun (q : W.query) -> (G.name g q.W.q_class, q.W.q_member))
          (W.exhaustive g)
      in
      let line = batch_line ~session ~id:11 queries in
      let cl = Net.Client.connect (Cluster.Router.bound_addr rt) in
      let routed () =
        let before = router_round_trips rt in
        let resp =
          match Net.Client.request cl line with
          | Some resp -> resp
          | None -> Alcotest.fail "router closed the connection"
        in
        Alcotest.(check int) "one backend round trip per batch" (before + 1)
          (router_round_trips rt);
        resp
      in
      let first = routed () in
      let second = routed () in
      Net.Client.close cl;
      check_batch_response g ~queries ~id:11 first;
      Alcotest.(check string) "same answer twice" first second;
      Alcotest.(check string) "the preferred backend's own bytes, via included"
        (J.to_string (Service.Server.handle_line preferred line))
        second;
      let entries srv =
        labelled_count (Service.Server.registry srv) "cxxlookup_table_entries"
          "session" session
      in
      Alcotest.(check bool) "the preferred backend compiled columns" true
        (entries preferred > 0);
      List.iter
        (fun srv ->
          Alcotest.(check int) "no columns where the session is not placed" 0
            (entries srv))
        others)

(* The routing decode reads a batch's op and session, not its queries:
   a batch whose queries array holds a malformed query is forwarded
   whole, and the backend's answer comes back; queries that are not an
   array the router answers itself.  Either way, the caller gets the
   bytes a backend gives the same line directly. *)
let test_router_malformed_batch_matches_direct () =
  let g = graph () in
  let session = "s" in
  with_backends g ~session (fun (s0, _, _) addrs ->
      with_router_t ~leader:0 addrs @@ fun rt ->
      let cl = Net.Client.connect (Cluster.Router.bound_addr rt) in
      Fun.protect ~finally:(fun () -> Net.Client.close cl) @@ fun () ->
      List.iter
        (fun (queries, forwarded) ->
          let line =
            Printf.sprintf
              {|{"id":5,"op":"batch_lookup","session":"s","queries":%s}|}
              queries
          in
          let before = router_round_trips rt in
          let routed =
            match Net.Client.request cl line with
            | Some resp -> resp
            | None -> Alcotest.fail "router closed the connection"
          in
          Alcotest.(check string) line
            (J.to_string (Service.Server.handle_line s0 line))
            routed;
          Alcotest.(check int) (line ^ ": backend round trips")
            (if forwarded then before + 1 else before)
            (router_round_trips rt))
        [ ({|[1]|}, true);
          ({|[{"class":"A","member":"m"},{"class":1,"member":"m"}]|}, true);
          ({|[{"class":"A"}]|}, true);
          ({|[{"member":"m","class":"A"},"x"]|}, true);
          ({|{"class":"A","member":"m"}|}, false);
          ({|"queries"|}, false);
          ({|7|}, false) ])

let test_router_forwards_mutations_to_leader () =
  let g = graph () in
  with_backends g ~session:"s" (fun (s0, s1, s2) addrs ->
      with_router ~leader:0 addrs @@ fun raddr ->
      let cl = Net.Client.connect raddr in
      let line =
        J.to_string
          (J.Obj
             [ ("id", J.Int 1); ("op", J.String "mutate");
               ("session", J.String "s");
               ( "add_member",
                 J.Obj
                   [ ("class", J.String "A");
                     ("member", J.Obj [ ("name", J.String "routed") ]) ] ) ])
      in
      (match Net.Client.request cl line with
      | Some resp ->
        (match J.of_string resp with
        | Ok j when resp_ok j -> ()
        | _ -> Alcotest.failf "forwarded mutation failed: %s" resp)
      | None -> Alcotest.fail "router closed the connection");
      Net.Client.close cl;
      Alcotest.(check int) "leader advanced" 1 (session_epoch s0 "s");
      Alcotest.(check int) "replica 1 untouched" 0 (session_epoch s1 "s");
      Alcotest.(check int) "replica 2 untouched" 0 (session_epoch s2 "s"))

let test_router_fails_over_and_reports_unavailable () =
  let g = graph () in
  let session = "f" in
  let srv = Service.Server.create () in
  Alcotest.(check bool) "open" true
    (resp_ok (Service.Server.handle_request srv (open_request ~session g)));
  (* backend 1 exists; backend 2 is a dead address: reads must fail
     over to the live one, and once the live one is gone too the
     answer is an explicit backend_unavailable *)
  let dead =
    (* bind and immediately close: a port that refuses connections *)
    let fd, bound = Net.Server.listen_on (Net.Server.Tcp ("127.0.0.1", 0)) in
    Unix.close fd;
    bound
  in
  let config =
    { Cluster.Router.default_config with retries = 0; backoff_ms = 10 }
  in
  with_net srv @@ fun live ->
  with_router ~config ~leader:0 [ live; dead ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  let q = batch_line ~session ~id:5 [ ("C", "m") ] in
  (match Net.Client.request cl q with
  | Some resp ->
    (match J.of_string resp with
    | Ok j when resp_ok j -> ()
    | _ -> Alcotest.failf "failover read failed: %s" resp)
  | None -> Alcotest.fail "router closed the connection");
  Net.Client.close cl;
  (* now both dead: a fresh router over two dead addresses *)
  with_router ~config ~leader:0 [ dead; dead ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  (match Net.Client.request cl q with
  | Some resp ->
    (match J.of_string resp with
    | Ok j ->
      Alcotest.(check string) "explicit unavailable" "backend_unavailable"
        (resp_error_code j)
    | Error e -> Alcotest.failf "unparseable: %s" e)
  | None -> Alcotest.fail "router closed the connection");
  Net.Client.close cl

(* ---- the router's 1b path ------------------------------------------- *)

module F = Service.Frame

let frame_of ~id ~session op =
  F.encode_request { F.fr_id = id; fr_session = session; fr_op = op }

let decode_frame ~op resp =
  match F.decode_response ~op resp with
  | Ok r -> r
  | Error e -> Alcotest.failf "undecodable response frame: %s" e

let routed_frame cl f =
  match Net.Client.request_frame cl f with
  | Some resp -> resp
  | None -> Alcotest.fail "router closed the connection"

(* (class id, member id) for every pair of [srv]'s session, by asking it
   for its symbols directly *)
let id_pairs srv ~session =
  match
    decode_frame ~op:F.op_symbols
      (Service.Server.handle_frame srv (frame_of ~id:0 ~session F.Symbols))
  with
  | _, F.Ok_symbols { os_classes; os_members; _ } ->
    List.concat_map
      (fun c -> List.init (Array.length os_members) (fun m -> (c, m)))
      (List.init (Array.length os_classes) Fun.id)
  | _ -> Alcotest.fail "symbols did not answer Ok_symbols"

let test_router_frames_match_backend () =
  let g = graph () in
  with_backends g ~session:"s" (fun (s0, s1, s2) addrs ->
      with_router ~leader:0 addrs @@ fun raddr ->
      let cl = Net.Client.connect raddr in
      let pairs = id_pairs s0 ~session:"s" in
      (* lookups: the router's answer is the backend's answer *)
      List.iteri
        (fun k (c, m) ->
          let f =
            frame_of ~id:(100 + k) ~session:"s"
              (F.Lookup { lk_class = c; lk_member = m })
          in
          let routed = decode_frame ~op:F.op_lookup (routed_frame cl f) in
          let direct =
            decode_frame ~op:F.op_lookup (Service.Server.handle_frame s0 f)
          in
          match (routed, direct) with
          | (rid, F.Ok_lookup a), (_, F.Ok_lookup b) ->
            Alcotest.(check int) "lookup id echoed" (100 + k) rid;
            if a <> b then
              Alcotest.failf "lookup(%d, %d): routed %d, backend %d" c m a b
          | _ -> Alcotest.failf "lookup(%d, %d) did not answer Ok_lookup" c m)
        pairs;
      (* one batch frame over every pair *)
      let f =
        frame_of ~id:7 ~session:"s" (F.Batch_lookup (Array.of_list pairs))
      in
      (match
         ( decode_frame ~op:F.op_batch_lookup (routed_frame cl f),
           decode_frame ~op:F.op_batch_lookup
             (Service.Server.handle_frame s0 f) )
       with
      | (7, (F.Ok_batch _ as a)), (_, (F.Ok_batch _ as b)) ->
        if a <> b then Alcotest.fail "routed batch differs from the backend's"
      | _ -> Alcotest.fail "batch did not answer Ok_batch under its id");
      (* an add_member frame is forwarded to the leader only *)
      let a = match G.find_opt g "A" with Some c -> c | None -> assert false in
      let f =
        frame_of ~id:8 ~session:"s"
          (F.Add_member { am_class = a; am_member = G.member "framed" })
      in
      (match decode_frame ~op:F.op_add_member (routed_frame cl f) with
      | 8, F.Ok_add_member { oam_epoch = 1; _ } -> ()
      | _ -> Alcotest.fail "forwarded add_member frame failed");
      Net.Client.close cl;
      Alcotest.(check int) "leader advanced" 1 (session_epoch s0 "s");
      Alcotest.(check int) "replica 1 untouched" 0 (session_epoch s1 "s");
      Alcotest.(check int) "replica 2 untouched" 0 (session_epoch s2 "s"))

(* A frame read for a session only the leader has: whichever backend the
   router prefers, the caller gets the leader's answer — through the
   replica's unknown_session and the one leader retry when the replica
   comes first.  Session names are tried until one does prefer the
   replica (placement hashes the ephemeral port, so which names do is
   only known at run time). *)
let test_router_frame_leader_retry () =
  let g = graph () in
  let leader = Service.Server.create () in
  let replica = Service.Server.create () in
  with_net leader @@ fun la ->
  with_net replica @@ fun ra ->
  with_router ~leader:0 [ la; ra ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  let replica_misses () =
    labelled_count
      (Service.Server.registry replica)
      "cxxlookup_server_errors_total" "code" "unknown_session"
  in
  let rec try_session k =
    if k = 64 then Alcotest.fail "no session name preferred the replica"
    else begin
      let session = Printf.sprintf "only-leader-%d" k in
      if not (resp_ok (Service.Server.handle_request leader (open_request ~session g)))
      then Alcotest.fail "leader open failed";
      let f =
        frame_of ~id:(500 + k) ~session (F.Lookup { lk_class = 0; lk_member = 0 })
      in
      let before = replica_misses () in
      let routed = decode_frame ~op:F.op_lookup (routed_frame cl f) in
      let direct =
        decode_frame ~op:F.op_lookup (Service.Server.handle_frame leader f)
      in
      (match (routed, direct) with
      | (rid, F.Ok_lookup a), (_, F.Ok_lookup b) when rid = 500 + k && a = b -> ()
      | _ -> Alcotest.failf "session %s: routed answer is not the leader's" session);
      if replica_misses () = before then try_session (k + 1)
    end
  in
  try_session 0;
  Net.Client.close cl

let test_router_frame_unavailable () =
  let dead =
    let fd, bound = Net.Server.listen_on (Net.Server.Tcp ("127.0.0.1", 0)) in
    Unix.close fd;
    bound
  in
  let config =
    { Cluster.Router.default_config with retries = 0; backoff_ms = 10 }
  in
  with_router ~config ~leader:0 [ dead; dead ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  let f = frame_of ~id:4242 ~session:"s" (F.Lookup { lk_class = 0; lk_member = 0 }) in
  (match decode_frame ~op:F.op_lookup (routed_frame cl f) with
  | 4242, F.Err (P.Backend_unavailable, _) -> ()
  | id, _ ->
    Alcotest.failf "expected backend_unavailable under id 4242, got id %d" id);
  Net.Client.close cl

(* The router's own error frames copy the request's 8 id bytes, like
   the backends' answers: an [int] cannot hold ids outside ±2^62. *)
let test_router_frame_errors_echo_id_bytes () =
  let dead =
    let fd, bound = Net.Server.listen_on (Net.Server.Tcp ("127.0.0.1", 0)) in
    Unix.close fd;
    bound
  in
  let config =
    { Cluster.Router.default_config with retries = 0; backoff_ms = 10 }
  in
  with_router ~config ~leader:0 [ dead; dead ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  List.iter
    (fun id ->
      let with_id f =
        let b = Bytes.of_string f in
        Bytes.set_int64_le b F.header_len id;
        b
      in
      let lookup =
        with_id (frame_of ~id:0 ~session:"s" (F.Lookup { lk_class = 0; lk_member = 0 }))
      in
      (* one byte past the pair: a shape the router answers itself *)
      let trailing = Bytes.cat lookup (Bytes.make 1 '\000') in
      Bytes.set_int32_le trailing 2
        (Int32.of_int (Bytes.length trailing - F.header_len));
      List.iter
        (fun (what, req, code) ->
          let resp = routed_frame cl (Bytes.to_string req) in
          Alcotest.(check string)
            (Printf.sprintf "%s %Lx: id bytes" what id)
            (Bytes.sub_string req F.header_len 8)
            (String.sub resp F.header_len 8);
          match F.decode_response ~op:F.op_lookup resp with
          | Ok (_, F.Err (c, _)) when c = code -> ()
          | _ -> Alcotest.failf "%s %Lx: not the expected error frame" what id)
        [ ("backend_unavailable", lookup, P.Backend_unavailable);
          ("bad_request", trailing, P.Bad_request) ])
    [ 0x4000000000000001L; 0x8000000000000000L ];
  Net.Client.close cl

(* ---- the router's connection guards --------------------------------- *)

let must_request cl line =
  match Net.Client.request cl line with
  | Some resp ->
    (match J.of_string resp with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparseable response %S: %s" resp e)
  | None -> Alcotest.fail "router closed the connection"

let resp_error_message j =
  match J.member "error" j with
  | Ok e -> (match J.member "message" e with Ok (J.String s) -> s | _ -> "?")
  | Error _ -> "?"

let small_guards =
  { Cluster.Router.default_config with
    retries = 0; backoff_ms = 10; max_line = 128; idle_timeout = 0.3 }

(* one live backend holding [graph ()] under "s" *)
let with_one_backend ?config k =
  let srv = Service.Server.create () in
  if not (resp_ok (Service.Server.handle_request srv (open_request (graph ()))))
  then Alcotest.fail "backend open failed";
  with_net ?config srv (fun addr -> k srv addr)

let test_router_oversized_line () =
  with_one_backend @@ fun _ addr ->
  with_router ~config:small_guards ~leader:0 [ addr ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  let j = must_request cl (String.make 4096 'x') in
  Alcotest.(check string) "answered bad_request" "bad_request" (resp_error_code j);
  Alcotest.(check string) "the server's text" "line exceeds 128 bytes (4096 read)"
    (resp_error_message j);
  let j = must_request cl {|{"id":7,"op":"stats","session":"s"}|} in
  Alcotest.(check bool) "connection alive after an oversized line" true (resp_ok j);
  Net.Client.close cl

let test_router_oversized_frame () =
  with_one_backend @@ fun _ addr ->
  with_router ~config:small_guards ~leader:0 [ addr ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  (* a well-formed lookup frame whose payload outgrows the bound: the
     router must skip it by its declared length, not read it as lines *)
  let f =
    frame_of ~id:3 ~session:(String.make 300 's')
      (F.Lookup { lk_class = 0; lk_member = 0 })
  in
  let declared = String.length f - F.header_len in
  (match decode_frame ~op:F.op_lookup (routed_frame cl f) with
  | 0, F.Err (P.Bad_request, msg) ->
    Alcotest.(check string) "the server's text"
      (Printf.sprintf "frame payload exceeds 128 bytes (%d declared)" declared)
      msg
  | _ -> Alcotest.fail "oversized frame not answered bad_request");
  let j = must_request cl {|{"id":8,"op":"stats","session":"s"}|} in
  Alcotest.(check bool) "stream in step after the skipped frame" true (resp_ok j);
  Net.Client.close cl

let test_router_dribble_times_out () =
  with_one_backend @@ fun _ addr ->
  with_router_t ~config:small_guards ~leader:0 [ addr ] @@ fun rt ->
  let cl = Net.Client.connect (Cluster.Router.bound_addr rt) in
  Alcotest.(check bool) "complete request answered" true
    (resp_ok (must_request cl {|{"id":1,"op":"stats","session":"s"}|}));
  (* a partial line, then the same bytes trickled: the deadline is not
     re-armed by bytes, only by complete messages *)
  Net.Client.send_raw cl {|{"id":2,|};
  Thread.delay 0.15;
  Net.Client.send_raw cl {|"op":|};
  Alcotest.(check (option string)) "closed at the deadline" None
    (Net.Client.recv_line cl);
  Net.Client.close cl;
  Alcotest.(check bool) "timeout counted" true
    (wait_until ~timeout:2. (fun () ->
         router_count rt "cxxlookup_router_connections_timed_out_total" = 1))

let test_router_max_conns () =
  with_one_backend @@ fun _ addr ->
  let config = { small_guards with max_conns = 1; idle_timeout = 10. } in
  with_router_t ~config ~leader:0 [ addr ] @@ fun rt ->
  let raddr = Cluster.Router.bound_addr rt in
  let first = Net.Client.connect raddr in
  Alcotest.(check bool) "first connection served" true
    (resp_ok (must_request first {|{"id":1,"op":"stats","session":"s"}|}));
  let second = Net.Client.connect raddr in
  (match Net.Client.recv_line second with
  | Some line ->
    (match J.of_string line with
    | Ok j ->
      Alcotest.(check string) "refused in-band" "overloaded" (resp_error_code j);
      Alcotest.(check string) "the server's text" "connection limit reached (1)"
        (resp_error_message j)
    | Error e -> Alcotest.failf "unparseable refusal: %s" e)
  | None -> Alcotest.fail "refused without an answer");
  Alcotest.(check (option string)) "then closed" None (Net.Client.recv_line second);
  Net.Client.close second;
  Alcotest.(check int) "refusal counted" 1
    (router_count rt "cxxlookup_router_connections_refused_total");
  Alcotest.(check bool) "the first connection is unaffected" true
    (resp_ok (must_request first {|{"id":2,"op":"stats","session":"s"}|}));
  Net.Client.close first

(* A backend stand-in that records each line it receives and answers
   [{"id":0,"ok":true}]: what the router forwards, byte for byte. *)
let with_recording_backend k =
  let listen_fd, addr = Net.Server.listen_on (Net.Server.Tcp ("127.0.0.1", 0)) in
  let seen = ref [] and m = Mutex.create () and stop = Atomic.make false in
  let serve fd =
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    (try
       while true do
         match In_channel.input_line ic with
         | None -> raise Exit
         | Some line ->
           Mutex.protect m (fun () -> seen := line :: !seen);
           output_string oc "{\"id\":0,\"ok\":true}\n";
           flush oc
       done
     with Exit | Sys_error _ | Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let th =
    Thread.create
      (fun () ->
        Net.Server.accept_loop ~stop listen_fd addr (fun fd ->
            ignore (Thread.create serve fd)))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th)
    (fun () -> k addr (fun () -> Mutex.protect m (fun () -> List.rev !seen)))

let test_router_open_forwards_callers_bytes () =
  with_recording_backend @@ fun leader seen_leader ->
  with_recording_backend @@ fun replica seen_replica ->
  with_router ~leader:0 [ leader; replica ] @@ fun raddr ->
  let cl = Net.Client.connect raddr in
  (* spacing no encoder would produce: forwarding must not re-encode *)
  let lines =
    [ {|{ "id" : 1 , "op":"open", "session":"a",  "chg" : {"format":"x","classes":[ {"name":"A"} ]} }|};
      {|{"id":2,"op":"open","session":"b","source":"struct A { int m; };\n"  }|} ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) "answered" true (resp_ok (must_request cl line)))
    lines;
  Net.Client.close cl;
  Alcotest.(check (list string)) "the leader got the caller's bytes" lines
    (seen_leader ());
  Alcotest.(check (list string)) "the replica got nothing" [] (seen_replica ())

(* A pooled backend connection closed by the backend's idle timeout is
   redialed before anything is sent on it: the mutation after the
   silence applies exactly once, and nothing fails over or is reported
   unavailable. *)
let test_router_redials_idle_closed_slot () =
  let config = { Net.Server.default_config with idle_timeout = 0.2 } in
  with_one_backend ~config @@ fun srv addr ->
  let replica = Service.Server.create () in
  if not (resp_ok (Service.Server.handle_request replica (open_request (graph ()))))
  then Alcotest.fail "replica open failed";
  with_net ~config replica @@ fun raddr_replica ->
  with_router_t ~leader:0 [ addr; raddr_replica ] @@ fun rt ->
  let cl = Net.Client.connect (Cluster.Router.bound_addr rt) in
  let lookup = {|{"id":1,"op":"lookup","session":"s","class":"C","member":"m"}|} in
  let mutate =
    {|{"id":2,"op":"mutate","session":"s","add_member":{"class":"A","member":{"name":"late"}}}|}
  in
  Alcotest.(check bool) "read before the silence" true (resp_ok (must_request cl lookup));
  Alcotest.(check bool) "mutation before the silence" true
    (resp_ok (must_request cl mutate));
  Thread.delay 0.5;  (* both backends close the router's idle slots *)
  let mutate' =
    {|{"id":3,"op":"mutate","session":"s","add_member":{"class":"A","member":{"name":"later"}}}|}
  in
  Alcotest.(check bool) "mutation after the silence" true
    (resp_ok (must_request cl mutate'));
  Alcotest.(check bool) "read after the silence" true (resp_ok (must_request cl lookup));
  Net.Client.close cl;
  Alcotest.(check int) "each mutation applied exactly once" 2 (session_epoch srv "s");
  Alcotest.(check int) "no failover" 0
    (router_count rt "cxxlookup_router_failovers_total");
  Alcotest.(check int) "nothing unavailable" 0
    (router_count rt "cxxlookup_router_unavailable_total")

let suite =
  [ Alcotest.test_case "wal tail: concurrent append" `Quick
      test_tail_concurrent_append;
    Alcotest.test_case "wal tail: torn frame completes" `Quick
      test_tail_completes_torn_frame;
    Alcotest.test_case "wal tail: shrink = reset" `Quick
      test_tail_reset_on_shrink;
    Alcotest.test_case "client backoff bounds" `Quick test_backoff_bounds;
    Alcotest.test_case "client connect retries" `Quick
      test_connect_retries_until_listener_appears;
    QCheck_alcotest.to_alcotest prop_b64_roundtrip;
    Alcotest.test_case "wire hello roundtrip" `Quick test_hello_roundtrip;
    Alcotest.test_case "wire wal roundtrip" `Quick test_wal_line_roundtrip;
    Alcotest.test_case "follower rejects mutations" `Quick
      test_follower_rejects_mutations;
    Alcotest.test_case "replicated apply rejects gaps" `Quick
      test_apply_replicated_gap_rejected;
    Alcotest.test_case "replication catch-up + restart" `Quick
      test_replication_catch_up_and_restart;
    QCheck_alcotest.to_alcotest prop_routed_batch_matches_oracle;
    Alcotest.test_case "router forwards mutations to leader" `Quick
      test_router_forwards_mutations_to_leader;
    Alcotest.test_case "router failover + explicit unavailable" `Quick
      test_router_fails_over_and_reports_unavailable;
    Alcotest.test_case "router 1b frames = backend verdicts" `Quick
      test_router_frames_match_backend;
    Alcotest.test_case "router 1b leader retry on unknown_session" `Quick
      test_router_frame_leader_retry;
    Alcotest.test_case "router 1b backend_unavailable echoes id" `Quick
      test_router_frame_unavailable;
    Alcotest.test_case "router oversized line answers bad_request" `Quick
      test_router_oversized_line;
    Alcotest.test_case "router oversized frame skipped by length" `Quick
      test_router_oversized_frame;
    Alcotest.test_case "router dribbling client times out" `Quick
      test_router_dribble_times_out;
    Alcotest.test_case "router max_conns refusal in-band" `Quick
      test_router_max_conns;
    Alcotest.test_case "router open by chg / source: caller's bytes to leader"
      `Quick test_router_open_forwards_callers_bytes;
    Alcotest.test_case "router redials a backend-closed idle slot" `Quick
      test_router_redials_idle_closed_slot;
    Alcotest.test_case "router 1b error frames echo id bytes" `Quick
      test_router_frame_errors_echo_id_bytes;
    Alcotest.test_case "router JSON batch: one read on the preferred backend"
      `Quick test_router_json_batch_is_one_read;
    Alcotest.test_case "router malformed batch = the backend's direct answer"
      `Quick test_router_malformed_batch_matches_direct ]
