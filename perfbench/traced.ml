(* The traced run: the workload's seeded stream replayed in-process
   through each layer's public functions, plus the few round trips that
   need real processes (net, router, replica).

   Two clocks are kept apart.  Per-layer metrics come from batched
   timing — one clock read before and after a chunk of calls — because
   many of these calls are shorter than the clock's overhead.  Spans
   (name, start, end, parent, request id) are recorded around each
   individual call in a separate traced pass; they give the self-time
   table and the per-request ledger, and the difference between the two
   passes is the tracing overhead.  Spans stay in memory and are written
   out when the run ends.  Nothing here adds a clock inside the
   program. *)

open Inputs
module S = Service.Server
module P = Service.Protocol
module F = Service.Frame
module Sess = Service.Session
module TC = Service.Table_cache

let now = Gen.now
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ---- spans ------------------------------------------------------------ *)

type span = { sp_name : string; sp_start : int; sp_end : int; sp_parent : int; sp_req : int }

let spans : span array ref = ref [||]
let n_spans = ref 0
let stack = ref []

let push sp =
  if !n_spans = Array.length !spans then begin
    let b = Array.make (max 4096 (2 * !n_spans)) sp in
    Array.blit !spans 0 b 0 !n_spans;
    spans := b
  end;
  !spans.(!n_spans) <- sp;
  incr n_spans

(* [span name ~req f] records [f]'s interval; spans opened inside it get
   it as parent.  The slot is reserved first so a parent's id is known
   to its children. *)
let span ?(req = -1) name f =
  let id = !n_spans in
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  push { sp_name = name; sp_start = 0; sp_end = 0; sp_parent = parent; sp_req = req };
  stack := id :: !stack;
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  stack := List.tl !stack;
  !spans.(id) <- { (!spans.(id)) with sp_start = t0; sp_end = t1 };
  x

(* Self time per span name: duration minus the part of it covered by
   direct children (children of one span never overlap here: the
   benchmark is single-threaded). *)
let self_times () =
  let n = !n_spans in
  let child = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.sp_parent >= 0 then
      child.(s.sp_parent) <- child.(s.sp_parent) + (s.sp_end - s.sp_start)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let total, self, calls =
      Option.value (Hashtbl.find_opt tbl s.sp_name) ~default:(0, 0, 0)
    in
    let d = s.sp_end - s.sp_start in
    Hashtbl.replace tbl s.sp_name (total + d, self + d - child.(i), calls + 1)
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let write_spans path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i s.sp_name s.sp_start s.sp_end
      s.sp_parent s.sp_req
  done;
  close_out oc

(* ---- timing helpers --------------------------------------------------- *)

let median l = E2e.median_f l

(* ns per call of [f i] over [i = 0 .. n-1], as the median of [reps]
   passes each timed between two clock reads. *)
let per_call ?(reps = 5) n f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         for i = 0 to n - 1 do
           f i
         done;
         float_of_int (now () - t0) /. float_of_int (max 1 n)))

let ms_of ns = ns /. 1e6

let time_ms ?(reps = 5) f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         ms_of (float_of_int (now () - t0))))

(* ---- serial round trips ----------------------------------------------- *)

(* The program's own blocking client, as a user's serial caller sees the
   net layer. *)
let client (host, port) = Net.Client.connect (Net.Server.Tcp (host, port))

let client_rt c (m : Gen.msg) =
  let answer =
    if String.starts_with ~prefix:"{" m.Gen.bytes then Net.Client.request c m.Gen.bytes
    else Net.Client.request_frame c m.Gen.bytes
  in
  match answer with
  | Some a -> a
  | None -> failwith "serial round trip: connection closed"

(* ---- the run ---------------------------------------------------------- *)

let run ~env ~seconds ~work t : E2e.metric list =
  ignore seconds;
  let binary = t.workload = Read_1b_wide in
  (* the wide workload's JSON path misses the column budget on most
     queries (the cliff it exists to show), so it replays fewer requests *)
  let requests = if binary then 256 else 4096 in
  let m = E2e.m in
  let g = t.graph in
  let session = "w" in
  let out = ref [] in
  let add name unit_ v = out := m name unit_ v :: !out in
  (* Chg: decode (what open does to the document) and closure *)
  add "chg.decode_ms" "ms"
    (time_ms (fun () ->
         match Chg.Json.of_string t.doc with
         | Ok j -> Chg.Serialize.of_json j
         | Error e -> Error e));
  add "chg.closure_ms" "ms" (time_ms (fun () -> Chg.Closure.compute g));
  let cl = Chg.Closure.compute g in
  (* Lookup_core.Packed: the whole table, and the one-read floor *)
  add "packed.build_ms" "ms" (time_ms ~reps:3 (fun () -> Lookup_core.Packed.build ~jobs:1 cl));
  let table = Lookup_core.Packed.build ~jobs:1 cl in
  let queries_of reqs =
    Array.concat (Array.to_list (Array.map (function Lookup p -> [| p |] | Batch ps -> ps) reqs))
  in
  let queries = queries_of (Array.sub t.stream 0 requests) in
  let nq = Array.length queries in
  let cols =
    Array.map
      (fun p ->
        let c, mi = t.pairs.(p) in
        match Lookup_core.Packed.find_column table t.members.(mi) with
        | Some col -> (col, c)
        | None -> failwith "packed table lacks a member column")
      queries
  in
  let sink = ref 0 in
  add "packed.resolve_ns" "ns"
    (per_call ~reps:9 nq (fun i ->
         let col, c = Array.unsafe_get cols i in
         sink := !sink + Lookup_core.Packed.column_resolve_code col c));
  (* an in-process server over the same hierarchy, warmed like the
     end-to-end run, answering both framings *)
  let srv = S.create () in
  ignore (S.handle_line srv (open_line ~session t));
  let member_id =
    Wire.member_ids_of_symbols t
      (Chg.Json.to_string (S.handle_line srv (Wire.symbols_line ~session)))
  in
  let stream = Array.sub t.stream requests requests in
  (* the JSON path on the wide workload is replayed over fewer requests *)
  let n_json = if binary then 32 else requests in
  let jstream = Array.sub stream 0 n_json in
  let lines = Array.map (req_line ~session t) jstream in
  let frames = Array.map (req_frame ~session ~member_id t) stream in
  let q_per_req reqs = float_of_int (Array.length (queries_of reqs)) /. float_of_int (Array.length reqs) in
  (* warm: the stream's first half, through the workload's framing *)
  Array.iteri
    (fun i r ->
      if i < requests then
        if binary then ignore (S.handle_frame srv (req_frame ~session ~member_id t r))
        else ignore (S.handle_line srv (req_line ~session t r)))
    t.stream;
  (* Service.Protocol *)
  let parse_ns = per_call n_json (fun i -> ignore (Sys.opaque_identity (P.parse_request lines.(i)))) in
  add "protocol.parse_ns" "ns" parse_ns;
  let docs = Array.map (S.handle_line srv) lines in
  let encode_ns = per_call n_json (fun i -> ignore (Sys.opaque_identity (Chg.Json.to_string docs.(i)))) in
  add "protocol.encode_ns" "ns" encode_ns;
  (* every in-process answer is checked against the oracle too *)
  let check (m : Gen.msg) resp = ignore (E2e.note (m.Gen.check resp)) in
  Array.iteri (fun i d -> check (Wire.json_msg t ~session jstream.(i)) (Chg.Json.to_string d)) docs;
  (* Service.Frame *)
  let bodies = Array.map (fun f -> (f, String.sub f F.header_len (String.length f - F.header_len))) frames in
  let decode_ns =
    per_call requests (fun i ->
        let f, body = bodies.(i) in
        match F.parse_header f with
        | Ok (op, _) -> ignore (Sys.opaque_identity (F.decode_request ~op body))
        | Error _ -> ())
  in
  add "frame.decode_ns" "ns" decode_ns;
  let resps =
    Array.mapi
      (fun i f ->
        let op = match stream.(i) with Lookup _ -> F.op_lookup | Batch _ -> F.op_batch_lookup in
        let answer = S.handle_frame srv f in
        check (Wire.frame_msg t ~session ~member_id stream.(i)) answer;
        match F.decode_response ~op answer with
        | Ok (_, r) -> r
        | Error e -> failwith e)
      frames
  in
  let fencode_ns = per_call requests (fun i -> ignore (Sys.opaque_identity (F.encode_response ~id:0 resps.(i)))) in
  add "frame.encode_ns" "ns" fencode_ns;
  (* Service.Server: whole handlers, and what they allocate *)
  let gc0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let handle_line_ns = per_call n_json (fun i -> ignore (Sys.opaque_identity (S.handle_line srv lines.(i)))) in
  let words_line = Gc.minor_words () -. words0 in
  let words1 = Gc.minor_words () in
  let handle_frame_ns = per_call requests (fun i -> ignore (Sys.opaque_identity (S.handle_frame srv frames.(i)))) in
  let words_frame = Gc.minor_words () -. words1 in
  let gc1 = Gc.quick_stat () in
  add "server.handle_line_ns" "ns" handle_line_ns;
  add "server.handle_frame_ns" "ns" handle_frame_ns;
  (* Service.Session, on twin sessions warmed the same way: one served
     by name (the JSON path), one by interned id (the 1b path) *)
  let twin () = Sess.create ~name:session g in
  let by_name = twin () and by_id = twin () in
  let pair_names = Array.map (fun (c, mi) -> (Chg.Graph.name g c, t.members.(mi))) t.pairs in
  let pair_ids =
    Array.map
      (fun (c, mi) ->
        match Sess.member_symbol by_id t.members.(mi) with
        | Some id -> (c, id)
        | None -> failwith "session lacks a member symbol")
      t.pairs
  in
  let warm_q = queries_of (Array.sub t.stream 0 requests) in
  let warm_json = queries_of (Array.sub t.stream 0 n_json) in
  Array.iter (fun p -> let c, mn = pair_names.(p) in ignore (Sess.lookup by_name c mn)) warm_json;
  Array.iter (fun p -> let c, id = pair_ids.(p) in ignore (Sess.lookup_code by_id ~cls:c ~member:id)) warm_q;
  let mq = queries_of stream and mq_json = queries_of jstream in
  (* the table cache is read on the session the workload's framing uses *)
  let cache_served = Sess.cache (if binary then by_id else by_name) in
  let counters_around f =
    let before = TC.counters cache_served in
    let x = f () in
    let after = TC.counters cache_served in
    (x, fun k -> List.assoc k after - List.assoc k before)
  in
  let lookup_ns, delta_name =
    counters_around (fun () ->
        per_call ~reps:1 (Array.length mq_json) (fun i ->
            let c, mn = pair_names.(mq_json.(i)) in
            ignore (Sys.opaque_identity (Sess.lookup by_name c mn))))
  in
  let lookup_code_ns, delta_code =
    counters_around (fun () ->
        per_call ~reps:1 (Array.length mq) (fun i ->
            let c, id = pair_ids.(mq.(i)) in
            ignore (Sys.opaque_identity (Sess.lookup_code by_id ~cls:c ~member:id))))
  in
  let delta = if binary then delta_code else delta_name in
  let served_q = Array.length (if binary then mq else mq_json) in
  add "session.lookup_ns" "ns" lookup_ns;
  add "session.lookup_code_ns" "ns" lookup_code_ns;
  let hits = delta "table_hits" and misses = delta "table_misses" in
  let per_1k x = float_of_int x *. 1000. /. float_of_int served_q in
  add "table_cache.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  add "table_cache.promotions_per_1k" "count/1k" (per_1k (delta "table_promotions"));
  add "table_cache.evictions_per_1k" "count/1k" (per_1k (delta "table_evictions"));
  (* what the handler does beyond codec and session: observe, error
     mapping, the follower gate, the response document *)
  let dispatch_self_ns =
    if binary then handle_frame_ns -. decode_ns -. fencode_ns -. (q_per_req stream *. lookup_code_ns)
    else handle_line_ns -. parse_ns -. (q_per_req jstream *. lookup_ns)
  in
  add "server.dispatch_self_ns" "ns" dispatch_self_ns;
  add "server.minor_words_per_lookup" "words/query"
    ((if binary then words_frame else words_line)
     /. float_of_int (5 * Array.length (if binary then mq else mq_json)));
  add "gc.major_per_1k_req" "count/1k"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
     *. 1000. /. float_of_int (5 * (n_json + requests)));
  (* the mutation path, on a fresh twin session *)
  let ws = Array.of_list (writes t 24) in
  let mut = twin () in
  Array.iter (fun p -> let c, mn = pair_names.(p) in ignore (Sess.lookup mut c mn)) warm_json;
  let add_member = ref [] and add_class = ref [] and post = ref [] in
  Array.iter
    (fun w ->
      let t0 = now () in
      (match w with
      | W_member { w_class; w_name } ->
        ignore (Sess.add_member mut ~cls:(Chg.Graph.name g w_class) (Chg.Graph.member w_name));
        add_member := ms_of (float_of_int (now () - t0)) :: !add_member
      | W_class { w_name; w_base; w_member } ->
        ignore
          (Sess.add_class mut ~cls:w_name
             ~bases:[ (Chg.Graph.name g w_base, Chg.Graph.Non_virtual, Chg.Graph.Public) ]
             ~members:[ Chg.Graph.member w_member ]);
        add_class := ms_of (float_of_int (now () - t0)) :: !add_class);
      let cls, member = write_pair t w in
      let t1 = now () in
      ignore (Sys.opaque_identity (Sess.lookup mut cls member));
      post := float_of_int (now () - t1) /. 1e3 :: !post)
    ws;
  add "session.add_member_ms" "ms" (median !add_member);
  add "session.add_class_ms" "ms" (median !add_class);
  add "session.post_mutation_lookup_us" "us" (median !post);
  (* Store: snapshot, WAL append, recovery and replay *)
  let sdir = E2e.fresh env "trace-store" in
  let st = Store.open_dir sdir in
  let fresh = twin () in
  Array.iter (fun p -> let c, mn = pair_names.(p) in ignore (Sess.lookup fresh c mn)) warm_json;
  let snap =
    { Store.Snapshot.s_session = session; s_epoch = 0; s_protocol = P.version;
      s_graph = g; s_columns = Sess.compiled_columns fresh }
  in
  add "store.write_snapshot_ms" "ms" (time_ms ~reps:3 (fun () -> Store.write_snapshot st snap));
  let nlog = 64 in
  let fsyncs () = List.assoc "store_wal_fsyncs" (Store.counters st) in
  let f0 = fsyncs () in
  let logged =
    List.mapi
      (fun i w ->
        let t0 = now () in
        Store.log_mutation st ~session ~epoch:(i + 1) (store_mutation t w);
        float_of_int (now () - t0) /. 1e3)
      (writes t nlog)
  in
  add "store.log_mutation_us" "us" (median logged);
  add "store.fsyncs_per_mutation" "count" (float_of_int (fsyncs () - f0) /. float_of_int nlog);
  Store.sync st;
  let recover_ms = time_ms ~reps:3 (fun () -> Store.recover st session) in
  add "store.recover_ms" "ms" recover_ms;
  let replay =
    List.init 3 (fun _ ->
        let s = S.create ~store:st () in
        let t0 = now () in
        let r = S.recover_sessions s in
        let dt = ms_of (float_of_int (now () - t0)) in
        match r with
        | [ S.Recovered { r_replayed; _ } ] when r_replayed > 0 ->
          (dt -. recover_ms) /. float_of_int r_replayed
        | _ -> failwith "store replay did not recover the session")
  in
  add "store.replay_ms_per_record" "ms" (median replay);
  Store.close st;
  (* the untraced and traced passes make the same calls over the same
     requests; only the traced one records spans and per-part clocks *)
  let part = Array.make_matrix requests 4 0 in
  let pass ~traced =
    let sp name i f = if traced then span ~req:i name f else f () in
    let clock () = if traced then now () else 0 in
    let t0 = now () in
    for i = 0 to requests - 1 do
      sp "request" i (fun () ->
          let a = clock () in
          (if binary then
             sp "frame.decode" i (fun () ->
                 let f, body = bodies.(i) in
                 match F.parse_header f with
                 | Ok (op, _) -> ignore (F.decode_request ~op body)
                 | Error _ -> ())
           else sp "protocol.parse" i (fun () -> ignore (P.parse_request lines.(i))));
          let b = clock () in
          let qs = match stream.(i) with Lookup p -> [| p |] | Batch ps -> ps in
          Array.iter
            (fun p ->
              if binary then
                sp "session.lookup_code" i (fun () ->
                    let c, id = pair_ids.(p) in
                    ignore (Sess.lookup_code by_id ~cls:c ~member:id))
              else
                sp "session.lookup" i (fun () ->
                    let c, mn = pair_names.(p) in
                    ignore (Sess.lookup by_name c mn)))
            qs;
          let c = clock () in
          if binary then sp "server.handle_frame" i (fun () -> ignore (S.handle_frame srv frames.(i)))
          else begin
            let doc = sp "server.handle_line" i (fun () -> S.handle_line srv lines.(i)) in
            let d = clock () in
            sp "protocol.encode" i (fun () -> ignore (Chg.Json.to_string doc));
            if traced then part.(i).(3) <- clock () - d
          end;
          let d = clock () in
          if binary then sp "frame.encode" i (fun () -> ignore (F.encode_response ~id:0 resps.(i)));
          if traced then begin
            part.(i).(0) <- b - a;
            part.(i).(1) <- c - b;
            (* the handler, less the JSON encode recorded separately *)
            part.(i).(2) <- (if binary then d - c else d - c - part.(i).(3));
            if binary then part.(i).(3) <- clock () - d
          end)
    done;
    now () - t0
  in
  (* untraced passes on both sides, so warming favours neither *)
  let u1 = pass ~traced:false in
  let traced = pass ~traced:true in
  let untraced = (u1 + pass ~traced:false) / 2 in
  let overhead_ns = float_of_int (traced - untraced) /. float_of_int requests in
  (* Net, against the real server: serial round trips of the same
     requests *)
  let p = Proc.spawn ~bin:env.E2e.bin ~log:(E2e.fresh env "trace-serve" ^ ".log")
      [ "serve"; "--listen"; "127.0.0.1:0" ] in
  let addr = Proc.announced p "listening on " in
  let c = Gen.connect addr in
  Wire.open_session c t ~session;
  let live_ids = Wire.member_ids c t ~session in
  Gen.close c;
  let msg r =
    if binary then Wire.frame_msg t ~session ~member_id:live_ids r
    else Wire.json_msg t ~session r
  in
  let c = client addr in
  Array.iteri (fun i r -> if i < requests then ignore (client_rt c (msg r))) t.stream;
  let rtt = Array.make requests 0 in
  Array.iteri
    (fun i r ->
      let m' = msg r in
      span ~req:i "net.round_trip" (fun () ->
          let t0 = now () in
          check m' (client_rt c m');
          rtt.(i) <- now () - t0))
    stream;
  Net.Client.close c;
  Proc.kill p;
  (* the server's in-process cost of a request: its handler plus, for
     JSON, the response encode the net layer performs *)
  let handle_of i = part.(i).(2) + (if binary then 0 else part.(i).(3)) in
  let net_i = Array.init requests (fun i -> rtt.(i) - handle_of i) in
  let med a = E2e.median_f (Array.to_list (Array.map float_of_int a)) in
  add "net.overhead_us" "us" (med net_i /. 1e3);
  (* Cluster: the router hop, and a replica's bootstrap *)
  let ldir = E2e.fresh env "trace-leader" in
  let leader = E2e.spawn env "trace-leader"
      [ "serve"; "--listen"; "127.0.0.1:0"; "--store"; ldir; "--replicate-listen"; "127.0.0.1:0" ] in
  let laddr = Proc.announced leader "listening on " in
  let rh, rp = Proc.announced leader "replicating on " in
  let start_replica () =
    E2e.spawn env "trace-replica"
      [ "replica"; "--follow"; Printf.sprintf "%s:%d" rh rp; "--store"; E2e.fresh env "trace-replica-store";
        "--listen"; "127.0.0.1:0" ]
  in
  let replica = start_replica () in
  let raddr = Proc.announced replica "replica listening on " in
  let router = E2e.spawn env "trace-router"
      [ "router"; "--backend"; Printf.sprintf "%s:%d" (fst laddr) (snd laddr);
        "--backend"; Printf.sprintf "%s:%d" (fst raddr) (snd raddr); "--listen"; "127.0.0.1:0" ] in
  let front = Proc.announced router "routing on " in
  let on_leader = (E2e.spread_sessions laddr raddr).(0) in
  (* the hop is timed in the workload's framing; the router forwards
     1b frames whole *)
  let rc = Gen.connect front in
  Wire.open_session rc t ~session:on_leader;
  let jmsg r = Wire.json_msg t ~session:on_leader r in
  let cmsg =
    if binary then
      let ids = Wire.member_ids rc t ~session:on_leader in
      fun r -> Wire.frame_msg t ~session:on_leader ~member_id:ids r
    else jmsg
  in
  let framing = if binary then Gen.Frame else Gen.Json in
  Gen.close rc;
  let probe = Gen.connect ~framing front in
  Wire.first_correct probe (cmsg (Lookup 0));
  Gen.close probe;
  let rc = client front and dc = client laddr in
  let hops = 512 in
  let counts0 = E2e.backend_counts front [ laddr; raddr ] in
  Array.iteri (fun i r -> if i < hops then (ignore (client_rt rc (cmsg r)); ignore (client_rt dc (cmsg r)))) t.stream;
  let routed = ref [] and direct = ref [] in
  for k = 0 to hops - 1 do
    let r = t.stream.(k) in
    let time conn name acc =
      span ~req:k name (fun () ->
          let m = cmsg r in
          let t0 = now () in
          check m (client_rt conn m);
          acc := float_of_int (now () - t0) :: !acc)
    in
    (* alternate the order so drift hits both sides alike *)
    if k land 1 = 0 then (time rc "router.round_trip" routed; time dc "direct.round_trip" direct)
    else (time dc "direct.round_trip" direct; time rc "router.round_trip" routed)
  done;
  (* the hop compares like with like only if the router sent the
     session's reads to the leader *)
  (match List.map2 ( - ) (E2e.backend_counts front [ laddr; raddr ]) counts0 with
  | [ on_l; _ ] when on_l >= 2 * hops -> ()
  | _ -> raise (Wire.Setup_failed "the router did not place the timed session on the leader"));
  add "router.hop_us" "us" ((median !routed -. median !direct) /. 1e3);
  Net.Client.close rc;
  Net.Client.close dc;
  Proc.kill ~signal:Sys.sigkill replica;
  let boots =
    List.init 3 (fun _ ->
        let t0 = now () in
        let rep = start_replica () in
        let a = Proc.announced rep "replica listening on " in
        let c = Gen.connect a in
        Wire.first_correct c (jmsg (Lookup 0));
        let dt = ms_of (float_of_int (now () - t0)) in
        Gen.close c;
        Proc.kill ~signal:Sys.sigkill rep;
        dt)
  in
  add "repl.bootstrap_ms" "ms" (median boots);
  List.iter (fun q -> Proc.kill q) [ router; leader ];
  add "trace.overhead_ns_per_req" "ns" overhead_ns;
  (* reports *)
  say "layer self time (traced pass, %d requests; spans written to %s):" requests
    (Filename.concat work (Printf.sprintf "spans-%s-seed%d.tsv" (workload_name t.workload) t.seed));
  List.iter
    (fun (name, (total, self, calls)) ->
      say "  %-22s calls %7d  total %10.3f ms  self %10.3f ms  self/call %9.1f ns" name calls
        (ms_of (float_of_int total)) (ms_of (float_of_int self))
        (float_of_int self /. float_of_int (max 1 calls)))
    (self_times ());
  let col k = med (Array.map (fun r -> r.(k)) part) in
  let rtt_m = med rtt and net_m = med net_i in
  let codec_m = med (Array.map (fun r -> r.(0) + r.(3)) part) in
  let sess_m = col 1 in
  let disp_m =
    med (Array.init requests (fun i ->
        handle_of i - part.(i).(0) - part.(i).(1) - part.(i).(3)))
  in
  say "per-request ledger (medians over %d requests, %s framing, us):" requests
    (if binary then "1b" else "JSON");
  say "  client round trip            %9.2f" (rtt_m /. 1e3);
  say "    net.overhead               %9.2f" (net_m /. 1e3);
  say "    handle: codec              %9.2f" (codec_m /. 1e3);
  say "    handle: session            %9.2f" (sess_m /. 1e3);
  say "    handle: dispatch_self      %9.2f" (disp_m /. 1e3);
  say "  residual (unattributed)      %9.2f" ((rtt_m -. net_m -. codec_m -. sess_m -. disp_m) /. 1e3);
  say "tracing overhead: %.1f ns per request (traced pass %.2f ms, untraced pass %.2f ms)"
    overhead_ns (ms_of (float_of_int traced)) (ms_of (float_of_int untraced));
  ignore !sink;
  Proc.mkdir_p work;
  write_spans (Filename.concat work (Printf.sprintf "spans-%s-seed%d.tsv" (workload_name t.workload) t.seed));
  List.rev !out
