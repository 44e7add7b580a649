module J = Chg.Json
module G = Chg.Graph
module P = Protocol

(* Connection-level accounting for the networked front end (lib/net).
   The record lives here — not in lib/net — so the series are part of
   every server's registry and the `metrics`/`stats` verbs report them
   deterministically (all zero) in stdin/stdout mode too. *)
type net_stats = {
  net_active : int Atomic.t;  (* connections currently open *)
  net_admitted : int Atomic.t;  (* requests admitted, not yet answered *)
  net_accepted : Telemetry.Counter.t;
  net_closed : Telemetry.Counter.t;
  net_timed_out : Telemetry.Counter.t;  (* idle + slowloris closes *)
  net_overloaded : Telemetry.Counter.t;  (* explicit overload rejections *)
}

(* A [Follower] serves the read-only verbs only: every mutating verb is
   answered [not_leader], and its sessions change exclusively through
   the replication applier ({!install_snapshot} / {!apply_replicated}),
   which mirrors the leader's snapshot + WAL stream. *)
type role = Leader | Follower

type t = {
  role : role;
  config : Session.config;
  store : Store.t option;  (* durability, when serving --store *)
  sessions : (string, Session.t) Hashtbl.t;
  mutable session_order : string list;  (* open order, for stats *)
  mutable next_session : int;
  sink : Telemetry.Sink.t;
  spans : Telemetry.Span.t;
  requests : Telemetry.Counter.t;
  errors : Telemetry.Counter.t;
  sessions_opened : Telemetry.Counter.t;
  sessions_closed : Telemetry.Counter.t;
  lookups : Telemetry.Counter.t;
  batch_requests : Telemetry.Counter.t;
  batch_queries : Telemetry.Counter.t;
  mutations : Telemetry.Counter.t;
  lints : Telemetry.Counter.t;
  (* request-level observability *)
  registry : Telemetry.Registry.t;
  start_ns : int;
  mutable next_seq : int;  (* arrival order, 1-based in the log *)
  request_log : Request_log.t option;
  slow_ns : int option;  (* latency threshold; None = nothing is slow *)
  slow_requests : Telemetry.Counter.t;
  flight : Request_log.recorder;
  frame_decode_ns : Telemetry.Histogram.t;
      (* time to parse + type one binary (1b) frame, recorded for every
         frame whether or not it decodes — the framing-overhead series
         the JSON path's parse cost is compared against *)
  mutation_stage_ns : (string * Telemetry.Histogram.t) list;
      (* per-stage time of each applied mutation: the session's stages
         plus [wal] (the WAL append, including any compaction snapshot) *)
  net : net_stats;
  inflight : (string * int Atomic.t) list;  (* per-verb, fixed at create *)
  obs_mutex : Mutex.t;
      (* serializes [observe] and exposition renders across worker
         domains: per-request accounting (histogram record, seq, ring,
         log line) commits atomically with respect to scrapes, so
         Expocheck's monotonicity contract holds under concurrency *)
  verb_series : (string, Telemetry.Histogram.t * Telemetry.Counter.t) Hashtbl.t;
  error_series : (string, Telemetry.Counter.t) Hashtbl.t;
      (* [observe]'s registry handles, by verb and by error code, under
         [obs_mutex]; filled on first use, which is when the series
         first appears in the exposition *)
}

let verbs =
  [ "open"; "lookup"; "batch_lookup"; "mutate"; "lint"; "snapshot";
    "restore"; "stats"; "metrics"; "symbols"; "close" ]

let create ?(role = Leader) ?(config = Session.default_config)
    ?(trace = false) ?store ?request_log ?slow_ms () =
  let sink =
    if trace then Telemetry.Sink.create () else Telemetry.Sink.null
  in
  let registry = Telemetry.Registry.create () in
  let slow_requests = Telemetry.Counter.make "slow_requests" in
  (* registered eagerly so the series exists (empty) before the first
     binary frame arrives — metrics goldens rely on it *)
  let frame_decode_ns =
    Telemetry.Registry.histogram registry
      ~help:"Binary (cxxlookup-rpc/1b) frame decode time, nanoseconds."
      "cxxlookup_server_frame_decode_ns"
  in
  let mutation_stage_ns =
    List.map
      (fun stage ->
        ( stage,
          Telemetry.Registry.histogram registry ~labels:[ ("stage", stage) ]
            ~help:"Time spent in one stage of a session mutation, nanoseconds."
            "cxxlookup_server_mutation_stage_ns" ))
      (Session.mutation_stages @ [ "wal" ])
  in
  let net =
    { net_active = Atomic.make 0;
      net_admitted = Atomic.make 0;
      net_accepted = Telemetry.Counter.make "connections_accepted";
      net_closed = Telemetry.Counter.make "connections_closed";
      net_timed_out = Telemetry.Counter.make "connections_timed_out";
      net_overloaded = Telemetry.Counter.make "overloaded" }
  in
  let t =
    { role;
      config;
      store;
      sessions = Hashtbl.create 8;
      session_order = [];
      next_session = 0;
      sink;
      spans = Telemetry.Span.make sink;
      requests = Telemetry.Counter.make "requests";
      errors = Telemetry.Counter.make "errors";
      sessions_opened = Telemetry.Counter.make "sessions_opened";
      sessions_closed = Telemetry.Counter.make "sessions_closed";
      lookups = Telemetry.Counter.make "lookups";
      batch_requests = Telemetry.Counter.make "batch_requests";
      batch_queries = Telemetry.Counter.make "batch_queries";
      mutations = Telemetry.Counter.make "mutations";
      lints = Telemetry.Counter.make "lints";
      registry;
      start_ns = Telemetry.Clock.now_ns ();
      next_seq = 0;
      request_log;
      slow_ns = Option.map (fun ms -> ms * 1_000_000) slow_ms;
      slow_requests;
      flight = Telemetry.Ring.create Request_log.default_flight_capacity;
      frame_decode_ns;
      mutation_stage_ns;
      net;
      inflight = List.map (fun v -> (v, Atomic.make 0)) verbs;
      obs_mutex = Mutex.create ();
      verb_series = Hashtbl.create 16;
      error_series = Hashtbl.create 8 }
  in
  Telemetry.Registry.gauge registry
    ~help:"Nanoseconds since this server was created."
    "cxxlookup_server_uptime_ns"
    (fun () -> Telemetry.Clock.now_ns () - t.start_ns);
  Telemetry.Registry.gauge registry ~help:"Sessions currently open."
    "cxxlookup_server_sessions_open"
    (fun () -> Hashtbl.length t.sessions);
  Telemetry.Registry.attach_counter registry
    ~help:"Requests whose latency crossed the --slow-ms threshold."
    "cxxlookup_server_slow_requests_total" slow_requests;
  Telemetry.Registry.gauge registry
    ~help:"Connections currently open on the networked server."
    "cxxlookup_server_connections_active"
    (fun () -> Atomic.get net.net_active);
  Telemetry.Registry.gauge registry
    ~help:"Requests admitted and not yet answered (global admission queue depth)."
    "cxxlookup_server_admission_queue_depth"
    (fun () -> Atomic.get net.net_admitted);
  Telemetry.Registry.attach_counter registry
    ~help:"Connections accepted by the networked server."
    "cxxlookup_server_connections_accepted_total" net.net_accepted;
  Telemetry.Registry.attach_counter registry
    ~help:"Connections closed (any reason, including timeouts)."
    "cxxlookup_server_connections_closed_total" net.net_closed;
  Telemetry.Registry.attach_counter registry
    ~help:"Connections closed by the idle or slowloris timeout."
    "cxxlookup_server_connections_timed_out_total" net.net_timed_out;
  Telemetry.Registry.attach_counter registry
    ~help:"Requests rejected with the overloaded error code."
    "cxxlookup_server_overloaded_total" net.net_overloaded;
  List.iter
    (fun (verb, gauge) ->
      Telemetry.Registry.gauge registry
        ~help:"Requests currently executing, by verb."
        ~labels:[ ("verb", verb) ]
        "cxxlookup_server_inflight"
        (fun () -> Atomic.get gauge))
    t.inflight;
  (match store with None -> () | Some s -> Store.register s registry);
  t

let sink t = t.sink
let role t = t.role
let store t = t.store
let registry t = t.registry
let net t = t.net
let uptime_ns t = Telemetry.Clock.now_ns () - t.start_ns
let dump_flight t oc = Request_log.dump t.flight oc

let counters t =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    [ t.requests; t.errors; t.sessions_opened; t.sessions_closed;
      t.lookups; t.batch_requests; t.batch_queries; t.mutations; t.lints ]

(* ---- the request core ----------------------------------------------

   Both framings decode into one [request]; [execute] answers it with a
   typed [response] or an error value; a [codec] turns that result into
   the caller's framing.  A 1b lookup or batch_lookup is not typed: it
   stays in its frame ([Ids]), shape-checked at decode, and is resolved
   at execution straight into the connection's output buffer.  1b
   add_class and symbols travel by name, so they decode to the JSON
   verbs. *)

type ids = {
  frame : string;
  batch : bool;
  pairs : int;  (* offset of the first (class, member) pair *)
  count : int;
  out : Outbuf.t;  (* where the ok response is written *)
}

type op =
  | Named of P.op
  | Ids of ids
  | Add_member_id of { cls : int; member : G.member }

type request = { rq_id : J.t; rq_session : string option; rq_op : op }

type error = P.error_code * string

let verb = function
  | Named op -> P.op_string op
  | Ids { batch = true; _ } -> "batch_lookup"
  | Ids { batch = false; _ } -> "lookup"
  | Add_member_id _ -> "mutate"

let read_only = function
  | Named op -> P.read_only op
  | Ids _ -> true
  | Add_member_id _ -> false

(* One query's answer by name: [verdict] is [Error msg] for an unknown
   class; [via] is the serving layer: "table" (a compiled column),
   "memo" (the incremental engine's row) or "mro". *)
type answer = {
  a_query : P.query;
  a_verdict : (Lookup_core.Engine.verdict option, string) result;
  a_via : string;
}

type tally = { resolved : int; ambiguous : int; not_found : int }

(* [new_symbols] is the member intern delta a mutation caused;
   [Resolved] says an id frame's answer is already written, and which
   layer answered a single lookup. *)
type response =
  | Verdict of { graph : G.t; semantics : Mro.semantics; answer : answer }
  | Verdicts of
      { graph : G.t; semantics : Mro.semantics; answers : answer list; tally : tally }
  | Resolved of string option
  | Member_added of
      { session : string; cls : string; member : string; member_id : int;
        rows : int; invalidated : bool; epoch : int;
        new_symbols : (int * string) list }
  | Class_added of
      { session : string; name : string; cls_id : int; classes : int;
        epoch : int; new_symbols : (int * string) list }
  | Symbols of
      { session : string; epoch : int; classes : string array; members : string array }
  | Fields of (string * J.t) list  (* the JSON-only verbs *)

let ( let* ) = Result.bind

let error code fmt = Printf.ksprintf (fun msg -> Error (code, msg)) fmt

(* verdict codes: [-1] absent, [-2] ambiguous, else the declaring class *)
let tally codes =
  let r = ref 0 and a = ref 0 and n = ref 0 in
  Array.iter
    (fun c -> if c >= 0 then incr r else if c = -2 then incr a else incr n)
    codes;
  { resolved = !r; ambiguous = !a; not_found = !n }

(* ---- per-verb handlers --------------------------------------------- *)

let session t = function
  | None -> error P.Bad_request "missing field \"session\""
  | Some name ->
    (match Hashtbl.find_opt t.sessions name with
    | Some s -> Ok s
    | None -> error P.Unknown_session "no open session %S" name)

let graph_of_hierarchy = function
  | P.Chg_json sp ->
    (match Chg.Serialize.of_span sp with
    | Ok g -> Ok g
    | Error msg -> Error (P.Bad_hierarchy, msg))
  | P.Source src ->
    let r = Frontend.Sema.analyze_source src in
    if Frontend.Sema.ok r then Ok r.Frontend.Sema.graph
    else
      error P.Bad_hierarchy "source has errors: %s"
        (match r.Frontend.Sema.diagnostics with
        | d :: _ -> Frontend.Diagnostic.to_string d
        | [] -> "unknown")

(* ---- durability ----------------------------------------------------

   Under a store, a session is durable from birth: [open] writes its
   epoch-0 snapshot (superseding any previous lineage stored under the
   name), every applied mutation appends one WAL record, and an
   outgrown WAL is compacted into a fresh snapshot.  [snapshot] forces
   that compaction; [restore] reopens from the newest valid snapshot
   plus the WAL tail. *)

let store_mutation_of = function
  | P.Add_class { mc_name; mc_bases; mc_members } ->
    Store.Mutation.Add_class
      { ac_name = mc_name; ac_bases = mc_bases; ac_members = mc_members }
  | P.Add_member { mm_class; mm_member } ->
    Store.Mutation.Add_member { am_class = mm_class; am_member = mm_member }

let snapshot_of_session s =
  { Store.Snapshot.s_session = Session.name s;
    s_epoch = Session.epoch s;
    s_protocol = P.version;
    s_graph = Session.graph s;
    s_columns = Session.compiled_columns s }

let write_snapshot store s =
  try Ok (Store.write_snapshot store (snapshot_of_session s))
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    error P.Store_error "snapshot failed: %s" msg

let log_mutation t s m =
  match t.store with
  | None -> Ok ()
  | Some store ->
    let session = Session.name s in
    Store.log_mutation store ~session ~epoch:(Session.epoch s) m;
    if Store.needs_compaction store ~session then begin
      Store.note_compaction store;
      Result.map ignore (write_snapshot store s)
    end
    else Ok ()

(* The one road into a live session mutation: the JSON mutate verb, the
   1b add_member/add_class frames and the replication applier all apply
   here; the mutation is counted, logged and timed by stage.  Recovery
   replays the WAL through {!Session.replay} instead. *)
let apply t s (m : Store.Mutation.t) =
  Telemetry.Counter.incr t.mutations;
  let before = Session.num_member_symbols s in
  let applied () =
    match m with
    | Store.Mutation.Add_class { ac_name; ac_bases; ac_members } ->
      let cls_id =
        Session.add_class s ~cls:ac_name ~bases:ac_bases ~members:ac_members
      in
      Class_added
        { session = Session.name s; name = ac_name; cls_id;
          classes = G.num_classes (Session.graph s);
          epoch = Session.epoch s;
          new_symbols = Session.member_symbols_from s before }
    | Store.Mutation.Add_member { am_class; am_member } ->
      let rows, invalidated = Session.add_member s ~cls:am_class am_member in
      let name = am_member.G.m_name in
      Member_added
        { session = Session.name s; cls = am_class; member = name;
          member_id = Option.get (Session.member_symbol s name);
          rows; invalidated;
          epoch = Session.epoch s;
          new_symbols = Session.member_symbols_from s before }
  in
  match applied () with
  | exception G.Error e ->
    let code =
      match e with
      | G.Unknown_class _ | G.Unknown_base _ -> P.Unknown_class
      | _ -> P.Bad_hierarchy
    in
    Error (code, G.error_to_string e)
  | resp ->
    let t0 = Telemetry.Clock.now_ns () in
    let logged = log_mutation t s m in
    let stage_ns =
      ("wal", Telemetry.Clock.elapsed_ns ~since:t0) :: Session.last_mutation_ns s
    in
    List.iter
      (fun (stage, ns) ->
        Telemetry.Histogram.record (List.assoc stage t.mutation_stage_ns) ns)
      stage_ns;
    let* () = logged in
    Ok resp

let register_session t s =
  let name = Session.name s in
  Hashtbl.add t.sessions name s;
  t.session_order <- t.session_order @ [ name ];
  Telemetry.Counter.incr t.sessions_opened;
  Session.register s t.registry

let handle_open t ~session:requested hierarchy =
  let* name =
    match requested with
    | Some n when Hashtbl.mem t.sessions n ->
      error P.Duplicate_session "session %S is already open" n
    | Some n -> Ok n
    | None ->
      let rec pick () =
        let n = Printf.sprintf "s%d" t.next_session in
        t.next_session <- t.next_session + 1;
        if Hashtbl.mem t.sessions n then pick () else n
      in
      Ok (pick ())
  in
  let* g = graph_of_hierarchy hierarchy in
  let s = Session.create ~config:t.config ~name g in
  (* counted before [register_session] lets another connection's mutate
     intern more names *)
  let members = Session.num_member_symbols s in
  let* _ =
    match t.store with
    | None -> Ok 0
    | Some store ->
      Store.reset_session store name;
      write_snapshot store s
  in
  register_session t s;
  Ok
    [ ("protocol", J.String P.version);
      ("session", J.String name);
      ("classes", J.Int (G.num_classes g));
      ("edges", J.Int (G.num_edges g));
      ("members", J.Int members) ]

(* One query by name, under C++ dominance or a linearized semantics
   (answered from the session's per-variant MRO table as "via":"mro"). *)
let answer s sem (q : P.query) =
  let verdict, via =
    match sem with
    | Mro.Cpp ->
      (match Session.lookup s q.P.q_class q.P.q_member with
      | Ok (v, served) -> (Ok v, Session.served_string served)
      | Error cls -> (Error cls, ""))
    | Mro.Linearized v ->
      (Session.mro_lookup s v q.P.q_class q.P.q_member, "mro")
  in
  { a_query = q;
    a_verdict =
      Result.map_error (fun cls -> Printf.sprintf "unknown class %S" cls) verdict;
    a_via = via }

let handle_lookup t s semantics q =
  Telemetry.Counter.incr t.lookups;
  let a = answer s semantics q in
  match a.a_verdict with
  | Error msg -> Error (P.Unknown_class, msg)
  | Ok _ -> Ok (Verdict { graph = Session.graph s; semantics; answer = a })

(* Unlike the id path, a by-name batch reports an unknown class per
   query, inside an ok response. *)
let handle_batch t s semantics qs =
  Telemetry.Counter.incr t.batch_requests;
  Telemetry.Counter.add t.batch_queries (List.length qs);
  let answers = List.map (answer s semantics) qs in
  let codes =
    List.filter_map
      (fun a -> Result.to_option a.a_verdict |> Option.map Session.code_of_verdict)
      answers
  in
  Ok
    (Verdicts
       { graph = Session.graph s; semantics; answers;
         tally = tally (Array.of_list codes) })

(* The id path.  Each pair is read from the frame and resolved through
   the member's row (one read; {!Session.resolve_code} on a miss), and
   its verdict is written into [out] as the tally is kept, with the
   session's and the store's counters added once per request.  A bad
   id fails the whole request: ids come from the server's own
   symbols/delta stream, so an out-of-range id is a client bug, not
   data-dependent drift worth per-query reporting.  The pairs before it
   are counted as resolved; the frame's codec drops what was written. *)
let resolve_ids t s { frame = f; batch; pairs; count; out } =
  if batch then begin
    Telemetry.Counter.incr t.batch_requests;
    Telemetry.Counter.add t.batch_queries count
  end
  else Telemetry.Counter.incr t.lookups;
  let classes = Session.num_classes s and members = Session.num_member_symbols s in
  let start = Frame.open_ok out f (Frame.id_at f) in
  if batch then Outbuf.add_u32 out count;
  let i = ref 0 and hits = ref 0 and r = ref 0 and a = ref 0 and n = ref 0 in
  let cls = ref 0 and member = ref 0 in
  while
    !i < count
    && begin
         cls := Frame.u32_at f (pairs + (8 * !i));
         member := Frame.u32_at f (pairs + (8 * !i) + 4);
         !cls < classes && !member < members
       end
  do
    let code = Session.row_code s ~cls:!cls ~member:!member in
    let code =
      if code <> Session.no_row then begin
        incr hits;
        code
      end
      else Session.resolve_code s ~cls:!cls ~member:!member
    in
    Frame.add_verdict out code;
    if code >= 0 then incr r else if code = -2 then incr a else incr n;
    incr i
  done;
  Session.count_codes s ~lookups:!i ~row_hits:!hits ~resolved:!r ~ambiguous:!a
    ~not_found:!n;
  if !i < count then
    if !cls >= classes then error P.Unknown_class "unknown class id %d" !cls
    else error P.Bad_request "unknown member id %d" !member
  else begin
    if batch then begin
      Outbuf.add_u32 out !r;
      Outbuf.add_u32 out !a;
      Outbuf.add_u32 out !n
    end;
    Frame.close_ok out start;
    Ok
      (Resolved
         (if batch then None
          else Some (Session.served_string (Session.served s !member))))
  end

let handle_lint t s sem rules =
  Telemetry.Counter.incr t.lints;
  let* rules =
    match rules with
    | None -> Ok Lint.Rule.default_rules
    | Some [] -> error P.Bad_request "empty rule list"
    | Some ids ->
      (match List.find_opt (fun id -> Lint.Rule.of_string id = None) ids with
      | Some id -> error P.Bad_request "unknown lint rule %S" id
      | None -> Ok (List.filter_map Lint.Rule.of_string ids))
  in
  let g = Session.graph s in
  let findings =
    Lint.run
      ~config:{ Lint.default_config with rules }
      ~semantics:sem
      ~jobs:t.config.Session.jobs
      (Chg.Closure.compute g)
  in
  let errors, warnings, notes = Lint.summary findings in
  let per_rule =
    List.filter_map
      (fun r ->
        match
          List.length (List.filter (fun f -> f.Lint.f_rule = r) findings)
        with
        | 0 -> None
        | n -> Some (Lint.Rule.to_string r, J.Int n))
      Lint.Rule.all
  in
  Ok
    [ ("session", J.String (Session.name s));
      ("epoch", J.Int (Session.epoch s));
      ("diagnostics", J.List (List.map (fun f -> Lint.finding_json f) findings));
      ("errors", J.Int errors);
      ("warnings", J.Int warnings);
      ("notes", J.Int notes);
      ("rules", J.Obj per_rule) ]

let no_store () =
  error P.Store_error "no store configured (run: cxxlookup serve --store DIR)"

let handle_snapshot t s =
  match t.store with
  | None -> no_store ()
  | Some store ->
    let* bytes = write_snapshot store s in
    Ok
      [ ("session", J.String (Session.name s));
        ("epoch", J.Int (Session.epoch s));
        ("bytes", J.Int bytes) ]

(* Rebuild a session from a recovery: restore the snapshot (graph +
   compiled columns), then replay the WAL tail in one batch — never back
   into the WAL, which already holds these records.  [Error] is the
   first failing record's message. *)
let session_of_recovery t name rv =
  let snap = rv.Store.rv_snapshot in
  let s =
    Session.restore ~config:t.config ~name
      ~epoch:snap.Store.Snapshot.s_epoch
      ~columns:snap.Store.Snapshot.s_columns snap.Store.Snapshot.s_graph
  in
  Session.replay s
    (List.map (fun (r : Store.Wal.record) -> r.Store.Wal.rc_mutation)
       rv.Store.rv_replayed)
  |> Result.map (fun () -> s)
  |> Result.map_error G.error_to_string

let handle_restore t ~session:requested =
  match (t.store, requested) with
  | None, _ -> no_store ()
  | Some _, None -> error P.Bad_request "missing field \"session\""
  | Some _, Some name when Hashtbl.mem t.sessions name ->
    error P.Duplicate_session "session %S is already open" name
  | Some store, Some name ->
    (match Store.recover store name with
    | Error msg -> Error (P.Store_error, msg)
    | Ok None -> error P.Store_error "nothing stored under session %S" name
    | Ok (Some rv) ->
      (match session_of_recovery t name rv with
      | Error msg -> error P.Store_error "replay failed: %s" msg
      | Ok s ->
        register_session t s;
        Ok
          [ ("protocol", J.String P.version);
            ("session", J.String name);
            ("epoch", J.Int (Session.epoch s));
            ("classes", J.Int (G.num_classes (Session.graph s)));
            ("replayed", J.Int (List.length rv.Store.rv_replayed));
            ("torn_tail", J.Bool rv.Store.rv_torn) ]))

(* The interned-id tables for the binary hot path: class ids are graph
   ids, member ids the session's dense intern order.  Served over JSON
   too, so a client can bootstrap ids before switching framing. *)
let handle_symbols s =
  let epoch, classes, members = Session.symbols s in
  Ok (Symbols { session = Session.name s; epoch; classes; members })

let render_metrics t =
  (* under the observation mutex: a scrape never sees a request whose
     histogram bump landed but whose counter bump has not *)
  Mutex.protect t.obs_mutex (fun () -> Telemetry.Prometheus.render t.registry)

let handle_metrics t =
  Ok
    [ ("format", J.String "text/plain; version=0.0.4");
      ("body", J.String (render_metrics t)) ]

(* Per-verb and per-error-code views out of the registry: the same
   labelled series the exposition renders, re-shaped as a JSON object.
   find_values is sorted, so the object's key order is stable. *)
let labelled_counts t metric label =
  List.filter_map
    (fun (labels, v) ->
      match List.assoc_opt label labels with
      | Some key -> Some (key, J.Int v)
      | None -> None)
    (Telemetry.Registry.find_values t.registry metric)

let handle_stats t = function
  | Some _ as sess ->
    let* s = session t sess in
    Ok
      [ ("protocol", J.String P.version);
        ("session", J.String (Session.name s));
        ("epoch", J.Int (Session.epoch s));
        ("stats", Session.stats_json s) ]
  | None ->
    let open_sessions =
      List.filter (fun n -> Hashtbl.mem t.sessions n) t.session_order
    in
    let store_fields =
      match t.store with
      | None -> []
      | Some store ->
        [ ( "store",
            J.Obj
              (("dir", J.String (Store.dir store))
               :: List.map
                    (fun (k, v) -> (k, J.Int v))
                    (Store.counters store)) ) ]
    in
    Ok
      ([ ("protocol", J.String P.version);
         ( "service",
           J.Obj
             (List.map (fun (k, v) -> (k, J.Int v)) (counters t)
              @ [ ("sessions_open", J.Int (Hashtbl.length t.sessions));
                  ("uptime_ns", J.Int (uptime_ns t));
                  ( "verbs",
                    J.Obj
                      (labelled_counts t "cxxlookup_server_requests_total"
                         "verb") );
                  ( "error_codes",
                    J.Obj
                      (labelled_counts t "cxxlookup_server_errors_total"
                         "code") );
                  ( "net",
                    J.Obj
                      [ ("connections_active", J.Int (Atomic.get t.net.net_active));
                        ( "connections_accepted",
                          J.Int (Telemetry.Counter.value t.net.net_accepted) );
                        ( "connections_closed",
                          J.Int (Telemetry.Counter.value t.net.net_closed) );
                        ( "connections_timed_out",
                          J.Int (Telemetry.Counter.value t.net.net_timed_out) );
                        ( "admission_queue_depth",
                          J.Int (Atomic.get t.net.net_admitted) );
                        ( "overloaded",
                          J.Int (Telemetry.Counter.value t.net.net_overloaded) )
                      ] ) ]) );
         ( "sessions",
           J.List
             (List.map
                (fun n -> Session.stats_json (Hashtbl.find t.sessions n))
                open_sessions) ) ]
      @ store_fields)

let handle_close t s =
  let name = Session.name s in
  Hashtbl.remove t.sessions name;
  Telemetry.Counter.incr t.sessions_closed;
  (* durable state outlives the close; make sure it is actually on disk *)
  (match t.store with None -> () | Some store -> Store.sync store);
  Ok [ ("session", J.String name); ("closed", J.Bool true) ]

let dispatch t rq =
  let with_session f =
    let* s = session t rq.rq_session in
    f s
  in
  let fields r = Result.map (fun f -> Fields f) r in
  match rq.rq_op with
  | Named (P.Open { o_session; o_hierarchy }) ->
    fields (handle_open t ~session:o_session o_hierarchy)
  | Named (P.Lookup { lk_query; lk_semantics }) ->
    with_session (fun s -> handle_lookup t s lk_semantics lk_query)
  | Named (P.Batch_lookup { bl_queries; bl_semantics }) ->
    with_session (fun s -> handle_batch t s bl_semantics bl_queries)
  | Named (P.Mutate m) ->
    with_session (fun s -> apply t s (store_mutation_of m))
  | Named (P.Lint { l_rules; l_semantics }) ->
    fields (with_session (fun s -> handle_lint t s l_semantics l_rules))
  | Named P.Snapshot -> fields (with_session (handle_snapshot t))
  | Named P.Restore -> fields (handle_restore t ~session:rq.rq_session)
  | Named P.Stats -> fields (handle_stats t rq.rq_session)
  | Named P.Metrics -> fields (handle_metrics t)
  | Named P.Symbols -> with_session handle_symbols
  | Named P.Close -> fields (with_session (handle_close t))
  | Ids ids -> with_session (fun s -> resolve_ids t s ids)
  | Add_member_id { cls; member } ->
    with_session (fun s ->
        let g = Session.graph s in
        if cls < 0 || cls >= G.num_classes g then
          error P.Unknown_class "unknown class id %d" cls
        else
          apply t s
            (Store.Mutation.Add_member { am_class = G.name g cls; am_member = member }))

(* ---- codecs: the typed result in either framing -------------------- *)

type 'a codec = {
  encode : id:J.t -> (response, error) result -> 'a;
  size : 'a -> int;  (* encoded bytes, for the request log *)
}

(* The verdict fields of one query — shared by lookup and every batch
   entry. *)
let answer_fields graph semantics a =
  ("class", J.String a.a_query.P.q_class)
  :: ("member", J.String a.a_query.P.q_member)
  ::
  (match a.a_verdict with
  | Error msg ->
    [ ("error", J.String "unknown_class"); ("message", J.String msg) ]
  | Ok v ->
    P.verdict_fields graph v
    @ (match semantics with
      | Mro.Cpp -> []
      | Mro.Linearized v -> [ ("semantics", J.String (Mro.variant_string v)) ])
    @ [ ("via", J.String a.a_via) ])

let tally_fields { resolved; ambiguous; not_found } =
  [ ("resolved", J.Int resolved);
    ("ambiguous", J.Int ambiguous);
    ("not_found", J.Int not_found) ]

let json_fields = function
  | Verdict { graph; semantics; answer } -> Ok (answer_fields graph semantics answer)
  | Verdicts { graph; semantics; answers; tally } ->
    Ok
      (("results",
        J.List (List.map (fun a -> J.Obj (answer_fields graph semantics a)) answers))
       :: tally_fields tally)
  | Member_added { session; cls; member; rows; invalidated; epoch; _ } ->
    Ok
      [ ("session", J.String session);
        ("class", J.String cls);
        ("member", J.String member);
        ("rows_recomputed", J.Int rows);
        ("table_invalidated", J.Bool invalidated);
        ("epoch", J.Int epoch) ]
  | Class_added { session; name; classes; epoch; _ } ->
    Ok
      [ ("session", J.String session);
        ("added", J.String name);
        ("classes", J.Int classes);
        ("epoch", J.Int epoch) ]
  | Symbols { session; epoch; classes; members } ->
    let strings a = J.List (Array.to_list (Array.map (fun n -> J.String n) a)) in
    Ok
      [ ("session", J.String session);
        ("epoch", J.Int epoch);
        ("classes", strings classes);
        ("members", strings members) ]
  | Fields fields -> Ok fields
  | Resolved _ -> error P.Internal "an id answer has no JSON encoding"

let json =
  { encode =
      (fun ~id result ->
        match Result.bind result json_fields with
        | Ok fields -> P.ok_response ~id fields
        | Error (code, msg) -> P.error_response ~id code msg);
    size = (fun j -> String.length (J.to_string j)) }

let frame_resp = function
  | Member_added { member_id; rows; invalidated; epoch; new_symbols; _ } ->
    Frame.Ok_add_member
      { oam_member = member_id; oam_rows = rows; oam_invalidated = invalidated;
        oam_epoch = epoch; oam_new_symbols = new_symbols }
  | Class_added { cls_id; classes; epoch; new_symbols; _ } ->
    Frame.Ok_add_class
      { oac_class = cls_id; oac_classes = classes; oac_epoch = epoch;
        oac_new_symbols = new_symbols }
  | Symbols { epoch; classes; members; _ } ->
    Frame.Ok_symbols { os_epoch = epoch; os_classes = classes; os_members = members }
  | Verdict _ | Verdicts _ | Fields _ | Resolved _ ->
    Frame.Err (P.Internal, "a by-name answer has no 1b encoding")

(* A frame codec appends to [out] and answers the bytes it appended.
   Every response echoes the request's own 8 id bytes ({!Frame.id_at});
   an error first drops whatever the id path had written. *)
let frame ?(request = "") out =
  let at = Frame.id_at request in
  let start = Outbuf.length out in
  { encode =
      (fun ~id:_ result ->
        (match result with
        | Ok (Resolved _) -> ()
        | Ok r -> Frame.add_response out request at (frame_resp r)
        | Error (c, m) ->
          Outbuf.truncate out start;
          Frame.add_response out request at (Frame.Err (c, m)));
        Outbuf.length out - start);
    size = Fun.id }

(* ---- decoding ------------------------------------------------------ *)

type decoded = (request, J.t * P.error_code * string) result

let of_protocol (rq : P.request) =
  { rq_id = rq.P.rq_id; rq_session = rq.P.rq_session; rq_op = Named rq.P.rq_op }

let decode_line ?shallow line =
  Result.map of_protocol (P.parse_request ?shallow line)

(* The pair count of a lookup or batch_lookup frame whose payload has
   exactly the op's shape — the frames answered in place — else -1. *)
let id_pairs f =
  let op = if Frame.id_at f < 0 then -1 else Char.code f.[1] in
  if op = Frame.op_lookup || op = Frame.op_batch_lookup then Frame.id_count f
  else -1

(* Any other complete 1b frame (header + payload): its echoed id,
   session and typed op.  Failures echo the request id when the
   [i64 id | string session] prefix survived; a header the reader could
   not even frame is a [parse_error]. *)
let typed_frame f =
  match Frame.parse_header f with
  | Error msg -> Error (J.Int 0, P.Parse_error, msg)
  | Ok (_, len) when String.length f <> Frame.header_len + len ->
    Error (J.Int 0, P.Parse_error, "frame length disagrees with header")
  | Ok (op, len) ->
    let id = J.Int (Frame.id_value f (Frame.id_at f)) in
    (match Frame.decode_request ~op (String.sub f Frame.header_len len) with
    | Error msg -> Error (id, P.Bad_request, msg)
    | Ok { Frame.fr_session; fr_op; _ } ->
      (match fr_op with
      | Frame.Add_member { am_class; am_member } ->
        Ok (id, fr_session, Add_member_id { cls = am_class; member = am_member })
      | Frame.Add_class { ac_name; ac_bases; ac_members } ->
        Ok
          ( id, fr_session,
            Named
              (P.Mutate
                 (P.Add_class
                    { mc_name = ac_name; mc_bases = ac_bases; mc_members = ac_members }))
          )
      | Frame.Symbols -> Ok (id, fr_session, Named P.Symbols)
      | Frame.Lookup _ | Frame.Batch_lookup _ ->
        (* [id_pairs] accepts every id frame this decode does; kept
           total rather than trusted *)
        Error (id, P.Internal, "id frame shape check disagrees with its decode")))

let route_frame f =
  if id_pairs f >= 0 then Ok (Frame.session_name f, true)
  else Result.map (fun (_, session, op) -> (session, read_only op)) (typed_frame f)

let decode_frame t out f =
  let t0 = Telemetry.Clock.now_ns () in
  let count = id_pairs f in
  let decoded =
    if count >= 0 then
      Ok
        { rq_id = J.Int (Frame.id_value f (Frame.id_at f));
          rq_session = Some (Frame.session_name f);
          rq_op =
            Ids
              { frame = f; batch = Char.code f.[1] = Frame.op_batch_lookup;
                pairs = Frame.pairs_at f; count; out } }
    else
      Result.map
        (fun (id, session, op) -> { rq_id = id; rq_session = Some session; rq_op = op })
        (typed_frame f)
  in
  Telemetry.Histogram.record t.frame_decode_ns (Telemetry.Clock.elapsed_ns ~since:t0);
  decoded

(* ---- execution and accounting -------------------------------------- *)

(* [observe]'s per-verb and per-code series, registered on their first
   request and held from then on; callers hold [obs_mutex]. *)
let verb_series t verb =
  match Hashtbl.find_opt t.verb_series verb with
  | Some series -> series
  | None ->
    let series =
      ( Telemetry.Registry.histogram t.registry
          ~help:"Request latency by verb, nanoseconds."
          ~labels:[ ("verb", verb) ]
          "cxxlookup_server_request_duration_ns",
        Telemetry.Registry.counter t.registry
          ~help:
            "Requests handled, by verb (rejected lines count as verb=invalid)."
          ~labels:[ ("verb", verb) ]
          "cxxlookup_server_requests_total" )
    in
    Hashtbl.add t.verb_series verb series;
    series

let error_series t code =
  match Hashtbl.find_opt t.error_series code with
  | Some c -> c
  | None ->
    let c =
      Telemetry.Registry.counter t.registry ~help:"Error responses, by code."
        ~labels:[ ("code", code) ]
        "cxxlookup_server_errors_total"
    in
    Hashtbl.add t.error_series code c;
    c

(* One finished request: per-verb latency histogram and request
   counter, per-error-code counter, slow-threshold accounting, a
   flight-recorder push, and (when configured) one JSON log line.
   Under [obs_mutex]. *)
let observe_locked conn t ~verb ~session ~id ~latency ~outcome ~via ~bytes =
  let duration, requests = verb_series t verb in
  Telemetry.Histogram.record duration latency;
  Telemetry.Counter.incr requests;
  if outcome <> "ok" then Telemetry.Counter.incr (error_series t outcome);
  let slow = match t.slow_ns with Some s -> latency >= s | None -> false in
  if slow then Telemetry.Counter.incr t.slow_requests;
  t.next_seq <- t.next_seq + 1;
  let entry =
    { Request_log.e_seq = t.next_seq; e_conn = conn; e_verb = verb;
      e_session = session;
      e_id = id; e_outcome = outcome; e_latency_ns = latency;
      e_bytes = bytes; e_via = via; e_slow = slow }
  in
  Telemetry.Ring.push t.flight entry;
  match t.request_log with
  | Some lg -> Request_log.log lg entry
  | None -> ()

let observe conn t ~verb ~session ~id ~t0 ~outcome ~via ~bytes =
  let latency = Telemetry.Clock.elapsed_ns ~since:t0 in
  Mutex.lock t.obs_mutex;
  match observe_locked conn t ~verb ~session ~id ~latency ~outcome ~via ~bytes with
  | () -> Mutex.unlock t.obs_mutex
  | exception e ->
    Mutex.unlock t.obs_mutex;
    raise e

(* Encode and account one answered (or refused) request. *)
let finish ?conn t codec ~verb ~session ~id ~t0 result =
  let outcome, via =
    match result with
    | Ok (Verdict { answer; _ }) -> ("ok", Some answer.a_via)
    | Ok (Resolved via) -> ("ok", via)
    | Ok _ -> ("ok", None)
    | Error (code, _) ->
      Telemetry.Counter.incr t.errors;
      (P.code_string code, None)
  in
  let out = codec.encode ~id result in
  (* measured only for the log: for a JSON response, measuring means
     serializing it a second time *)
  let bytes = match t.request_log with Some _ -> codec.size out | None -> 0 in
  observe conn t ~verb ~session ~id ~t0 ~outcome ~via ~bytes;
  out

(* The follower gate, then the verb. *)
let gated t rq verb =
  if t.role = Follower && not (read_only rq.rq_op) then
    error P.Not_leader "this node is a read-only replica; send %S to the leader"
      verb
  else dispatch t rq

(* the gauge of a verb [inflight] does not list; it lists every verb *)
let untracked = Atomic.make 0

let execute ?conn t codec rq =
  Telemetry.Counter.incr t.requests;
  let verb = verb rq.rq_op in
  let inflight =
    match List.assoc verb t.inflight with g -> g | exception Not_found -> untracked
  in
  Atomic.incr inflight;
  let t0 = Telemetry.Clock.now_ns () in
  let internal = ref false in
  let result =
    (* an exception is a bug, not a bad request: answer [internal]
       instead of dying, and dump the flight recorder below so the
       requests leading here are preserved *)
    match
      if Telemetry.Sink.enabled t.sink then begin
        Telemetry.Sink.emit t.sink "request"
          (("op", Telemetry.Event.Str verb)
           ::
           (match rq.rq_session with
           | Some s -> [ ("session", Telemetry.Event.Str s) ]
           | None -> []));
        Telemetry.Span.run t.spans ("rpc:" ^ verb) (fun () -> gated t rq verb)
      end
      else gated t rq verb
    with
    | r -> r
    | exception exn ->
      internal := true;
      Error (P.Internal, Printexc.to_string exn)
  in
  Atomic.decr inflight;
  let out =
    finish ?conn t codec ~verb ~session:rq.rq_session ~id:rq.rq_id ~t0 result
  in
  (* after observe, so the failing request itself is in the ring *)
  if !internal then dump_flight t stderr;
  out

(* A request refused without execution — undecodable input, and the
   networked server's admission control and framing guards — still
   hits the request counters, the flight recorder and the log. *)
let reject ?conn t codec ~verb ~id code msg =
  Telemetry.Counter.incr t.requests;
  if code = P.Overloaded then Telemetry.Counter.incr t.net.net_overloaded;
  finish ?conn t codec ~verb ~session:None ~id ~t0:(Telemetry.Clock.now_ns ())
    (Error (code, msg))

let handle ?conn ?(around = fun _ _ run -> run ()) t codec = function
  | Error (id, code, msg) -> reject ?conn t codec ~verb:"invalid" ~id code msg
  | Ok rq -> around codec rq (fun () -> execute ?conn t codec rq)

let handle_request ?conn t rq = execute ?conn t json (of_protocol rq)

let handle_json ?conn t j =
  handle ?conn t json (Result.map of_protocol (P.request_of_json j))

let handle_line ?conn t line = handle ?conn t json (decode_line line)

let answer_frame ?conn ?around t out f =
  handle ?conn ?around t (frame ~request:f out) (decode_frame t out f)

let handle_frame ?conn t f =
  (* room for an id frame's answer: 5 bytes a verdict at most *)
  let pairs = id_pairs f in
  let out = Outbuf.create (if pairs < 0 then 64 else 32 + (5 * pairs)) in
  ignore (answer_frame ?conn t out f);
  Outbuf.contents out

(* ---- replication entry points --------------------------------------

   The follower's applier mutates sessions through here, not through
   [execute]: the [not_leader] gate is for clients, while these mirror
   the leader's stream.  Both re-persist into the follower's own store
   (when configured) so a restarted replica recovers locally and
   resumes from its last applied epoch instead of re-bootstrapping. *)

let open_sessions t =
  Hashtbl.fold
    (fun name s acc -> (name, Session.epoch s) :: acc)
    t.sessions []
  |> List.sort compare

(* Install a full snapshot, superseding whatever the name held: the
   stream's resynchronization point (bootstrap, post-compaction gap, or
   a fresh lineage under a reused name). *)
let install_snapshot t (snap : Store.Snapshot.t) =
  let name = snap.Store.Snapshot.s_session in
  match
    Session.restore ~config:t.config ~name
      ~epoch:snap.Store.Snapshot.s_epoch
      ~columns:snap.Store.Snapshot.s_columns snap.Store.Snapshot.s_graph
  with
  | exception exn -> Error (Printexc.to_string exn)
  | s ->
    let written =
      match t.store with
      | None -> Ok 0
      | Some store ->
        Store.reset_session store name;
        write_snapshot store s
    in
    (match written with
    | Error (_, msg) -> Error msg
    | Ok _ ->
      if not (Hashtbl.mem t.sessions name) then
        Telemetry.Counter.incr t.sessions_opened;
      if not (List.mem name t.session_order) then
        t.session_order <- t.session_order @ [ name ];
      Hashtbl.replace t.sessions name s;
      Session.register s t.registry;
      Ok ())

(* Apply one replicated WAL record.  The epoch must extend the session
   exactly — same strictly-consecutive contract recovery enforces — or
   the caller must resynchronize from a snapshot. *)
let apply_replicated t ~session:name ~epoch m =
  match Hashtbl.find_opt t.sessions name with
  | None -> Error (Printf.sprintf "no session %S to apply epoch %d to" name epoch)
  | Some s when epoch <> Session.epoch s + 1 ->
    Error
      (Printf.sprintf "session %S: epoch gap (at %d, record %d)" name
         (Session.epoch s) epoch)
  | Some s ->
    (match apply t s m with Ok _ -> Ok () | Error (_, msg) -> Error msg)

(* ---- startup recovery ---------------------------------------------- *)

type recovered =
  | Recovered of {
      r_session : string;
      r_epoch : int;
      r_replayed : int;
      r_torn : bool;
    }
  | Recovery_failed of { r_session : string; r_error : string }

let recover_sessions t =
  match t.store with
  | None -> []
  | Some store ->
    List.filter_map
      (fun name ->
        if Hashtbl.mem t.sessions name then None
        else
          match Store.recover store name with
          | Ok None -> None
          | Error msg ->
            Some (Recovery_failed { r_session = name; r_error = msg })
          | Ok (Some rv) ->
            (match session_of_recovery t name rv with
            | Ok s ->
              register_session t s;
              Some
                (Recovered
                   { r_session = name;
                     r_epoch = Session.epoch s;
                     r_replayed = List.length rv.Store.rv_replayed;
                     r_torn = rv.Store.rv_torn })
            | Error msg ->
              Some (Recovery_failed { r_session = name; r_error = msg })))
      (Store.sessions store)

let serve ?(after_response = fun () -> ()) t ic oc =
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
      if String.trim line = "" then loop ()
      else begin
        output_string oc (J.to_string (handle_line t line));
        output_char oc '\n';
        flush oc;
        after_response ();
        loop ()
      end
  in
  loop ()
