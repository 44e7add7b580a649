(** The lookup service: a session store plus the [cxxlookup-rpc/1]
    request dispatcher ([cxxlookup serve] is a thin wrapper over
    {!serve}; [cxxlookup batch] drives {!handle_line} directly).

    On the stdin/stdout path the server is synchronous and
    single-threaded: one request, one response, in order.  Under the
    networked front end (lib/net) the same value is shared by every
    worker domain: read verbs run concurrently (sessions guard their
    mutable caches internally), mutations are serialized by the net
    layer's writer lock, and per-request accounting commits under an
    observation mutex so scrapes stay monotone. *)

type t

(** A [Follower] answers the read-only verbs ([lookup], [batch_lookup],
    [lint], [symbols], [stats], [metrics]) normally and every mutating
    verb, in either framing, with a [not_leader] error; its sessions
    change only through the replication entry points below. *)
type role = Leader | Follower

(** Connection-level accounting, owned by the server so the
    [cxxlookup_server_connections_…] / [admission_queue_depth] /
    [overloaded] series exist (deterministically zero) in stdin mode
    too.  The networked front end mutates the fields directly. *)
type net_stats = {
  net_active : int Atomic.t;  (** connections currently open *)
  net_admitted : int Atomic.t;
      (** requests admitted and not yet answered — the global admission
          queue depth the [--queue-depth] bound applies to *)
  net_accepted : Telemetry.Counter.t;
  net_closed : Telemetry.Counter.t;
  net_timed_out : Telemetry.Counter.t;  (** idle + slowloris closes *)
  net_overloaded : Telemetry.Counter.t;  (** explicit overload rejections *)
}

(** [create ?role ?config ?store ?request_log ?slow_ms ()] — [config]
    applies to every session opened; [store] makes sessions durable
    (opens write snapshots, mutations append to the WAL, and the
    [snapshot] / [restore] verbs work — [store_error] without it);
    [request_log] writes one structured JSON line per finished request;
    [slow_ms] marks requests at or over the threshold as slow (counted,
    and flagged in the log).  Requests are observed through three
    things only: the request log, the flight recorder (the last
    requests, kept whether or not a log is configured; see
    {!dump_flight}) and the metric {!registry} that the store, each
    opened session and the request path register into. *)
val create :
  ?role:role ->
  ?config:Session.config ->
  ?store:Store.t ->
  ?request_log:Request_log.t ->
  ?slow_ms:int ->
  unit ->
  t

val role : t -> role

val store : t -> Store.t option

(** The server's metric registry — what the [metrics] verb and
    [--metrics-file] render. *)
val registry : t -> Telemetry.Registry.t

val net : t -> net_stats

(** Prometheus exposition of {!registry}, rendered under the
    observation mutex — the race-free form of
    [Telemetry.Prometheus.render (registry t)]. *)
val render_metrics : t -> string

val uptime_ns : t -> int

(** [dump_flight t oc] writes the flight recorder (the most recent
    requests, oldest first) to [oc].  Also triggered automatically on
    any [internal] error response, and by SIGUSR1 under
    [cxxlookup serve]. *)
val dump_flight : t -> out_channel -> unit

(** One session's fate under {!recover_sessions}. *)
type recovered =
  | Recovered of {
      r_session : string;
      r_epoch : int;  (** epoch after WAL replay *)
      r_replayed : int;  (** WAL records applied past the snapshot *)
      r_torn : bool;  (** a torn final WAL record was skipped *)
    }
  | Recovery_failed of { r_session : string; r_error : string }

(** [recover_sessions t] reopens every session the store holds (newest
    valid snapshot + WAL-tail replay), skipping names already open.
    The startup path of [cxxlookup serve --store].  Empty without a
    store. *)
val recover_sessions : t -> recovered list

(** {1 Replication entry points}

    The follower applier's interface — these bypass the [not_leader]
    gate (they {e are} the replication stream), and re-persist into the
    follower's own store when one is configured, so a restarted replica
    recovers locally and resumes from its last applied epoch.  The
    caller is responsible for mutual exclusion against concurrent read
    verbs (the networked replica applies under the net server's write
    lock). *)

(** Open sessions as [(name, epoch)], sorted — the follower's
    handshake offer, letting the leader skip snapshots the follower
    already has. *)
val open_sessions : t -> (string * int) list

(** [install_snapshot t snap] (re)opens [snap]'s session from its
    graph + packed columns, superseding any open session and stored
    lineage under the name.  The stream's resynchronization point. *)
val install_snapshot : t -> Store.Snapshot.t -> (unit, string) result

(** [apply_replicated t ~session ~epoch m] applies one replicated WAL
    record.  [epoch] must be exactly the session's epoch + 1 (the
    strictly-consecutive contract recovery enforces); on [Error] the
    caller must resynchronize from a snapshot. *)
val apply_replicated :
  t -> session:string -> epoch:int -> Store.Mutation.t ->
  (unit, string) result

(** Service-level counters: [requests], [errors], [sessions_opened],
    [sessions_closed], [lookups], [batch_requests], [batch_queries],
    [mutations]. *)
val counters : t -> (string * int) list

(** {1 The request core}

    Both framings decode into one {!request}; one internal [execute]
    answers it — the follower gate, the in-flight gauge, error mapping,
    the flight-recorder dump on [internal], and the per-request
    accounting all happen there and nowhere else — and a {!codec}
    encodes the typed result in the caller's framing.  Errors are
    values ([ok:false] responses / error frames), never exceptions. *)

(** A 1b lookup or batch_lookup left in its frame: the payload has
    been checked to have exactly the op's shape, and its [count]
    (class id, member id) pairs, from offset [pairs] of [frame], are
    resolved at execution with the ok response written into [out]. *)
type ids = {
  frame : string;
  batch : bool;
  pairs : int;
  count : int;
  out : Outbuf.t;
}

(** JSON verbs travel as {!Protocol.op} (1b [add_class] and [symbols]
    name their classes, so they decode to the same variants); the rest
    are the 1b requests addressed by interned ids. *)
type op =
  | Named of Protocol.op
  | Ids of ids
  | Add_member_id of { cls : int; member : Chg.Graph.member }

(** [rq_id] is the echoed id: any JSON value, or [Int] for a frame. *)
type request = { rq_id : Chg.Json.t; rq_session : string option; rq_op : op }

(** A decoded request, or the id to echo plus a structured error. *)
type decoded = (request, Chg.Json.t * Protocol.error_code * string) result

(** The verb name metric labels use — the same for both framings. *)
val verb : op -> string

(** Whether the networked server may run the request concurrently with
    other reads (the rest take its single writer path). *)
val read_only : op -> bool

(** One JSON line, as {!Protocol.parse_request} types it ([shallow]
    passed through: the routing decode; [pos]/[len] the line's region
    of the string). *)
val decode_line : ?shallow:bool -> ?pos:int -> ?len:int -> string -> decoded

(** [route_frame f] — what routing needs of one complete 1b frame
    (header + payload, as read off the wire): its session and whether
    it only reads, with every check the server's own decode applies,
    and no id resolved.  A failure is the id to echo (when the
    [i64 id | string session] prefix survived) and a structured error:
    [parse_error] for a header that does not frame, else
    [bad_request]. *)
val route_frame :
  string -> (string * bool, Chg.Json.t * Protocol.error_code * string) result

(** An encoder of typed results into one framing. *)
type 'a codec

(** JSON-lines responses (the document, without its newline). *)
val json : Chg.Json.t codec

(** [frame ?request out] — 1b response frames appended to [out]; the
    encoding answers the bytes appended.  Each frame echoes the 8 id
    bytes of [request] ({!Frame.id_at}; zeros without one). *)
val frame : ?request:string -> Outbuf.t -> int codec

(** [reject t codec ~verb ~id code msg] — refuse a request without
    executing it: counts as a request and an error, bumps the overload
    rejection counter when [code] is [Overloaded], passes through the
    flight recorder and request log, and returns the encoded error.
    Undecodable input ([verb] ["invalid"]) and the networked server's
    admission control and framing guards answer through here. *)
val reject :
  ?conn:int -> t -> 'a codec -> verb:string -> id:Chg.Json.t ->
  Protocol.error_code -> string -> 'a

(** [handle ?around t codec d] — {!reject} a decoding failure as
    [invalid], or execute the request inside [around codec] (default:
    run it directly).  The networked server passes its admission
    control and verb-class lock as [around]. *)
val handle :
  ?conn:int -> ?around:('a codec -> request -> (unit -> 'a) -> 'a) -> t ->
  'a codec -> decoded -> 'a

(** [handle_request t rq] / [handle_line t line] — one JSON request,
    decoded or as a line, answered with its response document. *)
val handle_request : ?conn:int -> t -> Protocol.request -> Chg.Json.t

val handle_line : ?conn:int -> t -> string -> Chg.Json.t

(** [answer_frame ?around t out f] — one complete binary
    ([cxxlookup-rpc/1b]) request frame in, its response frame appended
    to [out]; answers the bytes appended.  A lookup or batch_lookup is
    decoded in place and its verdicts written straight into [out], with
    no allocation per pair once the members' rows are built.  Malformed
    frames answer [bad_request] (a header the reader could not even
    frame, [parse_error]), with {!Frame.decode_request}'s message; never
    raises.  [around] as for {!handle}. *)
val answer_frame :
  ?conn:int -> ?around:(int codec -> request -> (unit -> int) -> int) -> t ->
  Outbuf.t -> string -> int

(** [handle_frame t frame] — {!answer_frame} into a fresh buffer: one
    request frame in, one response frame out. *)
val handle_frame : ?conn:int -> t -> string -> string

(** [serve ?after_response t ic oc] — the JSON-lines loop: read a
    request per line from [ic], write its response line to [oc]
    (flushed per line, so the server can sit on a pipe), until EOF.
    Blank lines are skipped.  [after_response] runs after each flushed
    response — the [--metrics-file] interval rewrite hook. *)
val serve : ?after_response:(unit -> unit) -> t -> in_channel -> out_channel -> unit
