(* The shard router: one front end that spreads [cxxlookup-rpc/1]
   traffic — JSON lines and 1b frames alike — over a set of backends.

   Placement is rendezvous hashing — each (session, backend) pair gets
   a score, and a session's preference order is its backends by
   descending score.  Adding or removing one backend reshuffles only
   the sessions that scored it first; no ring state, no coordination.

   Correctness over availability, per verb class:
   - reads are idempotent, so a failed backend is simply the next one's
     work: connect retries, then failover down the preference order,
     and only when every backend refused does the client see
     [backend_unavailable];
   - mutations go to the leader at most once.  Connect-time retries and
     in-band [overloaded] resends are safe (the request never
     executed); a connection that dies mid-request is not — the
     mutation may have applied — so the router answers
     [backend_unavailable] rather than resend and double-apply.
   - a [batch_lookup], in either framing, is one read: the caller's
     bytes go whole to the session's preferred backend, so only the
     backends that own a session compile its columns.

   Replicas answer [unknown_session] for sessions they have not caught
   up to (or that only the leader has seen); the router retries such
   reads once against the leader before giving the answer back.

   Connections run on the backends' own loop ({!Net.Server.serve_conn}):
   the same framing, max-line, oversized-frame and idle guards, and the
   same in-band refusal past [max_conns].  A JSON line is classified by
   the shallow routing decode — an [open]'s hierarchy is validated, not
   built — and forwarded as the caller's bytes.  Per-connection
   handling is serial, so responses leave in request order, like the
   backends themselves. *)

module J = Chg.Json
module P = Service.Protocol
module S = Service.Server

type config = {
  retries : int;  (** connect / overloaded retries per backend *)
  backoff_ms : int;  (** seed for the jittered exponential backoff *)
  max_conns : int;  (** client connections open at once *)
  idle_timeout : float;  (** seconds; also the slowloris deadline *)
  max_line : int;  (** request line / frame payload bound, bytes *)
}

let default_config =
  { retries = 2;
    backoff_ms = 50;
    max_conns = Net.Server.default_config.max_conns;
    idle_timeout = Net.Server.default_config.idle_timeout;
    max_line = Net.Server.default_config.max_line }

type t = {
  backends : Net.Server.addr array;
  names : string array;  (* the backends' address strings, for placement *)
  leader : int;  (* index into [backends] *)
  cfg : config;
  registry : Telemetry.Registry.t;
  listen_fd : Unix.file_descr;
  bound : Net.Server.addr;
  stop : bool Atomic.t;
  conns : Net.Conns.t;
  active : int Atomic.t;  (* open client connections *)
  alive : bool array;  (* last-known backend health, feeds the gauges *)
  be_hist : Telemetry.Histogram.t array;  (* per-backend round-trip ns *)
  requests : Telemetry.Counter.t;
  forwards : Telemetry.Counter.t;
  failovers : Telemetry.Counter.t;
  leader_retries : Telemetry.Counter.t;
  unavailable : Telemetry.Counter.t;
  refused : Telemetry.Counter.t;
  timed_out : Telemetry.Counter.t;
}

let create ?(config = default_config) ~leader backends =
  let backends = Array.of_list backends in
  if Array.length backends = 0 then
    invalid_arg "Cluster.Router: at least one backend required";
  if leader < 0 || leader >= Array.length backends then
    invalid_arg "Cluster.Router: leader index out of range";
  fun addr ->
    let listen_fd, bound = Net.Server.listen_on addr in
    let registry = Telemetry.Registry.create () in
    let t =
      { backends;
        names = Array.map Net.Server.addr_string backends;
        leader;
        cfg = config;
        registry;
        listen_fd;
        bound;
        stop = Atomic.make false;
        conns = Net.Conns.create ();
        active = Atomic.make 0;
        alive = Array.make (Array.length backends) true;
        be_hist = Array.init (Array.length backends) (fun _ -> Telemetry.Histogram.create ());
        requests = Telemetry.Counter.make "router_requests";
        forwards = Telemetry.Counter.make "router_forwards";
        failovers = Telemetry.Counter.make "router_failovers";
        leader_retries = Telemetry.Counter.make "router_leader_retries";
        unavailable = Telemetry.Counter.make "router_unavailable";
        refused = Telemetry.Counter.make "router_connections_refused";
        timed_out = Telemetry.Counter.make "router_connections_timed_out" }
    in
    Array.iteri
      (fun i addr ->
        let labels = [ ("backend", Net.Server.addr_string addr) ] in
        Telemetry.Registry.gauge registry ~labels
          ~help:"1 while the backend answered its last contact."
          "cxxlookup_router_backend_up"
          (fun () -> if t.alive.(i) then 1 else 0);
        Telemetry.Registry.attach_histogram registry ~labels
          ~help:"Round-trip time of proxied requests, per backend."
          "cxxlookup_router_backend_rtt_ns" t.be_hist.(i))
      backends;
    Telemetry.Registry.attach_counter registry
      ~help:"Requests routed." "cxxlookup_router_requests_total" t.requests;
    Telemetry.Registry.attach_counter registry
      ~help:"Mutations forwarded to the leader."
      "cxxlookup_router_forwards_total" t.forwards;
    Telemetry.Registry.attach_counter registry
      ~help:"Reads moved to another backend after a connection failure."
      "cxxlookup_router_failovers_total" t.failovers;
    Telemetry.Registry.attach_counter registry
      ~help:"Reads retried on the leader after a replica's unknown_session."
      "cxxlookup_router_leader_retries_total" t.leader_retries;
    Telemetry.Registry.attach_counter registry
      ~help:"Requests answered backend_unavailable: every candidate failed."
      "cxxlookup_router_unavailable_total" t.unavailable;
    Telemetry.Registry.attach_counter registry
      ~help:"Connections refused at accept: max_conns were open."
      "cxxlookup_router_connections_refused_total" t.refused;
    Telemetry.Registry.attach_counter registry
      ~help:"Connections closed by the idle / slowloris deadline."
      "cxxlookup_router_connections_timed_out_total" t.timed_out;
    t

let bound_addr t = t.bound
let registry t = t.registry

(* ---- placement ------------------------------------------------------ *)

(* Unsigned rendezvous score; descending scores order a session's
   backends.  Pure function of (session, backend address), so every
   router instance agrees without talking.  Each backend is scored once
   per request. *)
let preference t session =
  let keyed =
    Array.mapi
      (fun i name ->
        ( Int32.to_int (Chg.Binary.crc32_string (session ^ "|" ^ name))
          land 0xffffffff,
          i ))
      t.names
  in
  Array.sort (fun a b -> compare b a) keyed;
  Array.to_list (Array.map snd keyed)

(* ---- per-connection backend pool ------------------------------------ *)

(* Each router connection owns one lazily-dialed client per backend:
   per-connection request order stays serial and slots never need
   locking. *)
type pool = { router : t; slots : Net.Client.t option array }

let make_pool t = { router = t; slots = Array.make (Array.length t.backends) None }

let close_slot p i =
  (match p.slots.(i) with
  | Some c -> ( try Net.Client.close c with _ -> ())
  | None -> ());
  p.slots.(i) <- None

(* A slot dropped on failure also marks the backend down; closing our
   own pooled connection at teardown says nothing about its health. *)
let drop_slot p i =
  close_slot p i;
  p.router.alive.(i) <- false

let close_pool p = Array.iteri (fun i _ -> close_slot p i) p.slots

(* A pooled slot is reused only while its backend still holds the
   connection open: a backend's idle timeout closes it from the far
   side, and a request sent into it would fail after the fact — a
   mutation unconfirmed, a read failed over away from a healthy
   backend.  Redialing before anything is sent is always safe. *)
let client p i =
  match p.slots.(i) with
  | Some c when not (Net.Client.closed_by_peer c) -> Some c
  | slot ->
    if slot <> None then close_slot p i;
    (match
       Net.Client.connect ~retries:p.router.cfg.retries
         ~backoff_ms:p.router.cfg.backoff_ms p.router.backends.(i)
     with
    | exception (Unix.Unix_error _ | Sys_error _) ->
      p.router.alive.(i) <- false;
      None
    | c ->
      p.slots.(i) <- Some c;
      p.router.alive.(i) <- true;
      Some c)

(* ---- the two framings ------------------------------------------------

   What routing needs of a framing: one admitted round trip of a
   request ['m] (a JSON line's region of the connection's buffer, or a
   frame), the in-band error code of a response, and an error of its
   own in the caller's framing, echoing the request's id ([id] for a
   JSON line, the id bytes of the [request] frame).  Only an error
   response is parsed for its code. *)

type 'm codec = {
  send :
    ?retries:int -> ?backoff_ms:int -> Net.Client.t -> 'm -> string option;
  error_code : string -> string option;
  make_error : request:'m -> id:J.t -> P.error_code -> string -> string;
}

let json =
  { send =
      (fun ?retries ?backoff_ms c (s, pos, len) ->
        Net.Client.request_admitted ?retries ?backoff_ms ~pos ~len c s);
    error_code =
      (fun resp ->
        if not (P.may_be_error resp) then None
        else
          match J.of_string resp with
          | Error _ -> None
          | Ok j ->
            (match J.member "error" j with
            | Ok e ->
              (match J.member "code" e with Ok (J.String c) -> Some c | _ -> None)
            | Error _ -> None));
    make_error =
      (fun ~request:_ ~id code msg -> J.to_string (P.error_response ~id code msg)) }

(* Error frames (status 1) decode independently of the op, so probing
   with any op is sound; other frames yield [None]. *)
let frame =
  { send = Net.Client.request_frame_admitted;
    error_code =
      (fun resp ->
        if String.length resp < 2 || Char.code resp.[1] <> 1 then None
        else
          match Service.Frame.decode_response ~op:Service.Frame.op_lookup resp with
          | Ok (_, Service.Frame.Err (code, _)) -> Some (P.code_string code)
          | _ -> None);
    make_error =
      (fun ~request ~id:_ code msg ->
        Service.Frame.echo_id ~request
          (Service.Frame.encode_response ~id:0 (Service.Frame.Err (code, msg)))) }

(* One round trip against backend [i]; [None] = connection-level
   failure (slot dropped, caller may fail over). *)
let exchange codec p i msg =
  match client p i with
  | None -> None
  | Some c ->
    let t0 = Telemetry.Clock.now_ns () in
    (match
       codec.send ~retries:p.router.cfg.retries
         ~backoff_ms:p.router.cfg.backoff_ms c msg
     with
    | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) ->
      drop_slot p i;
      None
    | None ->
      drop_slot p i;
      None
    | Some resp ->
      Telemetry.Histogram.record p.router.be_hist.(i)
        (Telemetry.Clock.elapsed_ns ~since:t0);
      p.router.alive.(i) <- true;
      Some resp)

let unavailable codec ~request ~id msg =
  codec.make_error ~request ~id P.Backend_unavailable msg

let unknown_session codec resp =
  codec.error_code resp = Some (P.code_string P.Unknown_session)

(* ---- routing -------------------------------------------------------- *)

(* Reads are idempotent: walk the preference order until a backend
   answers.  A replica that has not (yet) seen the session answers
   [unknown_session] in band — retry that once on the leader, which by
   definition has everything. *)
let route_read codec p ~id ~order msg =
  let rec walk tried = function
    | [] ->
      Telemetry.Counter.incr p.router.unavailable;
      unavailable codec ~request:msg ~id
        (Printf.sprintf "no backend reachable (%d tried)" tried)
    | i :: rest ->
      (match exchange codec p i msg with
      | None ->
        if rest <> [] then Telemetry.Counter.incr p.router.failovers;
        walk (tried + 1) rest
      | Some resp ->
        if i <> p.router.leader && unknown_session codec resp then begin
          Telemetry.Counter.incr p.router.leader_retries;
          match exchange codec p p.router.leader msg with
          | Some resp' -> resp'
          | None -> resp  (* leader gone: the replica's answer stands *)
        end
        else resp)
  in
  walk 0 order

(* Mutations: leader only, at most once past the point a request may
   have executed. *)
let route_mutation codec p ~id msg =
  Telemetry.Counter.incr p.router.forwards;
  match exchange codec p p.router.leader msg with
  | Some resp -> resp
  | None ->
    Telemetry.Counter.incr p.router.unavailable;
    unavailable codec ~request:msg ~id
      "leader unreachable; the mutation was not confirmed and will not \
       be resent"

(* ---- the front end -------------------------------------------------- *)

let handle_metrics t ~id =
  J.to_string
    (P.ok_response ~id
       [ ("format", J.String "text/plain; version=0.0.4");
         ("body", J.String (Telemetry.Prometheus.render t.registry)) ])

(* One JSON line, classified by the shallow decode.  Undecodable
   messages are answered here, never forwarded. *)
let respond p (decoded : S.decoded) line =
  Telemetry.Counter.incr p.router.requests;
  match decoded with
  | Error (id, code, m) -> json.make_error ~request:line ~id code m
  | Ok rq ->
    let id = rq.S.rq_id in
    (match rq.S.rq_op with
    | S.Named P.Metrics -> handle_metrics p.router ~id
    | op when S.read_only op ->
      let order =
        match rq.S.rq_session with
        | Some s -> preference p.router s
        | None ->
          (* session-less reads (service-level stats): any backend *)
          List.init (Array.length p.router.backends) Fun.id
      in
      route_read json p ~id ~order line
    | _ -> route_mutation json p ~id line)

(* One 1b frame, classified without resolving anything and forwarded
   whole. *)
let respond_frame p f =
  Telemetry.Counter.incr p.router.requests;
  match S.route_frame f with
  | Error (id, code, m) -> frame.make_error ~request:f ~id code m
  | Ok (session, true) ->
    route_read frame p ~id:J.Null ~order:(preference p.router session) f
  | Ok (_, false) -> route_mutation frame p ~id:J.Null f

(* The router's handler on the shared connection loop: answer from
   the shallow decode, forward the caller's own bytes. *)
let handle_message p out =
  let line s =
    Service.Outbuf.add_string out s;
    Service.Outbuf.add_char out '\n'
  in
  function
  | Net.Server.Line (b, pos, len) ->
    let s = Bytes.unsafe_to_string b in
    line (respond p (S.decode_line ~shallow:true ~pos ~len s) (s, pos, len))
  | Net.Server.Frame f -> Service.Outbuf.add_string out (respond_frame p f)
  | Net.Server.Bad_line msg ->
    line (respond p (Error (J.Null, P.Bad_request, msg)) ("", 0, 0))
  | Net.Server.Bad_frame msg ->
    Telemetry.Counter.incr p.router.requests;
    Service.Outbuf.add_string out
      (frame.make_error ~request:"" ~id:J.Null P.Bad_request msg)

let handle_conn t conn fd =
  let p = make_pool t in
  let timed_out = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_pool p;
      Atomic.decr t.active;
      if !timed_out then Telemetry.Counter.incr t.timed_out;
      Net.Conns.close t.conns conn fd)
    (fun () ->
      Net.Server.serve_conn ~idle_timeout:t.cfg.idle_timeout
        ~max_line:t.cfg.max_line fd (handle_message p) timed_out)

let stop t = Atomic.set t.stop true

let run t =
  Net.Server.accept_loop ~stop:t.stop t.listen_fd t.bound (fun fd ->
      if Atomic.get t.active >= t.cfg.max_conns then begin
        Telemetry.Counter.incr t.refused;
        Net.Server.refuse_conn ~max_conns:t.cfg.max_conns fd
      end
      else begin
        let conn = Net.Conns.add t.conns fd in
        Atomic.incr t.active;
        ignore (Thread.create (fun () -> handle_conn t conn fd) ())
      end);
  Net.Conns.drain t.conns
