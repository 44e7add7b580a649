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
   - a JSON [batch_lookup] fans out in contiguous chunks, one per backend in
     preference order, and the merged response preserves request order
     and the single-server field shape exactly.  A chunk whose backend
     dies mid-fan-out is re-routed (reads again); the merge is whole or
     not at all.

   Replicas answer [unknown_session] for sessions they have not caught
   up to (or that only the leader has seen); the router retries such
   reads once against the leader before giving the answer back.

   Per-connection handling is serial, so responses leave in request
   order, like the backends themselves. *)

module J = Chg.Json
module P = Service.Protocol
module S = Service.Server

type config = {
  retries : int;  (** connect / overloaded retries per backend *)
  backoff_ms : int;  (** seed for the jittered exponential backoff *)
}

let default_config = { retries = 2; backoff_ms = 50 }

type t = {
  backends : Net.Server.addr array;
  leader : int;  (* index into [backends] *)
  cfg : config;
  registry : Telemetry.Registry.t;
  listen_fd : Unix.file_descr;
  bound : Net.Server.addr;
  stop : bool Atomic.t;
  conns : Net.Conns.t;
  alive : bool array;  (* last-known backend health, feeds the gauges *)
  be_hist : Telemetry.Histogram.t array;  (* per-backend round-trip ns *)
  requests : Telemetry.Counter.t;
  forwards : Telemetry.Counter.t;
  failovers : Telemetry.Counter.t;
  fanouts : Telemetry.Counter.t;
  leader_retries : Telemetry.Counter.t;
  unavailable : Telemetry.Counter.t;
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
        leader;
        cfg = config;
        registry;
        listen_fd;
        bound;
        stop = Atomic.make false;
        conns = Net.Conns.create ();
        alive = Array.make (Array.length backends) true;
        be_hist = Array.init (Array.length backends) (fun _ -> Telemetry.Histogram.create ());
        requests = Telemetry.Counter.make "router_requests";
        forwards = Telemetry.Counter.make "router_forwards";
        failovers = Telemetry.Counter.make "router_failovers";
        fanouts = Telemetry.Counter.make "router_fanouts";
        leader_retries = Telemetry.Counter.make "router_leader_retries";
        unavailable = Telemetry.Counter.make "router_unavailable" }
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
      ~help:"batch_lookup requests fanned out over several backends."
      "cxxlookup_router_fanouts_total" t.fanouts;
    Telemetry.Registry.attach_counter registry
      ~help:"Reads retried on the leader after a replica's unknown_session."
      "cxxlookup_router_leader_retries_total" t.leader_retries;
    Telemetry.Registry.attach_counter registry
      ~help:"Requests answered backend_unavailable: every candidate failed."
      "cxxlookup_router_unavailable_total" t.unavailable;
    t

let bound_addr t = t.bound
let registry t = t.registry

(* ---- placement ------------------------------------------------------ *)

(* Unsigned rendezvous score; descending scores order a session's
   backends.  Pure function of (session, backend address), so every
   router instance agrees without talking. *)
let score session addr =
  Int32.to_int
    (Chg.Binary.crc32_string (session ^ "|" ^ Net.Server.addr_string addr))
  land 0xffffffff

let preference t session =
  let idx = Array.init (Array.length t.backends) Fun.id in
  let key i = (score session t.backends.(i), i) in
  Array.sort (fun a b -> compare (key b) (key a)) idx;
  Array.to_list idx

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

let client p i =
  match p.slots.(i) with
  | Some c -> Some c
  | None ->
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

   What routing needs of a framing: one admitted round trip, the
   in-band error code of a response, and an error of its own in the
   caller's framing. *)

type codec = {
  send :
    ?retries:int -> ?backoff_ms:int -> Net.Client.t -> string -> string option;
  error_code : string -> string option;
  make_error : id:J.t -> P.error_code -> string -> string;
}

let json =
  { send = Net.Client.request_admitted;
    error_code =
      (fun resp ->
        match J.of_string resp with
        | Error _ -> None
        | Ok j ->
          (match J.member "error" j with
          | Ok e ->
            (match J.member "code" e with Ok (J.String c) -> Some c | _ -> None)
          | Error _ -> None));
    make_error =
      (fun ~id code msg -> J.to_string (P.error_response ~id code msg)) }

(* Error frames decode independently of the op, so probing with any op
   is sound; non-error (or undecodable) frames yield [None]. *)
let frame =
  { send = Net.Client.request_frame_admitted;
    error_code =
      (fun resp ->
        match Service.Frame.decode_response ~op:Service.Frame.op_lookup resp with
        | Ok (_, Service.Frame.Err (code, _)) -> Some (P.code_string code)
        | _ -> None);
    make_error =
      (fun ~id code msg ->
        let id = match id with J.Int n -> n | _ -> 0 in
        Service.Frame.encode_response ~id (Service.Frame.Err (code, msg))) }

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

let unavailable codec ~id msg = codec.make_error ~id P.Backend_unavailable msg

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
      unavailable codec ~id
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
    unavailable codec ~id
      "leader unreachable; the mutation was not confirmed and will not \
       be resent"

(* ---- batch fan-out -------------------------------------------------- *)

let chunk_line ~session ~semantics k queries =
  J.to_string
    (J.Obj
       ([ ("id", J.Int k);
          ("op", J.String "batch_lookup");
          ("session", J.String session) ]
       @ (match semantics with
         | Mro.Cpp -> []  (* absent = cpp: keep legacy lines verbatim *)
         | Mro.Linearized _ ->
           [ ("semantics", J.String (Mro.semantics_string semantics)) ])
       @ [ ("queries",
            J.List
              (List.map
                 (fun (q : P.query) ->
                   J.Obj
                     [ ("class", J.String q.P.q_class);
                       ("member", J.String q.P.q_member) ])
                 queries)) ]))

(* Split [qs] into at most [n] contiguous chunks of near-equal size. *)
let chunks n qs =
  let len = List.length qs in
  let n = max 1 (min n len) in
  let base = len / n and extra = len mod n in
  let rec take k xs acc =
    if k = 0 then (List.rev acc, xs)
    else match xs with [] -> (List.rev acc, []) | x :: r -> take (k - 1) r (x :: acc)
  in
  let rec go i xs =
    if i = n then []
    else
      let size = base + if i < extra then 1 else 0 in
      let c, rest = take size xs [] in
      c :: go (i + 1) rest
  in
  go 0 qs

type sub = Ok_fields of J.t list * int * int * int | In_band of string

(* Decode one sub-response into its merge contribution. *)
let sub_of_response resp =
  match J.of_string resp with
  | Error e -> Error ("backend sent unparseable response: " ^ e)
  | Ok j ->
    (match J.member "ok" j with
    | Ok (J.Bool true) ->
      (match
         ( J.member "results" j,
           J.member "resolved" j,
           J.member "ambiguous" j,
           J.member "not_found" j )
       with
      | Ok (J.List rs), Ok (J.Int a), Ok (J.Int b), Ok (J.Int c) ->
        Ok (Ok_fields (rs, a, b, c))
      | _ -> Error "backend response missing batch fields")
    | _ -> Ok (In_band resp))

(* Fan a batch out chunk-per-backend in preference order, re-route
   chunks whose backend died, merge in request order.  In-band errors
   (unknown_session on a lagging replica) send the chunk to the
   leader; if the leader also answers in band, that error is the whole
   request's answer — a partial merge is never returned. *)
let route_batch p ~id ~session ~semantics ~order queries =
  let cs = chunks (List.length order) queries in
  if List.length cs <= 1 then
    route_read json p ~id ~order (chunk_line ~session ~semantics 0 queries)
    |> fun resp ->
    (match sub_of_response resp with
    | Ok (Ok_fields (rs, a, b, c)) ->
      J.to_string
        (P.ok_response ~id
           [ ("results", J.List rs);
             ("resolved", J.Int a);
             ("ambiguous", J.Int b);
             ("not_found", J.Int c) ])
    | Ok (In_band resp') -> resp'
    | Error msg ->
      Telemetry.Counter.incr p.router.unavailable;
      unavailable json ~id msg)
  else begin
    Telemetry.Counter.incr p.router.fanouts;
    let order_arr = Array.of_list order in
    let n = Array.length order_arr in
    (* serve one chunk to a result, failing over within the preference
       order starting at the chunk's home backend *)
    let serve k queries =
      let line = chunk_line ~session ~semantics k queries in
      let rec walk attempts j =
        if attempts = n then Error "no backend reachable for batch chunk"
        else
          let i = order_arr.(j mod n) in
          match exchange json p i line with
          | None ->
            Telemetry.Counter.incr p.router.failovers;
            walk (attempts + 1) (j + 1)
          | Some resp ->
            (match sub_of_response resp with
            | Ok (In_band resp') when
                i <> p.router.leader && unknown_session json resp' ->
              Telemetry.Counter.incr p.router.leader_retries;
              (match exchange json p p.router.leader line with
              | None -> Error "leader unreachable for batch chunk"
              | Some resp'' ->
                (match sub_of_response resp'' with
                | Ok s -> Ok s
                | Error e -> Error e))
            | Ok s -> Ok s
            | Error e -> Error e)
      in
      walk 0 k
    in
    let rec merge k acc_rs a b c = function
      | [] ->
        J.to_string
          (P.ok_response ~id
             [ ("results", J.List (List.concat (List.rev acc_rs)));
               ("resolved", J.Int a);
               ("ambiguous", J.Int b);
               ("not_found", J.Int c) ])
      | q :: rest ->
        (match serve k q with
        | Ok (Ok_fields (rs, a', b', c')) ->
          merge (k + 1) (rs :: acc_rs) (a + a') (b + b') (c + c') rest
        | Ok (In_band resp) ->
          (* surface the backend's own error, under the caller's id *)
          (match J.of_string resp with
          | Ok j ->
            (match (J.member "error" j, J.member "ok" j) with
            | Ok e, _ ->
              (match (J.member "code" e, J.member "message" e) with
              | Ok (J.String _), Ok (J.String _) ->
                J.to_string
                  (J.Obj [ ("id", id); ("ok", J.Bool false); ("error", e) ])
              | _ -> unavailable json ~id "backend sent a malformed error")
            | _ -> unavailable json ~id "backend sent a malformed error")
          | Error _ -> unavailable json ~id "backend sent a malformed error")
        | Error msg ->
          Telemetry.Counter.incr p.router.unavailable;
          unavailable json ~id msg)
    in
    merge 0 [] 0 0 0 cs
  end

(* ---- the front end -------------------------------------------------- *)

let handle_metrics t ~id =
  J.to_string
    (P.ok_response ~id
       [ ("format", J.String "text/plain; version=0.0.4");
         ("body", J.String (Telemetry.Prometheus.render t.registry)) ])

(* One decoded message in either framing.  Frames route whole — the
   router decodes them only to classify, then forwards the caller's
   bytes — and a 1b batch is routed as one read, not fanned out:
   interned ids are per-backend-session state, so re-chunking would buy
   nothing.  Undecodable messages are answered here, never forwarded. *)
let respond p codec (decoded : S.decoded) msg =
  Telemetry.Counter.incr p.router.requests;
  match decoded with
  | Error (id, code, m) -> codec.make_error ~id code m
  | Ok rq ->
    let id = rq.S.rq_id in
    (match rq.S.rq_op with
    | S.Named P.Metrics -> handle_metrics p.router ~id
    | S.Named (P.Batch_lookup { bl_queries = qs; bl_semantics })
      when rq.S.rq_session <> None && qs <> [] ->
      let session = Option.get rq.S.rq_session in
      route_batch p ~id ~session ~semantics:bl_semantics
        ~order:(preference p.router session) qs
    | op when S.read_only op ->
      let order =
        match rq.S.rq_session with
        | Some s -> preference p.router s
        | None ->
          (* session-less reads (service-level stats): any backend *)
          List.init (Array.length p.router.backends) Fun.id
      in
      route_read codec p ~id ~order msg
    | _ -> route_mutation codec p ~id msg)

(* Finish a line whose first byte was already consumed (it was not the
   frame magic).  Mirrors [In_channel.input_line]: a final unterminated
   line is still returned. *)
let read_line_after ic first =
  let b = Buffer.create 256 in
  Buffer.add_char b first;
  let rec go () =
    match input_char ic with
    | '\n' -> Buffer.contents b
    | c ->
      Buffer.add_char b c;
      go ()
    | exception End_of_file -> Buffer.contents b
  in
  go ()

(* Read the remainder of a binary frame after its 0xB1 magic byte;
   [None] on a torn frame (connection closes, like a torn line). *)
let read_frame_after ic =
  match really_input_string ic (Service.Frame.header_len - 1) with
  | exception End_of_file -> None
  | rest ->
    let hdr = String.make 1 (Char.chr Service.Frame.request_magic) ^ rest in
    (match Service.Frame.parse_header hdr with
    | Error _ -> None
    | Ok (_op, len) ->
      (match really_input_string ic len with
      | exception End_of_file -> None
      | body -> Some (hdr ^ body)))

let handle_conn t conn fd =
  let p = make_pool t in
  Fun.protect
    ~finally:(fun () ->
      close_pool p;
      Net.Conns.close t.conns conn fd)
    (fun () ->
      try
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let continue = ref true in
        while !continue && not (Atomic.get t.stop) do
          (* per-message framing negotiation, like the backends: 0xB1
             opens a binary frame, anything else a JSON line *)
          match input_char ic with
          | exception End_of_file -> continue := false
          | '\n' -> ()  (* blank line, skipped *)
          | c when Char.code c = Service.Frame.request_magic ->
            (match read_frame_after ic with
            | None -> continue := false
            | Some f ->
              output_string oc (respond p frame (S.request_of_frame f) f);
              flush oc)
          | c ->
            let line = read_line_after ic c in
            if String.trim line <> "" then begin
              output_string oc (respond p json (S.decode_line line) line);
              output_char oc '\n';
              flush oc
            end
        done
      with Sys_error _ | Unix.Unix_error _ | End_of_file -> ())

let stop t = Atomic.set t.stop true

let run t =
  Net.Server.accept_loop ~stop:t.stop t.listen_fd t.bound (fun fd ->
      let conn = Net.Conns.add t.conns fd in
      ignore (Thread.create (fun () -> handle_conn t conn fd) ()));
  Net.Conns.drain t.conns
