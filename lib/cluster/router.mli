(** The shard router: a [cxxlookup-rpc/1] front end that spreads
    traffic — JSON lines and 1b frames alike — over a set of backends
    by rendezvous-hashing session names.

    Routing by verb class, the same for both framings:
    - reads ([lookup], [batch_lookup], [lint], [symbols], [stats]) go to the
      session's preferred backend and fail over down the preference
      order; a replica's in-band [unknown_session] is retried once on
      the leader.  Only when every candidate fails does the client see
      an explicit [backend_unavailable] — never a silently wrong
      answer.
    - mutations ([open], [mutate], [snapshot], [restore], [close]) are
      forwarded to the leader {e at most once}: connect retries and
      [overloaded] resends are safe, but a connection lost mid-request
      answers [backend_unavailable] rather than risk double-apply.
    - a JSON [batch_lookup] fans out in contiguous chunks across the
      preference order and merges in request order, byte-shaped exactly
      like a single backend's response.
    - [metrics] is answered locally from the router's own registry
      (per-backend up gauges, round-trip histograms, routing
      counters).

    Placement is memoryless — a pure hash of (session, backend
    address) — so routers scale out without coordinating.

    Client connections run on the backends' own loop
    ({!Net.Server.serve_conn}) with the same guards: an oversized line
    or frame is answered [bad_request] and the connection survives, a
    silent or dribbling client is closed at [idle_timeout], and a
    connection past [max_conns] receives one [overloaded] line.  A line
    is classified by the shallow routing decode
    ({!Service.Protocol.parse_request}): an [open]'s hierarchy is
    validated but never built.  A malformed message is answered by the
    router and never forwarded. *)

type config = {
  retries : int;  (** connect / overloaded retries per backend *)
  backoff_ms : int;  (** seed for the jittered exponential backoff *)
  max_conns : int;  (** client connections open at once *)
  idle_timeout : float;  (** seconds; also the slowloris deadline *)
  max_line : int;  (** request line / frame payload bound, bytes *)
}

(** 2 retries from a 50 ms backoff seed; the connection guards are
    {!Net.Server.default_config}'s. *)
val default_config : config

type t

(** [create ?config ~leader backends addr] — [leader] indexes into
    [backends] (the leader serves reads too).  Binds the listener
    (ephemeral TCP ports resolve immediately); raises
    [Invalid_argument] on an empty backend list or an out-of-range
    leader, [Unix.Unix_error] when the bind fails. *)
val create :
  ?config:config -> leader:int -> Net.Server.addr list -> Net.Server.addr -> t

val bound_addr : t -> Net.Server.addr

(** The router's own metric registry — what its [metrics] verb
    renders. *)
val registry : t -> Telemetry.Registry.t

(** [run t] accepts clients until {!stop} (one systhread per
    connection, serial per-connection handling), then closes every
    open connection and returns once each has finished. *)
val run : t -> unit

val stop : t -> unit
