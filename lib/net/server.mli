(** The networked front end for [cxxlookup-rpc/1]: a TCP /
    Unix-domain-socket JSON-lines server over a shared
    {!Service.Server.t}.

    Topology: connections go round-robin to [workers] workers, worker
    0 on the calling domain beside the accept loop and the rest on
    spawned domains (no idle domain joins the stop-the-world minor
    collections); each connection is served start to finish — read,
    decode, execute, write — by one systhread on its worker's domain.
    Read verbs execute concurrently under a shared {!Rwlock}; mutations
    serialize through its exclusive side — the single writer path
    owning the session table and WAL.

    Ordering: a connection executes one request at a time, so
    pipelined responses leave in request order and a single-connection
    transcript is byte-identical to stdin/stdout mode.

    Backpressure: responses are written once per socket read, so a
    connection holds at most the answers to one read; a client that
    stops reading blocks its own thread in [write], which stops that
    connection's reads, so TCP pushes back on it alone.  A global
    admission bound of [queue_depth] executing requests answers the
    excess with explicit [overloaded] protocol errors, never buffered
    without limit — with one request per connection in flight it can
    only refuse when it is below the number of open connections.
    [max_conns] is enforced at accept: the excess connection receives
    one [overloaded] line and is closed.

    Timeouts: a connection silent — or dribbling a partial line
    (slowloris) — for [idle_timeout] seconds is closed cleanly.  Lines
    over [max_line] bytes are discarded to their newline and answered
    [bad_request] in arrival order without killing the connection. *)

type addr = Tcp of string * int | Unix_path of string

type config = {
  workers : int;  (** worker domains executing requests, the caller's first *)
  max_conns : int;  (** connections accepted concurrently *)
  queue_depth : int;  (** global admission bound (requests in flight) *)
  idle_timeout : float;  (** seconds; also the slowloris deadline *)
  max_line : int;  (** request line length bound, bytes *)
}

val default_config : config

type t

(** [create ?config srv addr] binds and listens (an ephemeral TCP port
    resolves immediately — see {!bound_addr}) but accepts nothing
    until {!run}.  Raises [Unix.Unix_error] when the bind fails and
    [Invalid_argument] on a non-positive worker count. *)
val create : ?config:config -> Service.Server.t -> addr -> t

(** The actual listening address: [Tcp] with the kernel-chosen port
    when created on port 0. *)
val bound_addr : t -> addr

val addr_string : addr -> string

(** Make a vanished peer surface as EPIPE on the write path instead of
    a process-killing SIGPIPE.  Called by {!listen_on} and the client's
    connect; idempotent. *)
val ignore_sigpipe : unit -> unit

(** [listen_on addr] binds and listens, returning the socket and the
    resolved address (ephemeral TCP ports concrete).  Shared by this
    server and the cluster layer's replication / router listeners. *)
val listen_on : addr -> Unix.file_descr * addr

(** [accept_loop ~stop fd bound f] accepts connections on the listener
    [fd] (bound at [bound]) until [stop] is set, polling it every
    0.2 s, and hands each socket to [f], with [TCP_NODELAY] set on TCP.
    Then it closes the listener and unlinks a Unix socket path.  The
    accept loop of this server and of the cluster layer's replication
    and router listeners. *)
val accept_loop :
  stop:bool Atomic.t -> Unix.file_descr -> addr -> (Unix.file_descr -> unit) -> unit

(** One complete message off a connection, as {!serve_conn} hands it
    to its handler. *)
type message =
  | Line of bytes * int * int
      (** a JSON line as its region [(buf, pos, len)] of the read buffer,
          valid only until the handler returns: newline and a trailing
          CR stripped, never blank *)
  | Frame of string  (** a complete 1b request frame, header included *)
  | Bad_line of string
      (** a line over [max_line], discarded to its newline; the text is
          the [bad_request] message to answer with *)
  | Bad_frame of string
      (** a frame declaring a payload over [max_line], skipped by its
          declared length; the text as for [Bad_line] *)

(** [serve_conn ~idle_timeout ~max_line fd handle timed_out] runs one
    connection's read loop until the peer closes, the socket fails, or
    [idle_timeout] seconds pass without a complete message (then
    [timed_out] is set).  Framing is chosen per message by its first
    byte (0xB1 opens a 1b frame, anything else a JSON line).  Each
    complete message goes to [handle out msg], which appends its
    response bytes to [out]; [out] is written, with no copy, once per
    socket read.  Reads land in one buffer, kept for the connection's
    life, that grows fourfold while a message needs more, up to what it
    needs: its size follows the longest message, not [max_line].  The loop of
    this server and of the cluster router. *)
val serve_conn :
  idle_timeout:float -> max_line:int -> Unix.file_descr ->
  (Service.Outbuf.t -> message -> unit) -> bool ref -> unit

(** [refuse_conn ~max_conns fd] answers an accepted socket past the
    connection limit with one in-band [overloaded] line and closes
    it. *)
val refuse_conn : max_conns:int -> Unix.file_descr -> unit

(** [exclusively t f] runs [f] under the exclusive (writer) side of the
    server's verb-class lock — how the replication applier mutates
    sessions without racing the read verbs executing on the
    workers. *)
val exclusively : t -> (unit -> 'a) -> 'a

(** [run t] spawns workers 1 and up as domains and runs the accept
    loop and worker 0 on the calling domain until {!stop}; then it
    closes the listener, wakes every open connection (a thread blocked
    reading or writing its socket included), waits until each has
    closed and joins the spawned workers. *)
val run : t -> unit

(** Signal-safe: sets a flag the accept loop polls (≤ 0.2 s latency).
    Full teardown happens inside {!run}, never in handler context. *)
val stop : t -> unit
