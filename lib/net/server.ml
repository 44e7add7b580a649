module J = Chg.Json
module P = Service.Protocol

(* The networked front end for the cxxlookup-rpc/1 JSON-lines
   protocol.

   Topology: connections go round-robin to [workers] workers.  Worker 0
   is the calling domain, which runs the accept loop (an idle domain
   would still stop for every minor collection, DESIGN §11); workers 1
   and up are spawned domains fed through mailboxes.  A worker serves
   each connection on one systhread, which reads, decodes, executes and
   writes: blocking I/O releases the domain's runtime lock, so
   connections interleave within a domain while connections on
   different domains run OCaml code in parallel.

   Concurrency contract: every verb is classified by
   [Service.Server.read_only].  Read verbs execute under the shared
   side of one server-wide {!Rwlock} — concurrently across domains,
   against immutable packed columns — while mutations take it
   exclusive, the single-writer path owning the session table and the
   WAL.  A connection executes its requests one at a time on its one
   thread, so responses leave in request order and a single-connection
   transcript is byte-identical to stdin/stdout mode.

   Framing and guards: see {!serve_conn}, the connection loop this
   server shares with the cluster router.  Admission: see
   {!service_handler}.  Each connection has
   at most one request executing, so the global [queue_depth] bound can
   only refuse while it is below the number of open connections
   ([max_conns], enforced at accept). *)

type addr = Tcp of string * int | Unix_path of string

type config = {
  workers : int;
  max_conns : int;
  queue_depth : int;  (* global admission bound *)
  idle_timeout : float;  (* seconds; also the slowloris deadline *)
  max_line : int;  (* bytes, excluding the newline *)
}

let default_config =
  { workers = 1;
    max_conns = 64;
    queue_depth = 64;
    idle_timeout = 30.;
    max_line = 1 lsl 20 }

type t = {
  srv : Service.Server.t;
  cfg : config;
  lock : Rwlock.t;  (* verb-class lock: readers shared, mutations exclusive *)
  listen_fd : Unix.file_descr;
  bound : addr;  (* actual address — the ephemeral port resolved *)
  stop : bool Atomic.t;
  conns : Conns.t;  (* open sockets, for stop *)
  mailboxes : (int * Unix.file_descr) Bqueue.t array;  (* workers 1 .. *)
}

(* ---- setup ---------------------------------------------------------- *)

let resolve_host host =
  if host = "" then Unix.inet_addr_loopback
  else
    try Unix.inet_addr_of_string host
    with Failure _ ->
      (match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "cannot resolve host %S" host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" host))

(* A peer that vanished (kill -9, RST) must surface as EPIPE on the
   write path, not as a process-killing SIGPIPE — the replication
   sender and the per-connection writers all write to sockets whose
   peer may be gone. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let listen_on addr =
  ignore_sigpipe ();
  match addr with
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
    Unix.listen fd 128;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Tcp (host, p)
      | _ -> addr
    in
    (fd, bound)
  | Unix_path path ->
    (try
       if (Unix.lstat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
     with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    (fd, addr)

let create ?(config = default_config) srv addr =
  if config.workers < 1 then invalid_arg "Net.Server: workers must be >= 1";
  let listen_fd, bound = listen_on addr in
  { srv;
    cfg = config;
    lock = Rwlock.create ();
    listen_fd;
    bound;
    stop = Atomic.make false;
    conns = Conns.create ();
    mailboxes =
      Array.init (config.workers - 1) (fun _ ->
          Bqueue.create (config.max_conns + 1)) }

let bound_addr t = t.bound

(* The replica applier's hook: replication writes take the same
   exclusive side of the verb-class lock mutations would, so read verbs
   in flight never observe a session mid-apply. *)
let exclusively t f = Rwlock.with_write t.lock f

let addr_string = function
  | Tcp (host, port) ->
    Printf.sprintf "%s:%d" (if host = "" then "127.0.0.1" else host) port
  | Unix_path path -> path

(* ---- one connection, one systhread --------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let write_out fd out =
  let n = Service.Outbuf.length out in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd (Service.Outbuf.bytes out) !off (n - !off)
  done

type message =
  | Line of string
  | Frame of string
  | Bad_line of string
  | Bad_frame of string

(* The first newline in [buf] at or after [i] and before [n]; [n] when
   there is none. *)
let rec newline_in buf i n =
  if i >= n || Bytes.unsafe_get buf i = '\n' then i
  else newline_in buf (i + 1) n

(* A connection's whole life on the systhread that accepted it: read,
   split into messages, hand each complete message to [handle] (which
   appends its response bytes to the output buffer), write.  Each
   message is answered as soon as it is complete, and the buffer goes
   out in one write after the bytes of each read are consumed —
   pipelined requests that arrive together leave together, and what is
   held unsent is bounded by the responses to one read.  The server and
   the router both run their connections here.

   Framing: at each message boundary the first byte chooses — 0xB1
   starts a binary (1b) frame (6-byte header, then exactly the declared
   payload), anything else is a JSON line up to its newline.
   Negotiation is per message, so one connection may interleave
   framings freely.  Bytes move in spans: a line's bytes up to the next
   newline, or a frame's up to its declared end, are copied with one
   [Buffer.add_subbytes] per read.

   Guards, shared across framings.  Max-line: a line over the bound is
   discarded to its newline and handed over as [Bad_line]; a frame
   declaring a payload over the same bound is discarded by its known
   length and handed over as [Bad_frame] — the connection survives
   both, and the error answers in arrival order.  Idle / slowloris: the
   deadline arms at connection start and re-arms only on each
   *complete* message, so a client dribbling bytes of a never-finished
   line or frame times out exactly like a silent one.  Backpressure: a
   client that stops reading blocks this thread in [write], so the
   connection stops reading and TCP pushes back — on that client alone.
   A torn partial line or frame at close is dropped, never handled. *)
let serve_conn ~idle_timeout ~max_line fd handle timed_out =
  let out = Service.Outbuf.create 4096 in
  (* The read buffer starts at 4 KiB and becomes 64 KiB the first time
     a read fills it: a large message moves in few reads, and a
     connection of small requests keeps a small footprint. *)
  let buf = ref (Bytes.create 4096) in
  let acc = Buffer.create 256 in
  let discarding = ref false in
  let discarded = ref 0 in
  (* binary-frame state: [in_frame] accumulates into [fbuf];
     [frame_total] is the full frame length once the header is in
     (-1 before); [frame_skip] counts payload bytes of an oversized
     frame still to discard ([frame_over] its declared length) *)
  let fbuf = Buffer.create 256 in
  let in_frame = ref false in
  let frame_total = ref (-1) in
  let frame_skip = ref 0 in
  let frame_over = ref 0 in
  let deadline = ref (Unix.gettimeofday () +. idle_timeout) in
  let alive = ref true in
  let rearm () = deadline := Unix.gettimeofday () +. idle_timeout in
  let emit_line () =
    rearm ();
    if !discarding then begin
      let n = !discarded + Buffer.length acc in
      Buffer.clear acc;
      discarding := false;
      discarded := 0;
      handle out
        (Bad_line
           (Printf.sprintf "line exceeds %d bytes (%d read)" max_line n))
    end
    else begin
      (* tolerate CRLF framing from casual clients *)
      let n = Buffer.length acc in
      if n > 0 && Buffer.nth acc (n - 1) = '\r' then Buffer.truncate acc (n - 1);
      let line = Buffer.contents acc in
      Buffer.clear acc;
      (* blank lines skipped, as stdin *)
      if String.trim line <> "" then handle out (Line line)
    end
  in
  let emit_frame () =
    let f = Buffer.contents fbuf in
    Buffer.clear fbuf;
    in_frame := false;
    frame_total := -1;
    rearm ();
    handle out (Frame f)
  in
  (* Consume the bytes of [buf] from [i] (before [n]) that belong to
     the current frame; returns the next unconsumed position. *)
  let frame_span i n =
    let i =
      if !frame_total >= 0 then i
      else begin
        let k = min (Service.Frame.header_len - Buffer.length fbuf) (n - i) in
        Buffer.add_subbytes fbuf !buf i k;
        if Buffer.length fbuf = Service.Frame.header_len then begin
          match Service.Frame.parse_header (Buffer.contents fbuf) with
          | Error _ ->
            (* unreachable: the magic matched and the header is complete *)
            Buffer.clear fbuf;
            in_frame := false
          | Ok (_op, len) ->
            if len > max_line then begin
              (* discard the declared payload without buffering it *)
              Buffer.clear fbuf;
              in_frame := false;
              frame_over := len;
              frame_skip := len  (* > 0: len exceeds a positive bound *)
            end
            else frame_total := Service.Frame.header_len + len
        end;
        i + k
      end
    in
    if !frame_total < 0 then i
    else begin
      let k = min (!frame_total - Buffer.length fbuf) (n - i) in
      Buffer.add_subbytes fbuf !buf i k;
      if Buffer.length fbuf = !frame_total then emit_frame ();
      i + k
    end
  in
  (* Consume line bytes up to and including the next newline. *)
  let line_span i n =
    let j = newline_in !buf i n in
    let k = j - i in
    if !discarding then discarded := !discarded + k
    else begin
      Buffer.add_subbytes acc !buf i k;
      if Buffer.length acc > max_line then begin
        (* switch to discard mode: the line is already over budget,
           stop accumulating its bytes *)
        discarding := true;
        discarded := Buffer.length acc;
        Buffer.clear acc
      end
    end;
    if j < n then begin
      emit_line ();
      j + 1
    end
    else j
  in
  let consume n =
    let i = ref 0 in
    while !i < n do
      if !frame_skip > 0 then begin
        let k = min !frame_skip (n - !i) in
        i := !i + k;
        frame_skip := !frame_skip - k;
        if !frame_skip = 0 then begin
          rearm ();
          handle out
            (Bad_frame
               (Printf.sprintf "frame payload exceeds %d bytes (%d declared)"
                  max_line !frame_over))
        end
      end
      else if !in_frame then i := frame_span !i n
      else if
        Buffer.length acc = 0 && (not !discarding)
        && Char.code (Bytes.get !buf !i) = Service.Frame.request_magic
      then begin
        (* message boundary + 0xB1: binary framing this message *)
        in_frame := true;
        frame_total := -1;
        Buffer.clear fbuf;
        Buffer.add_char fbuf (Bytes.get !buf !i);
        incr i
      end
      else i := line_span !i n
    done
  in
  try
    while !alive do
      let wait = !deadline -. Unix.gettimeofday () in
      if wait <= 0. then begin
        timed_out := true;
        alive := false
      end
      else begin
        match Unix.select [ fd ] [] [] wait with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()  (* re-check the deadline *)
        | _ ->
          let n = try Unix.read fd !buf 0 (Bytes.length !buf) with
            | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> 0
          in
          if n = 0 then alive := false
          else begin
            consume n;
            if n = Bytes.length !buf && n = 4096 then buf := Bytes.create 65536;
            (* one write per read; a client that is gone surfaces here
               as EPIPE / ECONNRESET and ends the connection *)
            if Service.Outbuf.length out > 0 then begin
              write_out fd out;
              Service.Outbuf.clear out
            end
          end
      end
    done
  with Unix.Unix_error _ -> ()

(* The service's handler: both framings decode first, into the
   service's one request type, so a message that does not decode is
   answered [invalid] without taking an admission slot.  Past
   [queue_depth] admitted requests the verb is answered [overloaded]
   through the server's reject path (so the rejection is counted,
   logged and flight-recorded), as are the loop's guard refusals. *)
let service_handler t ~conn =
  let module S = Service.Server in
  let net = S.net t.srv in
  let overload_msg =
    Printf.sprintf "server at admission capacity (%d in flight); retry"
      t.cfg.queue_depth
  in
  let admit codec (rq : S.request) run =
    if Atomic.fetch_and_add net.S.net_admitted 1 >= t.cfg.queue_depth then begin
      Atomic.decr net.S.net_admitted;
      S.reject ~conn t.srv codec ~verb:(S.verb rq.S.rq_op) ~id:rq.S.rq_id
        P.Overloaded overload_msg
    end
    else
      Fun.protect
        ~finally:(fun () -> Atomic.decr net.S.net_admitted)
        (fun () ->
          if S.read_only rq.S.rq_op then Rwlock.with_read t.lock run
          else Rwlock.with_write t.lock run)
  in
  let answer_json out j =
    Service.Outbuf.add_string out (J.to_string j);
    Service.Outbuf.add_char out '\n'
  in
  fun out -> function
    | Line line ->
      answer_json out
        (S.handle ~conn ~around:admit t.srv S.json (S.decode_line line))
    | Frame f -> ignore (S.answer_frame ~conn ~around:admit t.srv out f)
    | Bad_line msg ->
      answer_json out
        (S.reject ~conn t.srv S.json ~verb:"invalid" ~id:J.Null P.Bad_request msg)
    | Bad_frame msg ->
      ignore
        (S.reject ~conn t.srv (S.frame out) ~verb:"invalid" ~id:(J.Int 0)
           P.Bad_request msg)

let handle_conn t ~conn fd =
  let net = Service.Server.net t.srv in
  let timed_out = ref false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr net.Service.Server.net_active;
      Telemetry.Counter.incr net.Service.Server.net_closed;
      if !timed_out then
        Telemetry.Counter.incr net.Service.Server.net_timed_out;
      Conns.close t.conns conn fd)
    (fun () ->
      serve_conn ~idle_timeout:t.cfg.idle_timeout ~max_line:t.cfg.max_line fd
        (service_handler t ~conn) timed_out)

(* ---- workers and the accept loop ------------------------------------ *)

(* A worker starts one systhread per connection and keeps no handle to
   it: the thread closes and forgets its own connection ({!Conns}),
   which is what teardown waits on. *)
let start_conn t (conn, fd) =
  ignore (Thread.create (fun () -> handle_conn t ~conn fd) ())

let rec worker_loop t mailbox () =
  match Bqueue.pop mailbox with
  | None -> ()
  | Some c ->
    start_conn t c;
    worker_loop t mailbox ()

let stop t = Atomic.set t.stop true

(* The accept loop every listener shares: poll [stop] every 0.2 s,
   accept, turn Nagle off on TCP (a pipelined client otherwise waits on
   delayed ACKs for each small response), hand the socket to [f]; on
   stop, close the listener and unlink a Unix socket path. *)
let accept_loop ~stop listen_fd bound f =
  while not (Atomic.get stop) do
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      (match Unix.accept listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        (match bound with
        | Tcp _ ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ())
        | Unix_path _ -> ());
        f fd)
  done;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  match bound with
  | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* Refuse a connection at the door, in-band: one [overloaded] line
   naming the limit, then close. *)
let refuse_conn ~max_conns fd =
  let line =
    J.to_string
      (P.error_response ~id:J.Null P.Overloaded
         (Printf.sprintf "connection limit reached (%d)" max_conns))
    ^ "\n"
  in
  (try write_all fd line with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run t =
  let net = Service.Server.net t.srv in
  let domains =
    Array.map (fun mb -> Domain.spawn (worker_loop t mb)) t.mailboxes
  in
  accept_loop ~stop:t.stop t.listen_fd t.bound (fun fd ->
      if Atomic.get net.Service.Server.net_active >= t.cfg.max_conns then begin
        Telemetry.Counter.incr net.Service.Server.net_overloaded;
        refuse_conn ~max_conns:t.cfg.max_conns fd
      end
      else begin
        let conn = Conns.add t.conns fd in
        Atomic.incr net.Service.Server.net_active;
        Telemetry.Counter.incr net.Service.Server.net_accepted;
        match (conn - 1) mod t.cfg.workers with
        | 0 -> start_conn t (conn, fd)
        | w ->
          if not (Bqueue.push t.mailboxes.(w - 1) (conn, fd)) then
            Conns.close t.conns conn fd
      end);
  (* wake every connection — a thread blocked in [select] sees EOF, one
     blocked in [write] an error — and wait until each has closed, on
     every worker; the spawned ones then find their mailboxes closed *)
  Conns.drain t.conns;
  Array.iter Bqueue.close t.mailboxes;
  Array.iter Domain.join domains
