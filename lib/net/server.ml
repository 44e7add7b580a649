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
  | Line of bytes * int * int
  | Frame of string
  | Bad_line of string
  | Bad_frame of string

(* The first newline in [b.[i .. j - 1]], or [j]: a word at a time
   while no byte of the word xor '\n' is zero *)
let rec newline b i j =
  if
    i + 8 <= j
    && Int64.(
         let x = logxor (Bytes.get_int64_ne b i) 0x0a0a0a0a0a0a0a0aL in
         logand (logand (sub x 0x0101010101010101L) (lognot x))
           0x8080808080808080L = 0L)
  then newline b (i + 8) j
  else if i >= j || Bytes.unsafe_get b i = '\n' then i
  else newline b (i + 1) j

(* [b.[i .. j - 1]] is blank as [String.trim] sees it (a line holds no
   newline) *)
let rec blank b i j =
  i >= j
  || match Bytes.unsafe_get b i with
     | ' ' | '\012' | '\r' | '\t' -> blank b (i + 1) j
     | _ -> false

(* A connection's whole life on the systhread that accepted it: read,
   split into messages, hand each complete message to [handle] (which
   appends its response bytes to the output buffer), write.  Each
   message is answered as soon as it is complete, and the buffer goes
   out in one write after the bytes of each read are consumed —
   pipelined requests that arrive together leave together, and what is
   held unsent is bounded by the responses to one read.  The server and
   the router both run their connections here.

   One read buffer, kept for the connection's life: reads land at its
   fill point, a line is handed over where it lies and a frame as one
   copy, and only new bytes are scanned for a newline.  When it is
   full, what is left moves to the front — into a 64 KiB buffer the
   first time, later into one four times as large, up to what the
   message needs.

   Framing: at each message boundary the first byte chooses — 0xB1
   starts a binary (1b) frame (6-byte header, then exactly the declared
   payload), anything else is a JSON line up to its newline.
   Negotiation is per message, so one connection may interleave
   framings freely.

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
  let hdr = Service.Frame.header_len in
  let buf = ref (Bytes.create 4096) in
  (* [!buf.[start .. fill - 1]] is not handed over yet; no newline lies
     before [scan]; the message at [start] needs a buffer of [need] *)
  let start = ref 0 and fill = ref 0 and scan = ref 0 and need = ref 0 in
  (* bytes of an over-long line discarded so far, -1 outside one *)
  let discarded = ref (-1) in
  (* payload bytes of an oversized frame still to skip, and its
     declared length *)
  let frame_skip = ref 0 and frame_over = ref 0 in
  let deadline = ref (Unix.gettimeofday () +. idle_timeout) in
  let alive = ref true in
  let rearm () = deadline := Unix.gettimeofday () +. idle_timeout in
  let rec consume () =
    let b = !buf and i = !start in
    let avail = !fill - i in
    if !frame_skip > 0 then begin
      let k = min !frame_skip avail in
      start := i + k;
      frame_skip := !frame_skip - k;
      if !frame_skip = 0 then begin
        rearm ();
        handle out
          (Bad_frame
             (Printf.sprintf "frame payload exceeds %d bytes (%d declared)"
                max_line !frame_over));
        consume ()
      end
    end
    else if avail = 0 then ()
    else if
      !discarded < 0
      && Char.code (Bytes.unsafe_get b i) = Service.Frame.request_magic
    then begin
      (* message boundary + 0xB1: binary framing this message *)
      need := hdr;
      if avail >= hdr then begin
        let len = Int32.to_int (Bytes.get_int32_le b (i + 2)) land 0xffffffff in
        if len > max_line then begin
          (* discard the declared payload without buffering it *)
          start := i + hdr;
          frame_over := len;
          frame_skip := len;  (* > 0: len exceeds a positive bound *)
          consume ()
        end
        else if avail >= hdr + len then begin
          start := i + hdr + len;
          rearm ();
          handle out (Frame (Bytes.sub_string b i (hdr + len)));
          consume ()
        end
        else need := hdr + len
      end
    end
    else begin
      let j = newline b (max !scan i) !fill in
      if j < !fill then begin
        start := j + 1;
        rearm ();
        let n = j - i in
        if !discarded >= 0 || n > max_line then begin
          let n = max 0 !discarded + n in
          discarded := -1;
          handle out
            (Bad_line
               (Printf.sprintf "line exceeds %d bytes (%d read)" max_line n))
        end
        else begin
          (* tolerate CRLF framing from casual clients *)
          let n = if n > 0 && Bytes.get b (j - 1) = '\r' then n - 1 else n in
          (* blank lines skipped, as stdin *)
          if not (blank b i (i + n)) then handle out (Line (b, i, n))
        end;
        consume ()
      end
      else if !discarded >= 0 || avail > max_line then begin
        (* over budget with no newline yet: drop what is here *)
        discarded := max 0 !discarded + avail;
        start := !fill
      end
      else begin
        scan := !fill;
        need := max_line + hdr
      end
    end
  in
  (* Once all is handed over, or the buffer is full, what is left moves
     to the front: of a 64 KiB buffer the first time it is full, of one
     four times the size when the message needs more.  A full buffer
     with a message at its front is smaller than that message needs; a
     line's need is only bounded by [max_line], so growing by a factor
     keeps the buffer within four times what the longest line took,
     and the factor of four copies a 658 KB line twice (64 KiB, then
     256 KiB) where doubling copied it four times. *)
  let make_room () =
    let size = Bytes.length !buf and n = !fill - !start in
    if n = 0 || !fill = size then begin
      let b =
        if !fill = size && size < 65536 then Bytes.create 65536
        else if n > 0 && !need > size then Bytes.create (min !need (4 * size))
        else !buf
      in
      Bytes.blit !buf !start b 0 n;
      buf := b;
      scan := !scan - !start;
      start := 0;
      fill := n
    end
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
          let n = try Unix.read fd !buf !fill (Bytes.length !buf - !fill) with
            | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> 0
          in
          if n = 0 then alive := false
          else begin
            fill := !fill + n;
            consume ();
            make_room ();
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
    | Line (b, pos, len) ->
      answer_json out
        (S.handle ~conn ~around:admit t.srv S.json
           (S.decode_line ~pos ~len (Bytes.unsafe_to_string b)))
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
