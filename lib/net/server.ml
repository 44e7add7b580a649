module J = Chg.Json
module P = Service.Protocol

(* The networked front end for the cxxlookup-rpc/1 JSON-lines
   protocol.

   Topology: the accept loop runs on the calling domain; [workers]
   spawned domains each own a mailbox of freshly accepted connections,
   filled round-robin.  A worker serves every connection assigned to it
   on one systhread, which reads, decodes, executes and writes: blocking
   I/O releases the domain's runtime lock, so connections interleave
   within a domain while connections on different domains run OCaml
   code in parallel.

   Concurrency contract: every verb is classified by
   [Service.Server.read_only].  Read verbs execute under the shared
   side of one server-wide {!Rwlock} — concurrently across domains,
   against immutable packed columns — while mutations take it
   exclusive, the single-writer path owning the session table and the
   WAL.  A connection executes its requests one at a time on its one
   thread, so responses leave in request order and a single-connection
   transcript is byte-identical to stdin/stdout mode.

   Backpressure and admission: see {!serve_conn}.  Each connection has
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
  mailboxes : (int * Unix.file_descr) Bqueue.t array;  (* one per worker *)
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
      Array.init config.workers (fun _ ->
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

(* A connection's whole life on the systhread that accepted it from
   the mailbox: read, split into messages, decode, execute, encode,
   write.  Each message is answered as soon as it is complete, into one
   output buffer, and the buffer goes out in one write after the bytes
   of each read are consumed — pipelined requests that arrive together
   leave together, and what is held unsent is bounded by the responses
   to one read.

   Framing: at each message boundary the first byte chooses — 0xB1
   starts a binary (1b) frame (6-byte header, then exactly the declared
   payload), anything else is a JSON line up to its newline.
   Negotiation is per message, so one connection may interleave
   framings freely.

   Guards, shared across framings.  Max-line: a line over the bound is
   discarded to its newline and answered [bad_request]; a frame
   declaring a payload over the same bound is discarded by its known
   length and answered the same way — the connection survives both,
   and the error answers in arrival order.  Idle / slowloris: the
   deadline arms at connection start and re-arms only on each
   *complete* message, so a client dribbling bytes of a never-finished
   line or frame times out exactly like a silent one.  Backpressure: a
   client that stops reading blocks this thread in [write], so the
   connection stops reading and TCP pushes back — on that client alone.
   A torn partial line or frame at close is dropped, never executed.

   Admission: both framings decode first, into the service's one
   request type, so a message that does not decode is answered
   [invalid] without taking an admission slot.  Past [queue_depth]
   admitted requests the verb is answered [overloaded] through the
   server's reject path (so the rejection is counted, logged and
   flight-recorded). *)
let serve_conn t ~conn fd timed_out =
  let module S = Service.Server in
  let net = S.net t.srv in
  let out = Buffer.create 4096 in
  let answer_json j =
    Buffer.add_string out (J.to_string j);
    Buffer.add_char out '\n'
  in
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
  let buf = Bytes.create 4096 in
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
  let deadline = ref (Unix.gettimeofday () +. t.cfg.idle_timeout) in
  let alive = ref true in
  let rearm () = deadline := Unix.gettimeofday () +. t.cfg.idle_timeout in
  let emit_line () =
    let line = Buffer.contents acc in
    Buffer.clear acc;
    rearm ();
    if !discarding then begin
      let n = !discarded + String.length line in
      discarding := false;
      discarded := 0;
      answer_json
        (S.reject ~conn t.srv S.json ~verb:"invalid" ~id:J.Null P.Bad_request
           (Printf.sprintf "line exceeds %d bytes (%d read)" t.cfg.max_line n))
    end
    else begin
      let line =
        (* tolerate CRLF framing from casual clients *)
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
        else line
      in
      if String.trim line = "" then ()  (* blank lines skipped, as stdin *)
      else
        answer_json
          (S.handle ~conn ~around:(admit S.json) t.srv S.json
             (S.decode_line line))
    end
  in
  let emit_frame () =
    let f = Buffer.contents fbuf in
    Buffer.clear fbuf;
    in_frame := false;
    frame_total := -1;
    rearm ();
    Buffer.add_string out
      (S.handle ~conn ~around:(admit S.frame) t.srv S.frame
         (S.decode_frame t.srv f))
  in
  let frame_byte c =
    Buffer.add_char fbuf c;
    if !frame_total < 0 && Buffer.length fbuf = Service.Frame.header_len
    then begin
      match Service.Frame.parse_header (Buffer.contents fbuf) with
      | Error _ ->
        (* unreachable: the magic matched and the header is complete *)
        Buffer.clear fbuf;
        in_frame := false
      | Ok (_op, len) ->
        if len > t.cfg.max_line then begin
          (* discard the declared payload without buffering it *)
          Buffer.clear fbuf;
          in_frame := false;
          frame_over := len;
          frame_skip := len  (* > 0: len exceeds a positive bound *)
        end
        else frame_total := Service.Frame.header_len + len
    end;
    if !frame_total >= 0 && Buffer.length fbuf = !frame_total then
      emit_frame ()
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
          let n = try Unix.read fd buf 0 (Bytes.length buf) with
            | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> 0
          in
          if n = 0 then alive := false
          else begin
            for i = 0 to n - 1 do
              let c = Bytes.get buf i in
              if !frame_skip > 0 then begin
                decr frame_skip;
                if !frame_skip = 0 then begin
                  rearm ();
                  Buffer.add_string out
                    (S.reject ~conn t.srv S.frame ~verb:"invalid" ~id:(J.Int 0)
                       P.Bad_request
                       (Printf.sprintf
                          "frame payload exceeds %d bytes (%d declared)"
                          t.cfg.max_line !frame_over))
                end
              end
              else if !in_frame then frame_byte c
              else if
                Buffer.length acc = 0 && (not !discarding)
                && Char.code c = Service.Frame.request_magic
              then begin
                (* message boundary + 0xB1: binary framing this message *)
                in_frame := true;
                frame_total := -1;
                Buffer.clear fbuf;
                Buffer.add_char fbuf c
              end
              else
                match c with
                | '\n' -> emit_line ()
                | c ->
                  if !discarding then incr discarded
                  else begin
                    Buffer.add_char acc c;
                    if Buffer.length acc > t.cfg.max_line then begin
                      (* switch to discard mode: the line is already
                         over budget, stop accumulating its bytes *)
                      discarding := true;
                      discarded := Buffer.length acc;
                      Buffer.clear acc
                    end
                  end
            done;
            (* one write per read; a client that is gone surfaces here
               as EPIPE / ECONNRESET and ends the connection *)
            if Buffer.length out > 0 then begin
              write_all fd (Buffer.contents out);
              Buffer.reset out
            end
          end
      end
    done
  with Unix.Unix_error _ -> ()

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
    (fun () -> serve_conn t ~conn fd timed_out)

(* ---- worker domains and the accept loop ----------------------------- *)

(* A worker starts one systhread per connection and keeps no handle to
   it: the thread closes and forgets its own connection ({!Conns}),
   which is what teardown waits on. *)
let worker_loop t mailbox () =
  let rec loop () =
    match Bqueue.pop mailbox with
    | None -> ()
    | Some (conn, fd) ->
      ignore (Thread.create (fun () -> handle_conn t ~conn fd) ());
      loop ()
  in
  loop ()

let stop t = Atomic.set t.stop true

let run t =
  let net = Service.Server.net t.srv in
  let workers =
    Array.map (fun mb -> Domain.spawn (worker_loop t mb)) t.mailboxes
  in
  let overload_line =
    J.to_string
      (P.error_response ~id:J.Null P.Overloaded
         (Printf.sprintf "connection limit reached (%d)" t.cfg.max_conns))
    ^ "\n"
  in
  while not (Atomic.get t.stop) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      (match Unix.accept t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        (match t.bound with
        | Tcp _ ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ())
        | Unix_path _ -> ());
        if Atomic.get net.Service.Server.net_active >= t.cfg.max_conns
        then begin
          (* refuse at the door, in-band: one overloaded line, close *)
          Telemetry.Counter.incr net.Service.Server.net_overloaded;
          (try write_all fd overload_line with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          let conn = Conns.add t.conns fd in
          Atomic.incr net.Service.Server.net_active;
          Telemetry.Counter.incr net.Service.Server.net_accepted;
          let mb = t.mailboxes.((conn - 1) mod Array.length t.mailboxes) in
          if not (Bqueue.push mb (conn, fd)) then Conns.close t.conns conn fd
        end)
  done;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.bound with
  | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (* wake every connection — a thread blocked in [select] sees EOF, one
     blocked in [write] an error — and wait until each has closed; the
     workers then find their mailboxes closed and exit *)
  Conns.drain t.conns;
  Array.iter Bqueue.close t.mailboxes;
  Array.iter Domain.join workers
