(* The load generator: one thread, at most two connections, a select
   loop over non-blocking sockets.

   Open loop: each source sends on a fixed schedule whatever the server
   does; latency is taken from the scheduled send time, so a stall is
   charged to every request it delays, and the generator's own lateness
   (actual write minus scheduled write) is recorded separately — writes
   never block, so lateness is the generator's fault alone.  Closed
   loop: each connection sends its next request when the previous
   answer arrives.

   Responses are stored and checked after the phase, off the clock. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type framing = Json | Frame

type outcome = Good | Failed of string | Wrong of string

type msg = {
  bytes : string;
  tag : int;  (** which latency series the answer belongs to *)
  queries : int;
  check : string -> outcome;
}

type slot = { sl_msg : msg; sl_sched : int }

type conn = {
  fd : Unix.file_descr;
  framing : framing;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable scan : int;  (** JSON: bytes already searched for '\n' *)
  out : Buffer.t;
  mutable opos : int;
  pending : slot Queue.t;
  mutable dead : bool;
}

let connect ?(framing = Json) (host, port) =
  Net.Server.ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.set_nonblock fd;
  { fd; framing; rbuf = Bytes.create 65536; rlen = 0; scan = 0;
    out = Buffer.create 65536; opos = 0; pending = Queue.create ();
    dead = false }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ---- growable int vectors ------------------------------------------- *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(* ---- I/O ------------------------------------------------------------- *)

let flush_out c =
  let len = Buffer.length c.out - c.opos in
  if len > 0 && not c.dead then begin
    let s = Buffer.sub c.out c.opos len in
    match Unix.write_substring c.fd s 0 len with
    | n ->
      c.opos <- c.opos + n;
      if c.opos = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.opos <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> c.dead <- true
  end

let send c m ~sched =
  Buffer.add_string c.out m.bytes;
  if c.framing = Json && m.bytes.[String.length m.bytes - 1] <> '\n' then
    Buffer.add_char c.out '\n';
  Queue.push { sl_msg = m; sl_sched = sched } c.pending;
  flush_out c

let wants_write c = Buffer.length c.out > c.opos

(* Split off one complete response, if the buffer holds one. *)
let take_message c =
  match c.framing with
  | Json ->
    let rec nl i =
      if i >= c.rlen then None
      else if Bytes.unsafe_get c.rbuf i = '\n' then Some i
      else nl (i + 1)
    in
    (match nl c.scan with
    | Some i ->
      let s = Bytes.sub_string c.rbuf 0 i in
      Bytes.blit c.rbuf (i + 1) c.rbuf 0 (c.rlen - i - 1);
      c.rlen <- c.rlen - i - 1;
      c.scan <- 0;
      Some s
    | None ->
      c.scan <- c.rlen;
      None)
  | Frame ->
    if c.rlen < Service.Frame.header_len then None
    else begin
      let len = Int32.to_int (Bytes.get_int32_le c.rbuf 2) land 0xffffffff in
      let total = Service.Frame.header_len + len in
      if c.rlen < total then None
      else begin
        let s = Bytes.sub_string c.rbuf 0 total in
        Bytes.blit c.rbuf total c.rbuf 0 (c.rlen - total);
        c.rlen <- c.rlen - total;
        Some s
      end
    end

(* Read what is available; [on_message slot response t_recv] per
   complete answer.  A closed connection fails everything pending. *)
let read_ready c ~on_message ~on_lost =
  if c.rlen = Bytes.length c.rbuf then begin
    let b = Bytes.create (2 * Bytes.length c.rbuf) in
    Bytes.blit c.rbuf 0 b 0 c.rlen;
    c.rbuf <- b
  end;
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 ->
    c.dead <- true;
    Queue.iter on_lost c.pending;
    Queue.clear c.pending
  | n ->
    let t = now () in
    c.rlen <- c.rlen + n;
    let rec drain () =
      match take_message c with
      | None -> ()
      | Some s ->
        (match Queue.take_opt c.pending with
        | Some slot -> on_message slot s t
        | None -> ());
        drain ()
    in
    drain ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ ->
    c.dead <- true;
    Queue.iter on_lost c.pending;
    Queue.clear c.pending

(* ---- results --------------------------------------------------------- *)

type result = {
  lat : Vec.t array;  (** per tag: ns from scheduled send to answer *)
  sched : Vec.t array;  (** per tag: the scheduled send, same order *)
  late : Vec.t;  (** ns from scheduled send to the write attempt *)
  mutable sent : int;
  mutable completed : int;
  mutable queries : int;  (** answered queries (a batch counts each) *)
  mutable lost : int;
  mutable answers : (msg * string) list;  (** for the deferred check *)
  mutable aborted : bool;
  mutable elapsed_ns : int;
  mutable t0 : int;
}

(* tag 0: reads; 1: writes; 2: the lookup after each write *)
let tags = 3

let new_result () =
  { lat = Array.init tags (fun _ -> Vec.create ());
    sched = Array.init tags (fun _ -> Vec.create ());
    late = Vec.create ();
    sent = 0; completed = 0; queries = 0; lost = 0; answers = [];
    aborted = false; elapsed_ns = 0; t0 = 0 }

let on_message r slot resp t =
  r.completed <- r.completed + 1;
  r.queries <- r.queries + slot.sl_msg.queries;
  Vec.push r.lat.(slot.sl_msg.tag) (t - slot.sl_sched);
  Vec.push r.sched.(slot.sl_msg.tag) slot.sl_sched;
  r.answers <- (slot.sl_msg, resp) :: r.answers

let on_lost r _slot = r.lost <- r.lost + 1

let select_wait conns timeout_ns =
  let rd = List.filter_map (fun c -> if c.dead then None else Some c.fd) conns in
  let wr =
    List.filter_map
      (fun c -> if c.dead || not (wants_write c) then None else Some c.fd)
      conns
  in
  let timeout = Float.max 0. (float_of_int timeout_ns /. 1e9) in
  match Unix.select rd wr [] timeout with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

let pending_total conns =
  List.fold_left (fun a c -> a + Queue.length c.pending) 0 conns

(* ---- open loop ------------------------------------------------------- *)

(* Timed sleeps wake late on a virtual machine (select(0.5 ms) can
   return 8 ms later), so the open loop polls while a send is due within
   [spin_ns] and sleeps only for longer gaps. *)
let spin_ns = 20_000_000

type source = {
  conn : conn;
  rate : float;  (** scheduled sends per second *)
  next : int -> msg list;  (** the k-th scheduled send *)
}

(* Answers still missing this long after the last send are lost. *)
let drain_ns = 10_000_000_000

(* [open_loop sources ~duration] — with [abort_ns], a rung that has
   clearly passed the knee (an answer later than that, or a backlog of
   more than [abort_backlog] answers) stops sending early and drains. *)
let open_loop ?abort_ns ?(abort_backlog = max_int) sources ~duration =
  let r = new_result () in
  let conns =
    List.fold_left
      (fun acc s -> if List.memq s.conn acc then acc else acc @ [ s.conn ])
      [] sources
  in
  let nsrc = List.length sources in
  let t0 = now () + 1_000_000 in
  r.t0 <- t0;
  let t_end = t0 + int_of_float (duration *. 1e9) in
  let srcs =
    List.mapi
      (fun i s ->
        let interval = 1e9 /. s.rate in
        let off = interval *. float_of_int i /. float_of_int nsrc in
        (s, interval, off, ref 0))
      sources
  in
  let due (_, interval, off, k) =
    t0 + int_of_float (off +. (interval *. float_of_int !k))
  in
  let stopped = ref false in
  let drain_deadline = t_end + drain_ns in
  let max_seen = ref 0 in
  let on_message slot resp t =
    let l = t - slot.sl_sched in
    if l > !max_seen then max_seen := l;
    on_message r slot resp t
  in
  let rec loop () =
    let t = now () in
    if not !stopped then
      List.iter
        (fun ((s, _, _, k) as src) ->
          let rec fire () =
            let d = due src in
            if d <= t && d < t_end && not s.conn.dead then begin
              let tw = now () in
              List.iter
                (fun m ->
                  r.sent <- r.sent + 1;
                  send s.conn m ~sched:d)
                (s.next !k);
              Vec.push r.late (tw - d);
              incr k;
              fire ()
            end
          in
          fire ())
        srcs;
    (match abort_ns with
    | Some a when (not !stopped)
                  && (!max_seen > a || pending_total conns > abort_backlog) ->
      stopped := true;
      r.aborted <- true
    | _ -> ());
    let sending =
      (not !stopped)
      && List.exists (fun src -> due src < t_end) srcs
      && List.exists (fun c -> not c.dead) conns
    in
    let pend = pending_total conns in
    if (not sending) && pend = 0 then ()
    else if (not sending) && t > drain_deadline then begin
      List.iter
        (fun c ->
          r.lost <- r.lost + Queue.length c.pending;
          Queue.clear c.pending;
          c.dead <- true)
        conns
    end
    else begin
      let timeout =
        if sending then
          List.fold_left (fun a src -> min a (due src - t)) max_int srcs
        else drain_deadline - t
      in
      let wait = if timeout <= spin_ns then 0 else min (timeout - spin_ns) 50_000_000 in
      let ready = select_wait conns wait in
      List.iter
        (fun c ->
          if List.memq c.fd (snd ready) then flush_out c;
          if List.memq c.fd (fst ready) then
            read_ready c ~on_message ~on_lost:(on_lost r))
        conns;
      loop ()
    end
  in
  loop ();
  r.elapsed_ns <- now () - t0;
  r

(* ---- closed loop ----------------------------------------------------- *)

(* Each connection keeps [depth] requests outstanding for [duration]
   seconds: an answer releases the next send. *)
let closed_loop ?(depth = 1) pairs ~duration =
  let r = new_result () in
  let t0 = now () in
  r.t0 <- t0;
  let t_end = t0 + int_of_float (duration *. 1e9) in
  let counters = List.map (fun (c, next) -> (c, next, ref 0)) pairs in
  let conns = List.map (fun (c, _) -> c) pairs in
  let issue (c, next, k) =
    if not c.dead then begin
      let m = next !k in
      incr k;
      r.sent <- r.sent + 1;
      send c m ~sched:(now ())
    end
  in
  for _ = 1 to depth do List.iter issue counters done;
  let rec loop () =
    let t = now () in
    let pend = pending_total conns in
    if pend = 0 && (t >= t_end || List.for_all (fun c -> c.dead) conns) then ()
    else if t > t_end + drain_ns then
      List.iter
        (fun c ->
          r.lost <- r.lost + Queue.length c.pending;
          Queue.clear c.pending;
          c.dead <- true)
        conns
    else begin
      let rd, wr = select_wait conns 50_000_000 in
      List.iter
        (fun ((c, _, _) as cn) ->
          if List.memq c.fd wr then flush_out c;
          if List.memq c.fd rd then begin
            let before = r.completed in
            read_ready c ~on_message:(on_message r) ~on_lost:(on_lost r);
            if now () < t_end then
              for _ = 1 to r.completed - before do issue cn done
          end)
        counters;
      loop ()
    end
  in
  loop ();
  r.elapsed_ns <- now () - t0;
  r

(* ---- serial round trips ---------------------------------------------- *)

(* One request, wait for its answer; [None] when the connection died.
   For set-up only: it sleeps in select, leaving the CPUs to the
   servers; timed serial round trips go through [Net.Client]. *)
let round_trip c m =
  let r = new_result () in
  send c m ~sched:(now ());
  let rec loop () =
    if Queue.is_empty c.pending || c.dead then ()
    else begin
      let rd, wr = select_wait [ c ] 50_000_000 in
      if wr <> [] then flush_out c;
      if rd <> [] then
        read_ready c ~on_message:(on_message r) ~on_lost:(on_lost r);
      loop ()
    end
  in
  loop ();
  match r.answers with (_, resp) :: _ -> Some resp | [] -> None

(* ---- windows --------------------------------------------------------- *)

(* Latencies of [tag] grouped by the window of their scheduled send.
   Host scheduling noise arrives in bursts shorter than a second, so a
   tail percentile is summarised as the median over windows. *)
let lat_windows r tag ~window_ns =
  let n = 1 + (r.elapsed_ns / window_ns) in
  let w = Array.init n (fun _ -> Vec.create ()) in
  let lat = r.lat.(tag) and sched = r.sched.(tag) in
  for i = 0 to lat.Vec.n - 1 do
    let k = (sched.Vec.a.(i) - r.t0) / window_ns in
    if k >= 0 && k < n then Vec.push w.(k) lat.Vec.a.(i)
  done;
  Array.map Vec.to_array w
