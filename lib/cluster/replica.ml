(* The follower side: one connection to the leader, one message at a
   time into the local service server.

   The whole recovery story is "reconnect and say hello again": the
   handshake's [have] map tells the leader where this replica stands
   (seeded by ordinary store recovery after a restart), and the
   leader's resynchronization logic decides between extending the WAL
   tail and resending a snapshot.  Any apply error — an epoch gap, a
   mutation the graph rejects — therefore just drops the connection;
   the fresh handshake converges by construction.

   Applies run under [excl], the serving front end's exclusive lock,
   so replicated mutations never race the read verbs executing on the
   workers. *)

type excl = { excl : 'a. (unit -> 'a) -> 'a }

let no_excl = { excl = (fun f -> f ()) }

type t = {
  srv : Service.Server.t;
  leader : Net.Server.addr;
  ex : excl;
  backoff_ms : int;
  stop : bool Atomic.t;
  conn : Net.Client.t option ref;
  conn_mutex : Mutex.t;
  connected : bool Atomic.t;
  connects : Telemetry.Counter.t;
  snapshots_installed : Telemetry.Counter.t;
  records_applied : Telemetry.Counter.t;
  stream_errors : Telemetry.Counter.t;
}

let create ?(excl = no_excl) ?(backoff_ms = 100) srv leader =
  let t =
    { srv;
      leader;
      ex = excl;
      backoff_ms = max 1 backoff_ms;
      stop = Atomic.make false;
      conn = ref None;
      conn_mutex = Mutex.create ();
      connected = Atomic.make false;
      connects = Telemetry.Counter.make "replica_connects";
      snapshots_installed = Telemetry.Counter.make "replica_snapshots_installed";
      records_applied = Telemetry.Counter.make "replica_records_applied";
      stream_errors = Telemetry.Counter.make "replica_stream_errors" }
  in
  let registry = Service.Server.registry srv in
  Telemetry.Registry.gauge registry
    ~help:"1 while the replication stream to the leader is up."
    "cxxlookup_replica_connected"
    (fun () -> if Atomic.get t.connected then 1 else 0);
  Telemetry.Registry.attach_counter registry
    ~help:"Replication connections established (reconnects included)."
    "cxxlookup_replica_connects_total" t.connects;
  Telemetry.Registry.attach_counter registry
    ~help:"Snapshots installed from the leader."
    "cxxlookup_replica_snapshots_installed_total" t.snapshots_installed;
  Telemetry.Registry.attach_counter registry
    ~help:"WAL records applied from the leader."
    "cxxlookup_replica_records_applied_total" t.records_applied;
  Telemetry.Registry.attach_counter registry
    ~help:"Streams dropped on a malformed message or an apply error."
    "cxxlookup_replica_stream_errors_total" t.stream_errors;
  t

exception Drop of string

let stream t c =
  Net.Client.send_line c
    (Wire.hello_line ~have:(Service.Server.open_sessions t.srv));
  let continue = ref true in
  while !continue && not (Atomic.get t.stop) do
    match Net.Client.recv_line c with
    | None -> continue := false
    | Some line ->
      (match Wire.parse_server_msg line with
      | Error e -> raise (Drop ("bad message from leader: " ^ e))
      | Ok Wire.Hello -> Atomic.set t.connected true
      | Ok Wire.Ping -> ()
      | Ok (Wire.Error_msg m) -> raise (Drop ("leader refused stream: " ^ m))
      | Ok (Wire.Snapshot snap) ->
        (match t.ex.excl (fun () -> Service.Server.install_snapshot t.srv snap) with
        | Ok () -> Telemetry.Counter.incr t.snapshots_installed
        | Error e -> raise (Drop ("snapshot install failed: " ^ e)))
      | Ok (Wire.Wal { session; record }) ->
        (match
           t.ex.excl (fun () ->
               Service.Server.apply_replicated t.srv ~session
                 ~epoch:record.Store.Wal.rc_epoch record.Store.Wal.rc_mutation)
         with
        | Ok () -> Telemetry.Counter.incr t.records_applied
        | Error e -> raise (Drop ("apply failed: " ^ e))))
  done

let stop t =
  Atomic.set t.stop true;
  Mutex.protect t.conn_mutex (fun () ->
      match !(t.conn) with
      | Some c -> ( try Net.Client.close c with _ -> ())
      | None -> ())

let run t =
  let attempt = ref 0 in
  while not (Atomic.get t.stop) do
    match Net.Client.connect t.leader with
    | exception (Unix.Unix_error _ | Sys_error _) ->
      Thread.delay
        (Net.Client.backoff_delay ~attempt:(min !attempt 6)
           ~backoff_ms:t.backoff_ms);
      incr attempt
    | c ->
      Mutex.protect t.conn_mutex (fun () -> t.conn := Some c);
      if Atomic.get t.stop then stop t
      else begin
        attempt := 0;
        Telemetry.Counter.incr t.connects;
        (try stream t c with
        | Drop _ -> Telemetry.Counter.incr t.stream_errors
        | Sys_error _ | Unix.Unix_error _ | End_of_file -> ());
        Atomic.set t.connected false;
        Mutex.protect t.conn_mutex (fun () ->
            t.conn := None;
            try Net.Client.close c with _ -> ());
        if not (Atomic.get t.stop) then
          Thread.delay (Net.Client.backoff_delay ~attempt:0 ~backoff_ms:t.backoff_ms)
      end
  done
