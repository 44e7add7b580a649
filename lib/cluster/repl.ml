(* The leader side of WAL-shipping replication.

   The sender streams the store's own on-disk artifacts: it polls each
   session's WAL file with a {!Store.Wal.Tail_reader} and ships every
   complete frame, resynchronizing from the newest snapshot file
   whenever the tail cannot be extended contiguously.  Reading files
   rather than hooking the request path means replication needs no
   cooperation from the serving loop — anything that makes the store
   durable is, by construction, what followers receive.

   Per-session stream invariant: after a [snapshot] message at epoch E,
   every [wal] message carries epoch E+1, E+2, ... consecutively.  The
   sender maintains it with three resynchronization triggers:
   - the tail reader reports [Reset] (the WAL shrank: compaction, or a
     superseding lineage);
   - a decoded record's epoch skips past [sent + 1] (the records in
     between were compacted away before we read them);
   - the newest snapshot file changed identity (inode) while its epoch
     is at or below what we already streamed — a fresh lineage under a
     reused name, which no epoch arithmetic alone can detect.
   Records at or below the sent epoch are skipped silently: they are
   the same pre-compaction leftovers recovery skips.

   One thread per follower; a slow or dead follower eventually fails
   its socket write (pings guarantee traffic even on an idle leader)
   and costs nothing but its own connection. *)

type t = {
  store : Store.t;
  poll_s : float;
  listen_fd : Unix.file_descr;
  bound : Net.Server.addr;
  stop : bool Atomic.t;
  conns : Net.Conns.t;
  followers : int Atomic.t;
  snapshots_sent : Telemetry.Counter.t;
  records_sent : Telemetry.Counter.t;
  resyncs : Telemetry.Counter.t;
}

let create ?(poll_ms = 20) srv addr =
  let store =
    match Service.Server.store srv with
    | Some s -> s
    | None ->
      invalid_arg "Cluster.Repl: replication requires a durable store \
                   (serve --store DIR)"
  in
  let listen_fd, bound = Net.Server.listen_on addr in
  let registry = Service.Server.registry srv in
  let t =
    { store;
      poll_s = float_of_int (max 1 poll_ms) /. 1000.;
      listen_fd;
      bound;
      stop = Atomic.make false;
      conns = Net.Conns.create ();
      followers = Atomic.make 0;
      snapshots_sent = Telemetry.Counter.make "repl_snapshots_sent";
      records_sent = Telemetry.Counter.make "repl_records_sent";
      resyncs = Telemetry.Counter.make "repl_resyncs" }
  in
  Telemetry.Registry.gauge registry
    ~help:"Follower connections currently streaming."
    "cxxlookup_repl_followers"
    (fun () -> Atomic.get t.followers);
  Telemetry.Registry.attach_counter registry
    ~help:"Snapshots sent to followers (bootstrap + resynchronization)."
    "cxxlookup_repl_snapshots_sent_total" t.snapshots_sent;
  Telemetry.Registry.attach_counter registry
    ~help:"WAL records streamed to followers."
    "cxxlookup_repl_records_sent_total" t.records_sent;
  Telemetry.Registry.attach_counter registry
    ~help:"Stream resynchronizations (snapshot resends past a WAL gap)."
    "cxxlookup_repl_resyncs_total" t.resyncs;
  t

let bound_addr t = t.bound

(* ---- per-follower sender ------------------------------------------- *)

type sstate = {
  mutable ss_sent : int;  (* epoch through which the stream is complete *)
  mutable ss_ino : int;  (* identity of the snapshot the lineage hangs on *)
  mutable ss_reader : Store.Wal.Tail_reader.reader;
}

let snapshot_ino path =
  try Some (Unix.stat path).Unix.st_ino
  with Unix.Unix_error _ -> None

(* Send the newest snapshot and restart the WAL tail behind it.  [None]
   when the snapshot is briefly unreadable (pruned or mid-rename):
   the caller drops the session this round and retries next poll. *)
let resync t oc name =
  match Store.newest_snapshot t.store name with
  | None -> None
  | Some (epoch, path) ->
    (match
       (snapshot_ino path,
        try Some (In_channel.with_open_bin path In_channel.input_all)
        with Sys_error _ -> None)
     with
    | Some ino, Some data ->
      output_string oc (Wire.snapshot_line ~session:name ~epoch data);
      output_char oc '\n';
      Telemetry.Counter.incr t.snapshots_sent;
      Some
        { ss_sent = epoch;
          ss_ino = ino;
          ss_reader = Store.Wal.Tail_reader.create (Store.wal_path t.store name) }
    | _ -> None)

(* Ship one poll's worth of frames; false = stream broken, resync. *)
let send_frames t oc name st records =
  let ok = ref true in
  List.iter
    (fun (r : Store.Wal.record) ->
      if !ok then
        if r.Store.Wal.rc_epoch <= st.ss_sent then ()  (* compaction leftover *)
        else if r.Store.Wal.rc_epoch = st.ss_sent + 1 then begin
          output_string oc (Wire.wal_line ~session:name r);
          output_char oc '\n';
          Telemetry.Counter.incr t.records_sent;
          st.ss_sent <- r.Store.Wal.rc_epoch
        end
        else ok := false)  (* gap: records between were compacted away *)
    records;
  !ok

let step_session t oc name states have =
  let fresh () =
    (* first sight: honor the follower's offer when it already holds
       the session at or past the newest snapshot — the WAL tail can
       extend it without a bootstrap transfer *)
    match Store.newest_snapshot t.store name with
    | None -> ()
    | Some (epoch, path) ->
      (match (List.assoc_opt name have, snapshot_ino path) with
      | Some h, Some ino when h >= epoch ->
        Hashtbl.replace states name
          { ss_sent = h;
            ss_ino = ino;
            ss_reader =
              Store.Wal.Tail_reader.create (Store.wal_path t.store name) }
      | _ ->
        (match resync t oc name with
        | Some st -> Hashtbl.replace states name st
        | None -> ()))
  in
  match Hashtbl.find_opt states name with
  | None -> fresh ()
  | Some st ->
    let do_resync () =
      Telemetry.Counter.incr t.resyncs;
      match resync t oc name with
      | Some st' -> Hashtbl.replace states name st'
      | None -> Hashtbl.remove states name
    in
    let lineage_broken =
      match Store.newest_snapshot t.store name with
      | None -> false  (* transient: mid reset/prune; judged next round *)
      | Some (epoch, path) ->
        (match snapshot_ino path with
        | None -> false
        | Some ino when ino = st.ss_ino -> false
        | Some ino ->
          if epoch <= st.ss_sent then true  (* reused name, new lineage *)
          else begin
            (* compaction moved the snapshot forward past our stream
               position; the WAL tail decides whether we kept up *)
            st.ss_ino <- ino;
            false
          end)
    in
    if lineage_broken then do_resync ()
    else begin
      match Store.Wal.Tail_reader.poll st.ss_reader with
      | Store.Wal.Tail_reader.Nothing -> ()
      | Store.Wal.Tail_reader.Reset -> do_resync ()
      | Store.Wal.Tail_reader.Frames records ->
        if not (send_frames t oc name st records) then do_resync ()
    end

let sender t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  match In_channel.input_line ic with
  | None -> ()
  | Some line ->
    (match Wire.parse_hello line with
    | Error msg ->
      output_string oc (Wire.error_line msg);
      output_char oc '\n';
      flush oc
    | Ok have ->
      output_string oc Wire.hello_ack_line;
      output_char oc '\n';
      flush oc;
      let states : (string, sstate) Hashtbl.t = Hashtbl.create 4 in
      let last_ping = ref (Unix.gettimeofday ()) in
      while not (Atomic.get t.stop) do
        List.iter
          (fun name -> step_session t oc name states have)
          (Store.sessions t.store);
        let now = Unix.gettimeofday () in
        if now -. !last_ping >= 1.0 then begin
          last_ping := now;
          output_string oc Wire.ping_line;
          output_char oc '\n'
        end;
        flush oc;
        Thread.delay t.poll_s
      done)

let handle_follower t conn fd =
  Atomic.incr t.followers;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr t.followers;
      Net.Conns.close t.conns conn fd)
    (fun () ->
      try sender t fd with
      | Sys_error _ | Unix.Unix_error _ | End_of_file -> ())

let stop t = Atomic.set t.stop true

let run t =
  Net.Server.accept_loop ~stop:t.stop t.listen_fd t.bound (fun fd ->
      let conn = Net.Conns.add t.conns fd in
      ignore (Thread.create (fun () -> handle_follower t conn fd) ()));
  Net.Conns.drain t.conns
