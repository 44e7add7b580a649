(* This file is the library's root module, so the pieces are re-exported
   here: [Store.Wal], [Store.Snapshot], [Store.Mutation]. *)
module Mutation = Mutation
module Snapshot = Snapshot
module Wal = Wal

type mmap_mode = [ `Off | `Verify | `Fast ]

type config = {
  fsync : Wal.fsync_policy;
  compact_bytes : int;
  keep_snapshots : int;
  mmap_restore : mmap_mode;
}

let default_config =
  { fsync = Wal.Every 8;
    compact_bytes = 1 lsl 20;
    keep_snapshots = 2;
    mmap_restore = `Verify }

(* A doorbell: a non-blocking self-pipe.  A ring writes one byte (a
   pipe too full to take it is rung already); the watcher selects on
   the read end and drains it. *)
type watcher = { bell_rd : Unix.file_descr; bell_wr : Unix.file_descr }

type t = {
  dir : string;
  config : config;
  wals : (string, Wal.t) Hashtbl.t;  (* by session name *)
  watch_mutex : Mutex.t;
  mutable watchers : watcher list;
  snapshots_written : Telemetry.Counter.t;
  snapshot_bytes : Telemetry.Counter.t;
  wal_appends : Telemetry.Counter.t;
  wal_append_bytes : Telemetry.Counter.t;
  wal_fsyncs : Telemetry.Counter.t;
  recoveries : Telemetry.Counter.t;
  replayed_records : Telemetry.Counter.t;
  torn_records_skipped : Telemetry.Counter.t;
  compactions : Telemetry.Counter.t;
  mmap_restores : Telemetry.Counter.t;
  (* latency distributions, shared by every session WAL under this store *)
  wal_append_ns : Telemetry.Histogram.t;
  wal_fsync_ns : Telemetry.Histogram.t;
  snapshot_write_ns : Telemetry.Histogram.t;
  snapshot_restore_ns : Telemetry.Histogram.t;
  mmap_restore_ns : Telemetry.Histogram.t;
}

let mkdir_p path =
  let rec go p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go path

let open_dir ?(config = default_config) dir =
  if config.compact_bytes < 1 then
    invalid_arg "Store.open_dir: compact_bytes must be >= 1";
  if config.keep_snapshots < 1 then
    invalid_arg "Store.open_dir: keep_snapshots must be >= 1";
  mkdir_p dir;
  { dir;
    config;
    wals = Hashtbl.create 8;
    watch_mutex = Mutex.create ();
    watchers = [];
    snapshots_written = Telemetry.Counter.make "store_snapshots_written";
    snapshot_bytes = Telemetry.Counter.make "store_snapshot_bytes";
    wal_appends = Telemetry.Counter.make "store_wal_appends";
    wal_append_bytes = Telemetry.Counter.make "store_wal_append_bytes";
    wal_fsyncs = Telemetry.Counter.make "store_wal_fsyncs";
    recoveries = Telemetry.Counter.make "store_recoveries";
    replayed_records = Telemetry.Counter.make "store_replayed_records";
    torn_records_skipped = Telemetry.Counter.make "store_torn_records_skipped";
    compactions = Telemetry.Counter.make "store_compactions";
    mmap_restores = Telemetry.Counter.make "store_mmap_restores";
    wal_append_ns = Telemetry.Histogram.create ();
    wal_fsync_ns = Telemetry.Histogram.create ();
    snapshot_write_ns = Telemetry.Histogram.create ();
    snapshot_restore_ns = Telemetry.Histogram.create ();
    mmap_restore_ns = Telemetry.Histogram.create () }

let dir t = t.dir
let config t = t.config

(* Session names come off the wire, so their directory form is escaped:
   alphanumerics, '-', '_' and '.' pass through, anything else becomes
   %XX.  The escaping is injective, so distinct sessions never collide. *)
let encode_session name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' ->
        Buffer.add_char buf c
      | '.' when Buffer.length buf > 0 -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  Buffer.contents buf

let decode_session enc =
  let buf = Buffer.create (String.length enc) in
  let n = String.length enc in
  let rec go i =
    if i < n then
      if enc.[i] = '%' && i + 2 < n then begin
        Buffer.add_char buf
          (Char.chr (int_of_string ("0x" ^ String.sub enc (i + 1) 2)));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf enc.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let session_dir t name = Filename.concat t.dir (encode_session name)
let wal_path t name = Filename.concat (session_dir t name) "wal.log"

let snap_name epoch = Printf.sprintf "snap-%010d.snap" epoch

let snap_epoch_of_name file =
  if String.length file = 20
     && String.sub file 0 5 = "snap-"
     && Filename.check_suffix file ".snap"
  then int_of_string_opt (String.sub file 5 10)
  else None

(* Snapshot files for one session, newest (highest epoch) first. *)
let snapshot_files t name =
  let d = session_dir t name in
  if not (Sys.file_exists d) then []
  else
    Sys.readdir d |> Array.to_list
    |> List.filter_map (fun f ->
           match snap_epoch_of_name f with
           | Some e -> Some (e, Filename.concat d f)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)

let newest_snapshot t name =
  match snapshot_files t name with [] -> None | newest :: _ -> Some newest

let sessions t =
  if not (Sys.file_exists t.dir) then []
  else
    Sys.readdir t.dir |> Array.to_list
    |> List.filter (fun f -> Sys.is_directory (Filename.concat t.dir f))
    |> List.map decode_session
    |> List.filter (fun name -> snapshot_files t name <> [])
    |> List.sort compare

let wal t name =
  match Hashtbl.find_opt t.wals name with
  | Some w -> w
  | None ->
    mkdir_p (session_dir t name);
    let w =
      Wal.open_append ~fsync:t.config.fsync ~append_ns:t.wal_append_ns
        ~fsync_ns:t.wal_fsync_ns (wal_path t name)
    in
    Hashtbl.add t.wals name w;
    w

(* ---- recovery ------------------------------------------------------ *)

type recovery = {
  rv_snapshot : Snapshot.t;
  rv_replayed : Wal.record list;
  rv_torn : bool;
  rv_stale_snapshots : int;  (** newer snapshot files that failed to decode *)
}

let recovered_epoch rv =
  match List.rev rv.rv_replayed with
  | last :: _ -> last.Wal.rc_epoch
  | [] -> rv.rv_snapshot.Snapshot.s_epoch

(* The newest snapshot that decodes wins; a damaged newer file only
   costs the mutations since the previous snapshot — which the WAL
   still holds, because compaction truncates it only after a snapshot
   write succeeds. *)
let recover t name =
  match snapshot_files t name with
  | [] -> Ok None
  | files ->
    let rec pick skipped = function
      | [] ->
        Error
          (Printf.sprintf "session %S: no snapshot of %d decodes" name
             (List.length files))
      | (_, path) :: rest ->
        let t0 = Telemetry.Clock.now_ns () in
        (* mmap first when configured: O(1) page-in, with the decode
           path as fallback for legacy snapshots or unmappable files *)
        let mapped =
          match t.config.mmap_restore with
          | `Off -> Error "mmap restore disabled"
          | `Verify -> Snapshot.open_mapped ~verify:true path
          | `Fast -> Snapshot.open_mapped ~verify:false path
        in
        (match mapped with
        | Ok s ->
          let dt = Telemetry.Clock.elapsed_ns ~since:t0 in
          Telemetry.Histogram.record t.mmap_restore_ns dt;
          Telemetry.Histogram.record t.snapshot_restore_ns dt;
          Telemetry.Counter.incr t.mmap_restores;
          Ok (s, skipped)
        | Error _ ->
          (match Snapshot.read_file path with
          | Ok s ->
            Telemetry.Histogram.record t.snapshot_restore_ns
              (Telemetry.Clock.elapsed_ns ~since:t0);
            Ok (s, skipped)
          | Error _ -> pick (skipped + 1) rest))
    in
    (match pick 0 files with
    | Error e -> Error e
    | Ok (snap, skipped) ->
      let tail = Wal.read_file (wal_path t name) in
      (* replay strictly increasing epochs past the snapshot: records at
         or below it are pre-compaction leftovers (crash between
         snapshot write and WAL reset), never replayed twice *)
      let replayed, _ =
        List.fold_left
          (fun (acc, prev) (r : Wal.record) ->
            if r.Wal.rc_epoch = prev + 1 then (r :: acc, r.Wal.rc_epoch)
            else (acc, prev))
          ([], snap.Snapshot.s_epoch)
          tail.Wal.tl_records
      in
      let rv =
        { rv_snapshot = snap;
          rv_replayed = List.rev replayed;
          rv_torn = tail.Wal.tl_torn;
          rv_stale_snapshots = skipped }
      in
      Telemetry.Counter.incr t.recoveries;
      Telemetry.Counter.add t.replayed_records (List.length rv.rv_replayed);
      if rv.rv_torn then Telemetry.Counter.incr t.torn_records_skipped;
      Ok (Some rv))

(* ---- change doorbells ---------------------------------------------- *)

let watch t =
  let bell_rd, bell_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock bell_rd;
  Unix.set_nonblock bell_wr;
  let w = { bell_rd; bell_wr } in
  Mutex.protect t.watch_mutex (fun () -> t.watchers <- w :: t.watchers);
  w

let unwatch t w =
  Mutex.protect t.watch_mutex (fun () ->
      t.watchers <- List.filter (fun w' -> w' != w) t.watchers);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ w.bell_rd; w.bell_wr ]

let ring w =
  try ignore (Unix.single_write_substring w.bell_wr "!" 0 1)
  with Unix.Unix_error _ -> ()  (* EAGAIN: the pipe is full, so rung *)

let notify t =
  Mutex.protect t.watch_mutex (fun () -> List.iter ring t.watchers)

let wait w timeout =
  match Unix.select [ w.bell_rd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> ()
  | _ ->
    let scratch = Bytes.create 64 in
    let rec drain () =
      match Unix.read w.bell_rd scratch 0 (Bytes.length scratch) with
      | n when n > 0 -> drain ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ()  (* EAGAIN: drained *)
    in
    drain ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ---- writing ------------------------------------------------------- *)

let log_mutation t ~session ~epoch m =
  let w = wal t session in
  let fsyncs_before = Wal.fsyncs w in
  let bytes = Wal.append w ~epoch m in
  Telemetry.Counter.incr t.wal_appends;
  Telemetry.Counter.add t.wal_append_bytes bytes;
  Telemetry.Counter.add t.wal_fsyncs (Wal.fsyncs w - fsyncs_before);
  notify t

let prune_snapshots t name =
  snapshot_files t name
  |> List.filteri (fun i _ -> i >= t.config.keep_snapshots)
  |> List.iter (fun (_, path) -> try Sys.remove path with Sys_error _ -> ())

let write_snapshot t snap =
  let name = snap.Snapshot.s_session in
  mkdir_p (session_dir t name);
  let path =
    Filename.concat (session_dir t name) (snap_name snap.Snapshot.s_epoch)
  in
  let t0 = Telemetry.Clock.now_ns () in
  let bytes = Snapshot.write_file path snap in
  Telemetry.Histogram.record t.snapshot_write_ns
    (Telemetry.Clock.elapsed_ns ~since:t0);
  (* order matters: records become redundant only once the snapshot is
     safely on disk, so the WAL resets strictly after the rename *)
  Wal.reset (wal t name);
  prune_snapshots t name;
  Telemetry.Counter.incr t.snapshots_written;
  Telemetry.Counter.add t.snapshot_bytes bytes;
  notify t;
  bytes

(* A fresh [open] under a stored name supersedes the old lineage: its
   snapshots must go, or recovery would prefer their higher epochs over
   the new epoch-0 snapshot. *)
let reset_session t name =
  List.iter
    (fun (_, path) -> try Sys.remove path with Sys_error _ -> ())
    (snapshot_files t name);
  (match Hashtbl.find_opt t.wals name with
  | Some w -> Wal.reset w
  | None ->
    let p = wal_path t name in
    if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ());
  notify t

let wal_size t ~session =
  match Hashtbl.find_opt t.wals session with
  | Some w -> Wal.size w
  | None ->
    (try (Unix.stat (wal_path t session)).Unix.st_size with
    | Unix.Unix_error (Unix.ENOENT, _, _) -> 0)

let needs_compaction t ~session = wal_size t ~session > t.config.compact_bytes

let note_compaction t = Telemetry.Counter.incr t.compactions

let sync t = Hashtbl.iter (fun _ w -> Wal.sync w) t.wals

let close t =
  Hashtbl.iter (fun _ w -> Wal.close w) t.wals;
  Hashtbl.reset t.wals

let counters t =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    [ t.snapshots_written; t.snapshot_bytes; t.wal_appends;
      t.wal_append_bytes; t.wal_fsyncs; t.recoveries; t.replayed_records;
      t.torn_records_skipped; t.compactions; t.mmap_restores ]

let histograms t =
  [ ("wal_append_ns", t.wal_append_ns);
    ("wal_fsync_ns", t.wal_fsync_ns);
    ("snapshot_write_ns", t.snapshot_write_ns);
    ("snapshot_restore_ns", t.snapshot_restore_ns);
    ("mmap_restore_ns", t.mmap_restore_ns) ]

(* Exposition names: store_<counter> already carries its subsystem, the
   renderer adds the cxxlookup_ prefix and _total suffix for counters. *)
let register t registry =
  List.iter
    (fun c ->
      Telemetry.Registry.attach_counter registry
        ~help:
          (Printf.sprintf "Store counter %s (lifetime of this process)."
             (Telemetry.Counter.name c))
        (Printf.sprintf "cxxlookup_%s_total" (Telemetry.Counter.name c))
        c)
    [ t.snapshots_written; t.snapshot_bytes; t.wal_appends;
      t.wal_append_bytes; t.wal_fsyncs; t.recoveries; t.replayed_records;
      t.torn_records_skipped; t.compactions; t.mmap_restores ];
  List.iter
    (fun (name, h) ->
      Telemetry.Registry.attach_histogram registry
        ~help:(Printf.sprintf "Store %s latency distribution."
                 (String.concat " " (String.split_on_char '_' name)))
        (Printf.sprintf "cxxlookup_store_%s" name)
        h)
    (histograms t)
