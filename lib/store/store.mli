(** The durable store: a directory of per-session snapshots plus
    write-ahead logs, and the recovery path over them.

    Layout, one subdirectory per session (names escaped injectively so
    arbitrary wire names are safe on disk):
    {v
    DIR/<session>/snap-<epoch>.snap     versioned binary snapshots
    DIR/<session>/wal.log               mutation WAL since the newest
    v}

    The protocol, end to end:
    + opening a session under a store writes an epoch-0 snapshot;
    + every applied mutation appends one WAL record ({!log_mutation});
    + when the WAL outgrows [compact_bytes], the owner writes a fresh
      snapshot ({!write_snapshot}), which resets the WAL {e after} the
      snapshot file is durably renamed in — so a crash in between only
      leaves redundant records, which recovery skips by epoch;
    + {!recover} loads the newest snapshot that decodes (a damaged newer
      file falls back to the previous one), replays the WAL records
      whose epochs consecutively extend it, and reports — but is never
      killed by — a torn final record.

    Nothing here trusts the disk: snapshots are CRC-sectioned, WAL
    frames are CRC-checked, and the recovery property test replays
    arbitrary kill points against the spec oracle. *)

(** The library's root module; the pieces re-exported: *)

module Mutation = Mutation
module Snapshot = Snapshot
module Wal = Wal

(** How {!recover} restores snapshots: [`Verify] (default) maps the
    table image zero-copy after one streaming CRC pass over it;
    [`Fast] maps without the CRC pass (probe word + structural checks
    + per-access bounds checks only); [`Off] always decodes.  Every
    mode falls back to {!Snapshot.read_file} when mapping fails —
    legacy snapshots, unmappable filesystems, corrupt image sections. *)
type mmap_mode = [ `Off | `Verify | `Fast ]

type config = {
  fsync : Wal.fsync_policy;  (** applied to every session WAL *)
  compact_bytes : int;  (** WAL size that makes {!needs_compaction} true *)
  keep_snapshots : int;  (** snapshot files retained per session *)
  mmap_restore : mmap_mode;  (** restore path for snapshot files *)
}

(** fsync every 8th append, compact past 1 MiB, keep 2 snapshots,
    mmap restore with CRC verification *)
val default_config : config

type t

(** [open_dir ?config dir] creates [dir] (and parents) if needed. *)
val open_dir : ?config:config -> string -> t

val dir : t -> string
val config : t -> config

(** [sessions t] — names with at least one snapshot on disk, sorted. *)
val sessions : t -> string list

(** File-level views for the replication sender, which streams the
    store's own on-disk artifacts: the session's WAL path (for a
    {!Wal.Tail_reader}) and its newest snapshot as [(epoch, path)]. *)

val wal_path : t -> string -> string

val newest_snapshot : t -> string -> (int * string) option

(** {1 Recovery} *)

type recovery = {
  rv_snapshot : Snapshot.t;
  rv_replayed : Wal.record list;  (** the WAL tail, in apply order *)
  rv_torn : bool;  (** a torn final record was detected and skipped *)
  rv_stale_snapshots : int;  (** newer snapshot files that failed to decode *)
}

(** The session epoch after replaying [rv_replayed]. *)
val recovered_epoch : recovery -> int

(** [recover t name] — [Ok None] when the store holds nothing for
    [name]; [Error] only when every stored snapshot fails to decode. *)
val recover : t -> string -> (recovery option, string) result

(** {1 Change doorbells}

    A reader of the store's files (the replication sender) can wait for
    them to change instead of polling: {!log_mutation},
    {!write_snapshot} and {!reset_session} ring every watcher's bell
    once their files are written.  Rings coalesce — a bell rung twice
    before a {!wait} wakes it once. *)

type watcher

(** [watch t] — a fresh bell (a non-blocking self-pipe) that [t] rings
    on every change from now on. *)
val watch : t -> watcher

(** [unwatch t w] stops ringing [w] and closes it. *)
val unwatch : t -> watcher -> unit

(** [wait w timeout] blocks until [w] is rung (and clears it) or
    [timeout] seconds pass.  A ring between two waits is never lost:
    the next [wait] returns at once. *)
val wait : watcher -> float -> unit

(** [notify t] rings every watcher of [t] — what each write does, and
    how a watcher's owner wakes it to stop. *)
val notify : t -> unit

(** {1 Writing} *)

(** [log_mutation t ~session ~epoch m] appends one WAL record ([epoch]
    is the session epoch {e after} [m] applied). *)
val log_mutation : t -> session:string -> epoch:int -> Mutation.t -> unit

(** [write_snapshot t snap] writes the snapshot file, resets the
    session's WAL and prunes old snapshots past the retention count;
    returns the snapshot's byte size. *)
val write_snapshot : t -> Snapshot.t -> int

(** [reset_session t name] deletes every snapshot and empties the WAL
    for [name] — the fresh-[open] path, where a new lineage supersedes
    whatever the store held under that name. *)
val reset_session : t -> string -> unit

val wal_size : t -> session:string -> int
val needs_compaction : t -> session:string -> bool

(** [note_compaction t] bumps the compaction counter (the session owner
    performs compaction as snapshot + reset; this records that it was
    threshold-triggered). *)
val note_compaction : t -> unit

(** [sync t] fsyncs every open WAL now. *)
val sync : t -> unit

val close : t -> unit

(** [store_snapshots_written], [store_snapshot_bytes],
    [store_wal_appends], [store_wal_append_bytes], [store_wal_fsyncs],
    [store_recoveries], [store_replayed_records],
    [store_torn_records_skipped], [store_compactions],
    [store_mmap_restores]. *)
val counters : t -> (string * int) list

(** Latency distributions, all in nanoseconds and shared across every
    session WAL under this store: [wal_append_ns] (frame + write, not
    the policy fsync), [wal_fsync_ns], [snapshot_write_ns],
    [snapshot_restore_ns] (successful restores by either path),
    [mmap_restore_ns] (successful zero-copy restores only). *)
val histograms : t -> (string * Telemetry.Histogram.t) list

(** [register t registry] attaches every counter (as
    [cxxlookup_store_<name>_total]) and every latency histogram (as
    [cxxlookup_store_<name>]) to [registry] for Prometheus exposition. *)
val register : t -> Telemetry.Registry.t -> unit
