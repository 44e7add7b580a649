(** The leader side of WAL-shipping replication: a listener that
    streams each follower a per-session snapshot plus the WAL tail,
    read straight from the durable store's files.

    Per-session stream invariant: after a [snapshot] at epoch E, every
    [wal] message carries E+1, E+2, ... consecutively.  Whenever the
    on-disk tail cannot extend the stream contiguously (compaction ran
    ahead, or a fresh lineage replaced the session), the sender
    resynchronizes by resending the newest snapshot — followers never
    need to request anything.

    One systhread per follower, asleep until the store changes;
    metrics ([cxxlookup_repl_followers],
    [..._snapshots_sent_total], [..._records_sent_total],
    [..._resyncs_total]) land in the serving node's registry. *)

type t

(** [create srv addr] binds the replication listener.  Raises
    [Invalid_argument] when [srv] has no durable store — there is
    nothing to ship — and [Unix.Unix_error] when the bind fails.  A
    sender wakes when the store rings its doorbell ({!Store.watch}) and
    at each 1 s ping; it does not poll. *)
val create : Service.Server.t -> Net.Server.addr -> t

(** The actual listening address (ephemeral TCP ports resolved). *)
val bound_addr : t -> Net.Server.addr

(** [run t] accepts followers until {!stop}, then shuts every stream
    down and joins the sender threads.  Run it on its own thread next
    to [Net.Server.run]. *)
val run : t -> unit

val stop : t -> unit
