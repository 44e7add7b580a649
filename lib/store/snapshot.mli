(** Versioned binary snapshots of a session's durable state.

    Container layout (all integers little-endian):
    {v
    "CXLSNAP0"              8-byte magic
    u32 format_version      currently 1
    u32 section_count
    section*:  u8 tag | u32 payload_len | u32 crc32(payload) | payload
    v}

    Sections: [1] meta (session name, epoch, protocol version),
    [2] graph (the {!Chg.Binary} graph codec), [5] the whole compiled
    table as a position-independent image ({!Lookup_core.Packed}) whose
    64-bit word area the writer pads to an 8-aligned file offset —
    what {!open_mapped} serves zero-copy from a [Bigarray] mapping and
    {!decode} reads byte-at-a-time.  Unknown tags are CRC-checked and
    skipped, so later format minors can add sections without breaking
    this reader; a major layout change bumps [format_version] and is
    rejected.  The column sections of older builds, tag [3] (boxed
    verdicts) and tag [4] (packed per column), are skipped the same
    way: such a snapshot restores its graph and meta with no columns,
    which are compiled again on a miss.

    Every section carries its own CRC-32: a flipped bit anywhere turns
    {!decode} into an [Error], never into a wrong hierarchy.  Columns
    are positional over class ids, so decode rejects any column whose
    class count disagrees with the graph section. *)

type t = {
  s_session : string;
  s_epoch : int;  (** mutations applied when the snapshot was taken *)
  s_protocol : string;  (** the rpc protocol version that wrote it *)
  s_graph : Chg.Graph.t;
  s_columns : (string * Lookup_core.Packed.column) list;
      (** compiled verdict columns resident at snapshot time — restoring
          them is what makes a warm start skip recomputation *)
}

val format_version : int

val encode : t -> string

val decode : string -> (t, string) result

(** [write_file path t] writes atomically (temp file + [rename]), with
    an [fsync] of the file and a best-effort [fsync] of its directory;
    returns the byte size. *)
val write_file : string -> t -> int

val read_file : string -> (t, string) result

(** [open_mapped ?verify path] restores with the table columns served
    {e in place} from a memory-mapped view of the snapshot file: only
    the small meta and graph sections are decoded; the table image's
    word area is mapped read-only, so restore cost is O(1) page-in
    regardless of table size.  [verify] (default [true]) additionally
    streams the image payload once to check its section CRC; [false]
    trusts the probe word, the O(m) structural validation, and the
    views' per-access bounds checks.

    Returns [Error] — and the caller should fall back to
    {!read_file} — when the snapshot predates the image section (tags
    3/4), the word area is misaligned, the filesystem refuses the
    mapping, or any validation fails.  The mapping stays valid after
    this call returns (the fd is closed; the pages are not).  The
    returned columns are immutable views: mutations materialize to the
    heap, never write through. *)
val open_mapped : ?verify:bool -> string -> (t, string) result
