(** Binary (de)serialization primitives and the graph codec — the
    substrate of the durable store's snapshot and WAL formats.

    All integers are little-endian and fixed-width; strings are
    length-prefixed; there is no padding or alignment, so every encoding
    is a deterministic function of the value.  Integrity is the
    caller's concern: the store frames each payload with a {!crc32}
    checksum and treats {!Corrupt} as "this payload is not trustworthy",
    never as a fatal condition. *)

(** Raised by readers on truncated or malformed input.  The message
    names the field that failed, for diagnostics. *)
exception Corrupt of string

(** {1 CRC-32}

    The IEEE 802.3 polynomial (0xEDB88320, reflected), as used by gzip
    and PNG — [crc32 "123456789" = 0xCBF43926l]. *)

val crc32 : ?crc:int32 -> string -> pos:int -> len:int -> int32

(** [crc32_string s] checksums all of [s]. *)
val crc32_string : string -> int32

(** {1 Writer} *)

module Writer : sig
  type t

  val create : ?initial_size:int -> unit -> t

  val u8 : t -> int -> unit
  val u32 : t -> int -> unit  (** asserts [0 <= v < 2^32] *)

  val i64 : t -> int -> unit  (** full OCaml int range *)

  val bool : t -> bool -> unit
  val string : t -> string -> unit  (** u32 length prefix + bytes *)

  val raw : t -> string -> unit  (** bytes, no prefix *)

  val length : t -> int
  val contents : t -> string
end

(** {1 Reader} *)

module Reader : sig
  type t

  (** [of_string ?pos ?len s] reads from a slice of [s]. *)
  val of_string : ?pos:int -> ?len:int -> string -> t

  val u8 : t -> int
  val u32 : t -> int
  val i64 : t -> int
  val bool : t -> bool
  val string : t -> string
  val raw : t -> int -> string

  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool
end

(** {1 Graph codec}

    Encodes a frozen {!Graph.t} structurally: classes in id
    (declaration) order, each with its name, direct bases (by id — ids
    are a topological order, so decoding fills the graph's arrays in
    one pass, {!Graph.add_ordered}) and members.  The encoding has no version field of its own;
    the store's snapshot header versions the whole container. *)

(** [read_list r f] reads a u32 count then that many elements with [f],
    strictly in order (the reader is stateful). *)
val read_list : Reader.t -> (Reader.t -> 'a) -> 'a list

val write_graph : Writer.t -> Graph.t -> unit

(** [read_graph r] rebuilds the graph, with every check of the
    builder: a base id must be an earlier class, and a duplicate class,
    base or member is "graph rejected: " and the {!Graph.error} text.
    @raise Corrupt on malformed input (including graph-level errors such
    as an out-of-range base id). *)
val read_graph : Reader.t -> Graph.t

(** Member codec, shared with the WAL's mutation records. *)

val write_member : Writer.t -> Graph.member -> unit
val read_member : Reader.t -> Graph.member

val write_edge_kind : Writer.t -> Graph.edge_kind -> unit
val read_edge_kind : Reader.t -> Graph.edge_kind
val write_access : Writer.t -> Graph.access -> unit
val read_access : Reader.t -> Graph.access
