(** The [cxxlookup-rpc/1b] binary framing — the no-JSON hot path for
    [lookup], [batch_lookup], [mutate] and [symbols].

    Wire format (all integers little-endian, {!Chg.Binary} primitives):
    {v
    request   0xB1 | u8 op     | u32 payload_len | payload
    response  0xB2 | u8 status | u32 payload_len | payload
    v}

    The 0xB1 magic disambiguates against JSON-lines (which never starts
    a message with that byte), so one listener serves both framings
    with no handshake — negotiation is per message.  Every request
    payload begins [i64 id | string session], so a router can extract
    the routing key without op-specific knowledge and forward the frame
    opaquely.  Classes and members travel as the session's dense
    interned ids; the [symbols] verb returns the tables and mutation
    responses carry the intern delta, so a client needs one symbols
    round-trip (and the deltas) to stay int-only.

    Ok responses (status 0) are op-specific; error responses (status 1)
    are [i64 id | u8 code | string message] with {!Protocol.code_byte}
    codes.  Verdicts compress to a tag byte (0 none, 1 red + u32
    declaring class, 2 blue) — detail strings remain JSON-only.

    Decoders never raise: malformed frames become [Error], which the
    server answers as [bad_request].  The length prefix keeps a bad
    payload from desynchronizing the connection. *)

val version : string

(** First byte of a request resp. response frame (0xB1 / 0xB2). *)
val request_magic : int

val response_magic : int

(** Header bytes before the payload (magic + op/status + u32 length). *)
val header_len : int

(** Request op bytes: lookup 1, batch_lookup 2, add_member 3,
    add_class 4, symbols 5.  Never renumbered. *)
val op_lookup : int

val op_batch_lookup : int
val op_add_member : int
val op_add_class : int
val op_symbols : int

type req =
  | Lookup of { lk_class : int; lk_member : int }
  | Batch_lookup of (int * int) array  (** (class id, member id) pairs *)
  | Add_member of { am_class : int; am_member : Chg.Graph.member }
  | Add_class of {
      ac_name : string;
      ac_bases : (string * Chg.Graph.edge_kind * Chg.Graph.access) list;
      ac_members : Chg.Graph.member list;
    }
  | Symbols

type request = { fr_id : int; fr_session : string; fr_op : req }

(** [parse_header s] splits the 6-byte request prefix into
    [(op, payload_len)]. *)
val parse_header : string -> (int * int, string) result

(** [decode_request ~op body] types a request payload ([body] excludes
    the header).  [Error] means [bad_request]. *)
val decode_request : op:int -> string -> (request, string) result

val encode_request : request -> string

(** {2 Requests in place}

    A request frame read where it lies, without building a
    {!request}: the id-addressed path's decode. *)

(** [id_at f] — the offset of the request's 8 id bytes, when [f]'s
    header is a request header whose length agrees with the frame and
    the [i64 id | string session] prefix is complete; [-1] otherwise.
    A response echoes exactly these bytes, or 8 zero bytes at [-1]. *)
val id_at : string -> int

(** [id_value f at] — the id at [at] folded into an [int] (0 at
    [-1]), for logs.  The echo copies the bytes instead. *)
val id_value : string -> int -> int

(** [session_name f] — for a frame whose {!id_at} is not [-1]: the
    session name. *)
val session_name : string -> string

(** [id_count f] — for a lookup or batch_lookup frame whose {!id_at}
    is not [-1]: its number of (class, member) pairs (1 for a lookup),
    or [-1] when the payload is not exactly that shape —
    {!decode_request} then says why.  Allocates nothing. *)
val id_count : string -> int

(** [pairs_at f] — the offset of the first (class, member) pair, two
    little-endian u32s per pair. *)
val pairs_at : string -> int

(** The little-endian u32 at an offset of a string. *)
val u32_at : string -> int -> int

(** Verdict codes follow {!Lookup_core.Packed.column_resolve_code}:
    [-1] absent, [-2] ambiguous, [>= 0] the declaring class id. *)
type verdict_code = int

type resp =
  | Ok_lookup of verdict_code
  | Ok_batch of {
      ob_codes : verdict_code array;
      ob_resolved : int;
      ob_ambiguous : int;
      ob_not_found : int;
    }
  | Ok_add_member of {
      oam_member : int;  (** the mutated member's interned id *)
      oam_rows : int;
      oam_invalidated : bool;
      oam_epoch : int;
      oam_new_symbols : (int * string) list;  (** intern-table delta *)
    }
  | Ok_add_class of {
      oac_class : int;  (** the new class id *)
      oac_classes : int;  (** class count after the mutation *)
      oac_epoch : int;
      oac_new_symbols : (int * string) list;
    }
  | Ok_symbols of {
      os_epoch : int;
      os_classes : string array;  (** class id -> name *)
      os_members : string array;  (** member id -> name *)
    }
  | Err of Protocol.error_code * string

val encode_response : id:int -> resp -> string

(** {2 Responses in place}

    Responses written straight into a connection's {!Outbuf.t}, echoing
    the id bytes of the request frame at {!id_at} (zeros at [-1]). *)

(** [open_ok out request at] starts an ok response frame — header with
    a placeholder length, then the echoed id — and returns its start;
    the op's payload follows, then {!close_ok}. *)
val open_ok : Outbuf.t -> string -> int -> int

(** [close_ok out start] writes the frame's payload length. *)
val close_ok : Outbuf.t -> int -> unit

(** [add_verdict out code] — one verdict, as {!encode_response} writes
    it. *)
val add_verdict : Outbuf.t -> verdict_code -> unit

(** [add_response out request at resp] appends [resp]'s frame with the
    request's id bytes. *)
val add_response : Outbuf.t -> string -> int -> resp -> unit

(** [echo_id ~request resp] — the response frame [resp] with the id
    bytes of [request] (when its {!id_at} is not [-1]). *)
val echo_id : request:string -> string -> string

(** [decode_response ~op s] types a full response frame for the client
    side; [op] names the request op it answers (the wire does not
    repeat it). *)
val decode_response : op:int -> string -> (int * resp, string) result
