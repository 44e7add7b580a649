(** A connection's output buffer: growable bytes that, unlike
    [Buffer.t], can be rewritten in place.  A response frame's length
    field is patched once its payload is written, and an echoed request
    id is copied over the id slot of an encoded frame, so a response
    goes into the buffer in one pass and leaves it with no copy. *)

type t

(** [create n] — an empty buffer with room for [n] bytes. *)
val create : int -> t

val length : t -> int

(** The backing store: its first {!length} bytes are the contents.
    Valid until the next append. *)
val bytes : t -> Bytes.t

val clear : t -> unit

(** [truncate t n] drops everything past the first [n] bytes. *)
val truncate : t -> int -> unit

val add_char : t -> char -> unit
val add_u8 : t -> int -> unit

(** little-endian, the low 32 bits of the int *)
val add_u32 : t -> int -> unit

val add_string : t -> string -> unit
val add_substring : t -> string -> int -> int -> unit

(** [set_u32 t pos v] overwrites four bytes already written. *)
val set_u32 : t -> int -> int -> unit

(** [blit_string s spos t pos n] overwrites [n] bytes already written,
    from [pos], with [s]'s from [spos]. *)
val blit_string : string -> int -> t -> int -> int -> unit

val contents : t -> string
