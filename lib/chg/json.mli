(** A minimal JSON representation, printer and parser — enough to
    serialize class hierarchies and lookup tables without external
    dependencies (the container environment is sealed; see DESIGN.md).

    Supports null, booleans, integers, strings (with the standard escape
    sequences), arrays and objects.  Floats are deliberately not
    supported: nothing in a class hierarchy needs them and dropping them
    keeps round-trips exact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?pretty j] serializes.  [pretty] (default false) adds
    newlines and two-space indentation. *)
val to_string : ?pretty:bool -> t -> string

(** [of_string ?skip s] parses.  Rejects trailing garbage, unterminated
    strings, floats, and other malformed input with a message and byte
    offset.

    [skip] (default none) names fields of the top-level object whose
    values are validated by the same grammar — the same error text and
    offsets — without being built: each comes back hollow, of its own
    kind ([String ""], [List []], [Obj []]; [Null], [Bool] and [Int]
    as parsed).  For readers that need a document's small fields and
    only the shape of its large ones. *)
val of_string : ?skip:string list -> string -> (t, string) result

(** The bytes of one JSON value that {!of_string}'s scanner validated,
    read in place by {!Cursor}.  Only the scanner makes one. *)
type span

(** [of_string_spans ~skip s] is [of_string ~skip s] plus the span of
    each skipped field's first value, in document order (the value a
    reader sees: the first of duplicate keys wins).  A later duplicate
    is validated and nothing more, so a line's spans together are no
    larger than the line. *)
val of_string_spans :
  skip:string list -> string -> (t * (string * span) list, string) result

(** [span_of_string s] validates [s] as one JSON document, building
    nothing: the span of its value, or {!of_string}'s error text. *)
val span_of_string : string -> (span, string) result

(** A value inside a {!span}, read where it lies: the accessors below
    with the same results and error text as their tree counterparts
    (the first of duplicate keys wins), allocating only what they
    return. *)
module Cursor : sig
  type t

  val root : span -> t
  val member : string -> t -> (t, string) result
  val to_list : t -> (t list, string) result
  val to_int : t -> (int, string) result
  val to_str : t -> (string, string) result
  val to_bool : t -> (bool, string) result
end

(** Accessors returning [Error] with a path-aware message. *)

val member : string -> t -> (t, string) result
val to_list : t -> (t list, string) result
val to_int : t -> (int, string) result
val to_str : t -> (string, string) result
val to_bool : t -> (bool, string) result
