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

(** [of_string ?skip ?pos ?len s] parses [s], or its region of [len]
    bytes from [pos] (default: all of [s]).  Rejects trailing garbage,
    unterminated strings, floats, and other malformed input with a
    message and byte offset, counted from [pos].  Every string in the
    result is a copy: none shares [s]'s bytes, so a region of a buffer
    that is later overwritten may be parsed.  Raises [Invalid_argument]
    when the region is not inside [s].

    [skip] (default none) names fields of the top-level object whose
    values are validated by the same grammar — the same error text and
    offsets — without being built: each comes back hollow, of its own
    kind ([String ""], [List []], [Obj []]; [Null], [Bool] and [Int]
    as parsed).  For readers that need a document's small fields and
    only the shape of its large ones. *)
val of_string :
  ?skip:string list -> ?pos:int -> ?len:int -> string -> (t, string) result

(** The scanner, driven by a reader of one document's schema: see
    {!of_string_reading}. *)
type reader

(** [of_string_reading ~read ?pos ?len f s] is [of_string ?pos ?len s],
    except that the first value of the top-level field [read] is handed
    to [f] as the scanner reaches it, and its result comes back beside
    the tree ([None] without such a field).  [f] reads exactly that one
    value through the functions below, so the document is validated
    and read in one pass; the field itself is [Null] in the tree, and a
    later duplicate is only validated (the first key wins).  A syntax
    error anywhere in [s] is the result, whatever [f] made of what came
    before it. *)
val of_string_reading :
  read:string -> ?pos:int -> ?len:int -> (reader -> 'a) -> string ->
  (t * 'a option, string) result

(** [read_string f s] validates [s] as one JSON document that [f]
    reads: [f]'s result, or {!of_string}'s error text. *)
val read_string : (reader -> 'a) -> string -> ('a, string) result

(** {2 Reading a value where it lies}

    A reader is the scanner, stopped before a value.  Each function
    below consumes one value and raises the scanner's own syntax
    errors, which the calls above turn into their error text; the
    caller decides what a value means, and {!skip} validates a value
    it does not want.  Nothing is built but what the caller asks
    for. *)

(** [peek r] is the first byte of the next value (after whitespace):
    ['{'], ['['], ['"'], ['t'], ['f'], ['n'], ['-'] or a digit for a
    well-formed one. *)
val peek : reader -> char

(** [skip r] validates the next value and builds nothing. *)
val skip : reader -> unit

(** [int r] reads the number {!peek} found. *)
val int : reader -> int

(** [str r] validates the string {!peek} found; {!str_index},
    {!str_value} and {!shared_str} then read it, until the next string
    (or key) is scanned. *)
val str : reader -> unit

(** [str_index r xs ~from] is the index of the string of [xs] that the
    last string scanned decodes to, or -1.  [xs] are distinct; they are
    tried from [from] on, wrapping around, so a reader that expects a
    key there pays one comparison when it comes.  Compared in place
    when the string has no escapes. *)
val str_index : reader -> string array -> from:int -> int

(** The last string scanned, decoded. *)
val str_value : reader -> string

(** Where the last string scanned lies: its content is [text r.[str_start r
    .. str_stop r - 1]], the bytes as they are in the document, with
    escapes undecoded when {!str_escaped}. *)
val str_start : reader -> int
val str_stop : reader -> int
val str_escaped : reader -> bool

(** [read_items r f a] reads the array {!peek} found: [f r a] per
    element, which must consume it. *)
val read_items : reader -> (reader -> 'a -> unit) -> 'a -> unit

(** [read_fields r f a] reads the object {!peek} found: per field, its
    key is scanned (read it with {!str_index}), then [f r a] must consume
    the value. *)
val read_fields : reader -> (reader -> 'a -> unit) -> 'a -> unit

(** [fields_after r f a] reads the rest of an object whose fields up
    to the value just read were read elsewhere: as {!read_fields} goes
    on after [f] has consumed a value. *)
val fields_after : reader -> (reader -> 'a -> unit) -> 'a -> unit

(** {2 Matching a known layout}

    A reader that expects the bytes of a value in one layout — the one
    its own writer prints — may match them where they lie and jump past
    them, instead of scanning them token by token.  Whatever does not
    match it reads with the functions above, from where it started, so
    the error text and offsets are the scanner's.  The caller vouches
    that the bytes it jumps over are one well-formed value. *)

(** The document: the whole string the reader scans (a region of it
    when {!of_string_reading} was given one). *)
val text : reader -> string

(** The reader's offset in {!text}: after {!peek}, the next value's
    first byte. *)
val pos : reader -> int

(** [jump r p] moves the reader to offset [p], past bytes the caller
    has matched. *)
val jump : reader -> int -> unit

(** [lit r p w]: the document holds the bytes of [w] at offset [p],
    all of them before the region's end. *)
val lit : reader -> int -> string -> bool

(** [quote_from r p] is the offset of the first ['"'] at or after [p]
    when no ['\\'] comes before it, else -1 (also when the region ends
    first). *)
val quote_from : reader -> int -> int

(** Accessors returning [Error] with a path-aware message. *)

val member : string -> t -> (t, string) result
val to_list : t -> (t list, string) result
val to_int : t -> (int, string) result
val to_str : t -> (string, string) result
val to_bool : t -> (bool, string) result
