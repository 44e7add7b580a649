type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ----------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string ?(pretty = false) j =
  let buf = Buffer.create 256 in
  let indent n =
    if pretty then begin
      Buffer.add_char buf '\n';
      for _ = 1 to n do
        Buffer.add_string buf "  "
      done
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | String s -> escape_into buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          go (depth + 1) item)
        items;
      indent depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          escape_into buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          go (depth + 1) v)
        fields;
      indent depth;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* -- parsing ------------------------------------------------------------ *)

exception Parse of string * int

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The four bytes of a [\u] escape at [i], read as [int_of_string ("0x"
   ^ _)] reads them (a hex digit, then hex digits or '_'), else -1. *)
let hex4 s i =
  let rec go k acc =
    if k = 4 then acc
    else
      match s.[i + k] with
      | '_' when k > 0 -> go (k + 1) acc
      | c ->
        let d = hex_digit c in
        if d < 0 then -1 else go (k + 1) ((acc * 16) + d)
  in
  go 0 0

(* The decimal [s.[i .. j - 1]] (an optional '-', then digits), read as
   [int_of_string] reads it; [Exit] without a digit or outside the int
   range.  Accumulated negative, where the range is one wider; no
   allocation. *)
let decimal s i j =
  let neg = i < j && s.[i] = '-' in
  let i = if neg then i + 1 else i in
  let rec go k acc =
    if k = j then acc
    else
      let d = Char.code s.[k] - 48 in
      if acc < (min_int + d) / 10 then raise Exit else go (k + 1) ((acc * 10) - d)
  in
  if i = j then raise Exit;
  let v = go i 0 in
  if neg then v else if v = min_int then raise Exit else -v

(* [List.mem] on strings, without polymorphic compare: every top-level
   key of every request is checked *)
let rec named k = function [] -> false | x :: l -> String.equal x k || named k l

(* The scanner's state over one document [s]: a byte scanner whose
   characters are read in place, where a string without escapes is one
   [String.sub], and a value that is only validated ([skip_value])
   allocates nothing.  Failure text and offsets are part of the wire
   contract (parse errors are echoed to clients), and the building, the
   validating and the reading paths raise the same errors at the same
   offsets.  The state is one record and the scanner's functions take
   it, so a scan allocates no closures.

   [skip] names top-level object fields that are validated, not built:
   each comes back hollow, of its own kind.  So does the top-level
   field [read_key], except that its first value, while [reading],
   goes to [on_read].  [str_at], [str_end] and [str_esc] are the last string
   scanned: its content bytes and whether an escape is among them. *)
type scanner = {
  s : string;
  n : int;
  mutable pos : int;
  skip : string list;
  read_key : string option;
  mutable reading : bool;
  on_read : scanner -> unit;
  mutable str_at : int;
  mutable str_end : int;
  mutable str_esc : bool;
}

type reader = scanner

let error st msg = raise (Parse (msg, st.pos))

let rec skip_ws st =
  if st.pos < st.n then
    match String.unsafe_get st.s st.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      st.pos <- st.pos + 1;
      skip_ws st
    | _ -> ()

(* [pos < n] and the byte there is [c] *)
let at st c = st.pos < st.n && String.unsafe_get st.s st.pos = c

let expect st c =
  if st.pos >= st.n then
    error st (Printf.sprintf "expected '%c', found end of input" c);
  let d = String.unsafe_get st.s st.pos in
  if d <> c then error st (Printf.sprintf "expected '%c', found '%c'" c d);
  st.pos <- st.pos + 1

let rec same st word i =
  i = String.length word
  || (String.unsafe_get st.s (st.pos + i) = String.unsafe_get word i
     && same st word (i + 1))

let literal st word value =
  if st.pos + String.length word <= st.n && same st word 0 then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else error st (Printf.sprintf "invalid literal (expected %s)" word)

(* The rest of a string from its escape at [pos], appended to [buf]
   unless only validating. *)
let rec escaped st buf =
  if st.pos >= st.n then error st "unterminated string";
  match String.unsafe_get st.s st.pos with
  | '"' -> st.pos <- st.pos + 1
  | '\\' ->
    st.pos <- st.pos + 1;
    if st.pos >= st.n then error st "unterminated escape";
    let c =
      match String.unsafe_get st.s st.pos with
      | ('"' | '\\' | '/') as c -> c
      | 'n' -> '\n'
      | 't' -> '\t'
      | 'r' -> '\r'
      | 'b' -> '\b'
      | 'u' ->
        st.pos <- st.pos + 1;
        if st.pos + 4 > st.n then error st "truncated \\u escape";
        let code = hex4 st.s st.pos in
        if code < 0 then error st "malformed \\u escape";
        if code >= 128 then error st "non-ASCII \\u escapes are not supported";
        st.pos <- st.pos + 3;
        Char.chr code
      | c -> error st (Printf.sprintf "invalid escape '\\%c'" c)
    in
    (match buf with Some b -> Buffer.add_char b c | None -> ());
    st.pos <- st.pos + 1;
    escaped st buf
  | c ->
    (match buf with Some b -> Buffer.add_char b c | None -> ());
    st.pos <- st.pos + 1;
    escaped st buf

(* From a string's first content byte [i]: -1 with [pos] past its
   closing quote, or the offset of its first escape. *)
let rec plain st i =
  if i >= st.n then begin
    st.pos <- st.n;
    error st "unterminated string"
  end;
  match String.unsafe_get st.s i with
  | '"' ->
    st.pos <- i + 1;
    -1
  | '\\' ->
    st.pos <- i;
    i
  | _ -> plain st (i + 1)

let parse_string st =
  expect st '"';
  let start = st.pos in
  let e = plain st start in
  if e < 0 then String.sub st.s start (st.pos - 1 - start)
  else begin
    let b = Buffer.create (e - start + 16) in
    Buffer.add_substring b st.s start (e - start);
    escaped st (Some b);
    Buffer.contents b
  end

(* Validates the string at [pos] and notes where its contents lie. *)
let skip_string st =
  expect st '"';
  let start = st.pos in
  st.str_esc <- plain st start >= 0;
  if st.str_esc then escaped st None;
  st.str_at <- start;
  st.str_end <- st.pos - 1

let rec digits st =
  if st.pos < st.n then
    match String.unsafe_get st.s st.pos with
    | '0' .. '9' ->
      st.pos <- st.pos + 1;
      digits st
    | '.' | 'e' | 'E' -> error st "floats are not supported"
    | _ -> ()

let parse_int st =
  let start = st.pos in
  if at st '-' then st.pos <- st.pos + 1;
  digits st;
  match decimal st.s start st.pos with
  | v -> v
  | exception Exit -> error st "malformed number"

let rec item_loop st f a =
  f st a;
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    item_loop st f a
  end
  else if at st ']' then st.pos <- st.pos + 1
  else error st "expected ',' or ']'"

(* The array at [pos]: [f st a] per element, which must consume it. *)
let read_items st f a =
  st.pos <- st.pos + 1;
  skip_ws st;
  if at st ']' then st.pos <- st.pos + 1 else item_loop st f a

let rec field_loop st f a =
  skip_ws st;
  skip_string st;
  skip_ws st;
  expect st ':';
  f st a;
  fields_after st f a

(* the rest of an object after one of its values *)
and fields_after st f a =
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    field_loop st f a
  end
  else if at st '}' then st.pos <- st.pos + 1
  else error st "expected ',' or '}'"

(* The object at [pos]: per field, its key is scanned, then [f st a]
   must consume the value. *)
let read_fields st f a =
  st.pos <- st.pos + 1;
  skip_ws st;
  if at st '}' then st.pos <- st.pos + 1 else field_loop st f a

let rec skip_value st =
  skip_ws st;
  if st.pos >= st.n then error st "unexpected end of input";
  match String.unsafe_get st.s st.pos with
  | '"' -> skip_string st
  | '[' -> read_items st skip_one ()
  | '{' -> read_fields st skip_one ()
  | 'n' -> literal st "null" ()
  | 't' -> literal st "true" ()
  | 'f' -> literal st "false" ()
  | '-' | '0' .. '9' -> ignore (parse_int st)
  | c -> error st (Printf.sprintf "unexpected character '%c'" c)

and skip_one st () = skip_value st

let is_read_key st k =
  match st.read_key with Some r -> String.equal r k | None -> false

(* [top]: the document's outermost value, whose fields [skip] names *)
let rec parse_value st ~top =
  skip_ws st;
  if st.pos >= st.n then error st "unexpected end of input";
  match String.unsafe_get st.s st.pos with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> String (parse_string st)
  | '-' | '0' .. '9' -> Int (parse_int st)
  | '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else List (items st [])
  | '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else Obj (fields st ~top [])
  | c -> error st (Printf.sprintf "unexpected character '%c'" c)

and items st acc =
  let acc = parse_value st ~top:false :: acc in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    items st acc
  end
  else if at st ']' then begin
    st.pos <- st.pos + 1;
    List.rev acc
  end
  else error st "expected ',' or ']'"

and fields st ~top acc =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  let v =
    if top && (named k st.skip || is_read_key st k) then skipped st k
    else parse_value st ~top:false
  in
  let acc = (k, v) :: acc in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    fields st ~top acc
  end
  else if at st '}' then begin
    st.pos <- st.pos + 1;
    List.rev acc
  end
  else error st "expected ',' or '}'"

(* A skipped value: validated and hollow (the hollow values are
   constants, so they allocate nothing), or, for the first [read_key],
   read by [on_read] and [Null] in the tree.  A later duplicate, which
   no reader sees (the first key wins), is only validated. *)
and skipped st k =
  skip_ws st;
  if st.reading && is_read_key st k then begin
    st.reading <- false;
    st.on_read st;
    Null
  end
  else
    match if st.pos < st.n then String.unsafe_get st.s st.pos else ' ' with
    | '"' ->
      skip_value st;
      String ""
    | '[' ->
      skip_value st;
      List []
    | '{' ->
      skip_value st;
      Obj []
    | _ -> parse_value st ~top:false

(* A scanner over [s.[pos .. pos + len - 1]]; its error offsets are
   relative to [pos] (see {!json_error}). *)
let scanner ?read_key ?(on_read = ignore) ~skip ?(pos = 0) ?len s =
  let len = Option.value len ~default:(String.length s - pos) in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Chg.Json: region outside the string";
  { s; n = pos + len; pos; skip; read_key;
    reading = read_key <> None; on_read; str_at = 0; str_end = 0;
    str_esc = false }

(* [v], the value of the document [st] scans, once its end is checked *)
let ended st v =
  skip_ws st;
  if st.pos <> st.n then error st "trailing garbage";
  v

(* [at] counts from the region's first byte [pos] *)
let json_error ?(pos = 0) msg at =
  Error (Printf.sprintf "JSON error at offset %d: %s" (at - pos) msg)

let of_string ?(skip = []) ?pos ?len s =
  let st = scanner ~skip ?pos ?len s in
  match ended st (parse_value st ~top:true) with
  | v -> Ok v
  | exception Parse (msg, at) -> json_error ?pos msg at

let of_string_reading ~read ?pos ?len f s =
  let got = ref None in
  let st =
    scanner ~read_key:read ~on_read:(fun r -> got := Some (f r)) ~skip:[]
      ?pos ?len s
  in
  match ended st (parse_value st ~top:true) with
  | j -> Ok (j, !got)
  | exception Parse (msg, at) -> json_error ?pos msg at

let read_string f s =
  let st = scanner ~skip:[] s in
  match ended st (f st) with
  | v -> Ok v
  | exception Parse (msg, at) -> json_error msg at

(* -- reading a document as it is validated ------------------------------ *)

let peek st =
  skip_ws st;
  if st.pos >= st.n then error st "unexpected end of input";
  String.unsafe_get st.s st.pos

let skip = skip_value
let int = parse_int
let str = skip_string

(* the last string scanned, escapes decoded *)
let str_value st =
  let len = st.str_end - st.str_at in
  if not st.str_esc then String.sub st.s st.str_at len
  else begin
    let pos = st.pos and b = Buffer.create len in
    st.pos <- st.str_at;
    escaped st (Some b);
    st.pos <- pos;
    Buffer.contents b
  end

(* [s.[k .. j - 1]] is the rest of [x], which [s.[i ..]] holds *)
let rec same_from x s i j k =
  k = j
  || (String.unsafe_get s k = String.unsafe_get x (k - i) && same_from x s i j (k + 1))

(* the last string scanned, without escapes, is [x]; its length and
   first byte are checked before its other bytes *)
let same_str st x =
  String.length x = st.str_end - st.str_at
  && String.length x > 0
  && String.unsafe_get x 0 = String.unsafe_get st.s st.str_at
  && same_from x st.s st.str_at st.str_end st.str_at

(* the first of [left] strings of [xs] from [k] on, wrapping, that
   the last string scanned ([d] decoded, when it has escapes) is, or
   -1 *)
let rec str_index_from st d xs k left =
  if left = 0 then -1
  else
    let k = if k = Array.length xs then 0 else k in
    let x = Array.unsafe_get xs k in
    if if st.str_esc then String.equal d x else same_str st x then k
    else str_index_from st d xs (k + 1) (left - 1)

let str_index st xs ~from =
  let d = if st.str_esc then str_value st else "" in
  str_index_from st d xs from (Array.length xs)

let text st = st.s
let pos st = st.pos
let jump st p = st.pos <- p
let str_start st = st.str_at
let str_stop st = st.str_end
let str_escaped st = st.str_esc

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* [w.[i ..]] lies at [s.[p + i ..]]: eight bytes at a time, then
   byte by byte.  Top-level loops, so a match allocates no closure. *)
let rec lit_bytes s p w i =
  i = String.length w
  || (String.unsafe_get s (p + i) = String.unsafe_get w i && lit_bytes s p w (i + 1))

let rec lit_words s p w i =
  if i + 8 <= String.length w then
    (get64u s (p + i) : int64) = get64u w i && lit_words s p w (i + 8)
  else lit_bytes s p w i

let lit st p w = p + String.length w <= st.n && lit_words st.s p w 0

let rec quote_from st i =
  if i >= st.n then -1
  else
    match String.unsafe_get st.s i with
    | '"' -> i
    | '\\' -> -1
    | _ -> quote_from st (i + 1)

(* -- accessors ----------------------------------------------------------- *)

let member k = function
  | Obj fields ->
    (match List.assoc_opt k fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" k))
  | _ -> Error (Printf.sprintf "expected an object with field %S" k)

let to_list = function
  | List l -> Ok l
  | _ -> Error "expected an array"

let to_int = function
  | Int n -> Ok n
  | _ -> Error "expected an integer"

let to_str = function
  | String s -> Ok s
  | _ -> Error "expected a string"

let to_bool = function
  | Bool b -> Ok b
  | _ -> Error "expected a boolean"
