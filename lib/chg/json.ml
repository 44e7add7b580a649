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

(* One JSON value the scanner below has validated, with its tape: per
   value, entry [i] ([entry tape i]) is the offset of its first byte in
   [src] and entry [i + 1] the index just past its subtree.  A container's
   children follow it, an array's elements or an object's keys and
   values alternating; value 0 is the span's own. *)
type span = { src : string; tape : Bytes.t }

(* The tape's entries are 64-bit words in bytes: a bytes block is
   neither initialised when made nor scanned by the collector, so
   growing a tape costs one copy of what it holds. *)
let entry tape i = Int64.to_int (Bytes.get_int64_le tape (8 * i))
let set_entry tape i v = Bytes.set_int64_le tape (8 * i) (Int64.of_int v)

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
   allocates nothing unless its tape is kept.  Failure text and offsets
   are part of the wire contract (parse errors are echoed to clients),
   and the building and the validating paths raise the same errors at
   the same offsets.  The state is one record and the scanner's
   functions take it, so a scan allocates no closures.

   [skip] names top-level object fields that are validated, not built:
   each comes back hollow, of its own kind.  With [keep], the first
   value of each such field also gets its span: [tape] is written while
   [taping], then joins [spans]. *)
type scanner = {
  s : string;
  n : int;
  mutable pos : int;
  skip : string list;
  keep : bool;
  mutable taping : bool;
  mutable tape : Bytes.t;
  mutable fill : int;
  mutable spans : (string * span) list;
}

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

(* A node for the value at [pos]: its tape index, or -1.  The tape
   starts small and doubles, so it is sized by what was scanned. *)
let node st =
  if not st.taping then -1
  else begin
    let i = st.fill in
    if 8 * (i + 2) > Bytes.length st.tape then
      st.tape <- Bytes.extend st.tape 0 (Bytes.length st.tape);
    set_entry st.tape i st.pos;
    st.fill <- i + 2;
    i
  end

let close st i = if i >= 0 then set_entry st.tape (i + 1) st.fill

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

let skip_string st =
  let i = node st in
  expect st '"';
  if plain st st.pos >= 0 then escaped st None;
  close st i

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

let rec skip_value st =
  skip_ws st;
  if st.pos >= st.n then error st "unexpected end of input";
  match String.unsafe_get st.s st.pos with
  | '"' -> skip_string st
  | '[' ->
    let i = node st in
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st ']' then st.pos <- st.pos + 1 else skip_items st;
    close st i
  | '{' ->
    let i = node st in
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st '}' then st.pos <- st.pos + 1 else skip_fields st;
    close st i
  | _ -> skip_scalar st

and skip_scalar st =
  let i = node st in
  (match String.unsafe_get st.s st.pos with
  | 'n' -> literal st "null" ()
  | 't' -> literal st "true" ()
  | 'f' -> literal st "false" ()
  | '-' | '0' .. '9' -> ignore (parse_int st)
  | c -> error st (Printf.sprintf "unexpected character '%c'" c));
  close st i

and skip_items st =
  skip_value st;
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    skip_items st
  end
  else if at st ']' then st.pos <- st.pos + 1
  else error st "expected ',' or ']'"

and skip_fields st =
  skip_ws st;
  skip_string st;
  skip_ws st;
  expect st ':';
  skip_value st;
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    skip_fields st
  end
  else if at st '}' then st.pos <- st.pos + 1
  else error st "expected ',' or '}'"

let rec has_span k = function
  | [] -> false
  | (x, _) :: l -> String.equal x k || has_span k l

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
    if top && named k st.skip then skipped st k else parse_value st ~top:false
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

(* A skipped value: validated, hollow (the hollow values are constants,
   so they allocate nothing), and taped if it is the first of its key
   and spans are kept.  A later duplicate, which no reader sees (the
   first key wins), is only validated: a line's tapes are one per
   skipped key, together no longer than the line. *)
and skipped st k =
  skip_ws st;
  let kept = st.keep && not (has_span k st.spans) in
  if kept then begin
    st.taping <- true;
    st.tape <- Bytes.create (8 * 64);
    st.fill <- 0
  end;
  let v =
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
    | _ ->
      let i = node st in
      let v = parse_value st ~top:false in
      close st i;
      v
  in
  if kept then begin
    st.taping <- false;
    st.spans <- (k, { src = st.s; tape = st.tape }) :: st.spans
  end;
  v

let scanner ~skip ~keep s =
  { s; n = String.length s; pos = 0; skip; keep; taping = false;
    tape = Bytes.empty; fill = 0; spans = [] }

(* The document [st] scans; [whole] validates it as one skipped value. *)
let scanned ~whole st =
  match
    let v = if whole then skipped st "" else parse_value st ~top:true in
    skip_ws st;
    if st.pos <> st.n then error st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (msg, at) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

let of_string ?(skip = []) s = scanned ~whole:false (scanner ~skip ~keep:false s)

let of_string_spans ~skip s =
  let st = scanner ~skip ~keep:true s in
  match scanned ~whole:false st with
  | Ok v -> Ok (v, List.rev st.spans)
  | Error msg -> Error msg

let span_of_string s =
  let st = scanner ~skip:[] ~keep:true s in
  match scanned ~whole:true st with
  | Ok _ -> Ok (snd (List.hd st.spans) (* the document's, its only one *))
  | Error msg -> Error msg

(* -- reading a validated span in place ---------------------------------- *)

(* A value of a span is its tape index: a reader steps over a value in
   O(1) and reads its bytes only to decode it.  The scanner vouched for
   the grammar; every read is still bounds-checked. *)
module Cursor = struct
  type t = { sp : span; node : int }

  let root sp = { sp; node = 0 }
  let first_byte { sp; node } = sp.src.[entry sp.tape node]

  (* the byte a backslash at [i] stands for, and the escape's length *)
  let escape_char s i =
    match s.[i + 1] with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | 'b' -> '\b'
    | 'u' -> Char.chr (hex4 s (i + 2))
    | c -> c

  let escape_len s i = if s.[i + 1] = 'u' then 6 else 2

  (* the string whose contents start at [i], from offset [p] of [k] on,
     decodes to the rest of [k] *)
  let rec key_is s i k p =
    match s.[i] with
    | '"' -> p = String.length k
    | '\\' ->
      p < String.length k
      && escape_char s i = k.[p]
      && key_is s (i + escape_len s i) k (p + 1)
    | c -> p < String.length k && c = k.[p] && key_is s (i + 1) k (p + 1)

  (* the value of the first key named [k], from key node [key] on, or
     -1; a key is a string, so its value is the next node *)
  let rec find_key sp k key stop =
    if key >= stop then -1
    else if key_is sp.src (entry sp.tape key + 1) k 0 then key + 2
    else find_key sp k (entry sp.tape (key + 3)) stop

  let member k ({ sp; node } as c) =
    if first_byte c <> '{' then
      Error (Printf.sprintf "expected an object with field %S" k)
    else
      let v = find_key sp k (node + 2) (entry sp.tape (node + 1)) in
      if v < 0 then Error (Printf.sprintf "missing field %S" k)
      else Ok { sp; node = v }

  let[@tail_mod_cons] rec elements sp i stop =
    if i >= stop then []
    else { sp; node = i } :: elements sp (entry sp.tape (i + 1)) stop

  let to_list ({ sp; node } as c) =
    if first_byte c <> '[' then Error "expected an array"
    else Ok (elements sp (node + 2) (entry sp.tape (node + 1)))

  let rec digits_end s i =
    if i < String.length s && (s.[i] = '-' || (s.[i] >= '0' && s.[i] <= '9'))
    then digits_end s (i + 1)
    else i

  let to_int ({ sp; node } as c) =
    match first_byte c with
    | '-' | '0' .. '9' ->
      let at = entry sp.tape node in
      (match decimal sp.src at (digits_end sp.src at) with
      | v -> Ok v
      | exception Exit -> Error "expected an integer")
    | _ -> Error "expected an integer"

  (* from [i]: the closing quote, or the first escape *)
  let rec plain_end s i =
    match s.[i] with '"' | '\\' -> i | _ -> plain_end s (i + 1)

  let rec unescape s b i =
    match s.[i] with
    | '"' -> ()
    | '\\' ->
      Buffer.add_char b (escape_char s i);
      unescape s b (i + escape_len s i)
    | c ->
      Buffer.add_char b c;
      unescape s b (i + 1)

  let to_str ({ sp; node } as c) =
    if first_byte c <> '"' then Error "expected a string"
    else
      let s = sp.src and start = entry sp.tape node + 1 in
      let e = plain_end s start in
      if s.[e] = '"' then Ok (String.sub s start (e - start))
      else begin
        let b = Buffer.create (e - start + 16) in
        Buffer.add_substring b s start (e - start);
        unescape s b e;
        Ok (Buffer.contents b)
      end

  let to_bool c =
    match first_byte c with
    | 't' -> Ok true
    | 'f' -> Ok false
    | _ -> Error "expected a boolean"
end

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
