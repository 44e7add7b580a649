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

(* A byte scanner over [s]: characters are read in place and a string
   without escapes is one [String.sub], so a parse allocates little
   beyond its result.  Failure text and offsets are part of the wire
   contract (parse errors are echoed to clients).

   [skip] names top-level object fields whose values are scanned by the
   same grammar — same errors, same offsets — but not built: a skipped
   value comes back hollow, of its own kind ([String ""], [List []],
   [Obj []]; scalars as parsed), so type checks on it still hold. *)
let of_string ?(skip = []) s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse (msg, !pos)) in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  (* [pos < n] and the byte there is [c] *)
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let expect c =
    if !pos >= n then
      error (Printf.sprintf "expected '%c', found end of input" c);
    let d = String.unsafe_get s !pos in
    if d <> c then error (Printf.sprintf "expected '%c', found '%c'" c d);
    incr pos
  in
  let literal word value =
    let l = String.length word in
    let rec same i =
      i = l || (String.unsafe_get s (!pos + i) = word.[i] && same (i + 1))
    in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "invalid literal (expected %s)" word)
  in
  (* The rest of a string whose first escape is at [!pos]; [start] is
     where its contents begin. *)
  let parse_escaped ~keep start =
    let buf = Buffer.create (if keep then !pos - start + 16 else 1) in
    if keep then Buffer.add_substring buf s start (!pos - start);
    let rec loop () =
      if !pos >= n then error "unterminated string";
      match String.unsafe_get s !pos with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then error "unterminated escape";
        let plain c =
          if keep then Buffer.add_char buf c;
          incr pos;
          loop ()
        in
        (match String.unsafe_get s !pos with
        | '"' -> plain '"'
        | '\\' -> plain '\\'
        | '/' -> plain '/'
        | 'n' -> plain '\n'
        | 't' -> plain '\t'
        | 'r' -> plain '\r'
        | 'b' -> plain '\b'
        | 'u' ->
          incr pos;
          if !pos + 4 > n then error "truncated \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some code when code < 128 ->
            if keep then Buffer.add_char buf (Char.chr code);
            pos := !pos + 4;
            loop ()
          | Some _ -> error "non-ASCII \\u escapes are not supported"
          | None -> error "malformed \\u escape")
        | c -> error (Printf.sprintf "invalid escape '\\%c'" c))
      | c ->
        if keep then Buffer.add_char buf c;
        incr pos;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_string ~keep =
    expect '"';
    let start = !pos in
    let rec scan i =
      if i >= n then begin
        pos := n;
        error "unterminated string"
      end;
      match String.unsafe_get s i with
      | '"' ->
        pos := i + 1;
        if keep then String.sub s start (i - start) else ""
      | '\\' ->
        pos := i;
        parse_escaped ~keep start
      | _ -> scan (i + 1)
    in
    scan start
  in
  let parse_int () =
    let start = !pos in
    if at '-' then incr pos;
    let rec digits () =
      if !pos < n then
        match String.unsafe_get s !pos with
        | '0' .. '9' ->
          incr pos;
          digits ()
        | '.' | 'e' | 'E' -> error "floats are not supported"
        | _ -> ()
    in
    digits ();
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> error "malformed number"
  in
  (* [keep]: build the value (false inside a skipped field); [top]:
     this is the document's outermost value, whose fields [skip] names *)
  let rec parse_value ~keep ~top =
    skip_ws ();
    if !pos >= n then error "unexpected end of input";
    match String.unsafe_get s !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ~keep)
    | '-' | '0' .. '9' -> Int (parse_int ())
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [] in
        let item () =
          let v = parse_value ~keep ~top:false in
          if keep then items := v :: !items
        in
        item ();
        let rec loop () =
          skip_ws ();
          if at ',' then begin
            incr pos;
            item ();
            loop ()
          end
          else if at ']' then incr pos
          else error "expected ',' or ']'"
        in
        loop ();
        List (List.rev !items)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let field () =
          skip_ws ();
          let k = parse_string ~keep in
          skip_ws ();
          expect ':';
          let v =
            parse_value ~keep:(keep && not (top && List.mem k skip)) ~top:false
          in
          if keep then fields := (k, v) :: !fields
        in
        field ();
        let rec loop () =
          skip_ws ();
          if at ',' then begin
            incr pos;
            field ();
            loop ()
          end
          else if at '}' then incr pos
          else error "expected ',' or '}'"
        in
        loop ();
        Obj (List.rev !fields)
      end
    | c -> error (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value ~keep:true ~top:true in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (msg, at) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

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
