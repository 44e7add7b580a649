type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Six significant digits, and a float whose six digits are a whole
   number prints as one ([2.77137e+06] as [2771370.0]): the text then
   reads back ({!of_string}) as the float it prints, so printing what
   was read gives the same text again. *)
let float_repr f =
  let whole f = Float.is_integer f && Float.abs f < 1e15 in
  if whole f then Printf.sprintf "%.1f" f
  else
    let g = Printf.sprintf "%.6g" f in
    let r = float_of_string g in
    if whole r then Printf.sprintf "%.1f" r else g

let to_string ?(pretty = false) j =
  let buf = Buffer.create 256 in
  let nl indent =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * indent) ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      Buffer.add_string buf
        (if Float.is_finite f then float_repr f else "null")
    | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 1);
          go (indent + 1) item)
        items;
      nl indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 1);
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf (if pretty then "\": " else "\":");
          go (indent + 1) v)
        fields;
      nl indent;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

let output oc j =
  output_string oc (to_string ~pretty:true j);
  output_char oc '\n'

exception Parse_error of string

(* Covers exactly what [to_string] emits, [\u] escapes aside (telemetry
   files carry none). *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let lit word v =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some 'n' -> Buffer.add_char b '\n'; incr pos
        | Some 't' -> Buffer.add_char b '\t'; incr pos
        | Some 'r' -> Buffer.add_char b '\r'; incr pos
        | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c; incr pos
        | _ -> fail "unsupported escape");
        go ()
      | Some c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numeric c | None -> false) do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None ->
      (match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin incr pos; Obj [] end
      else
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; fields ((k, v) :: acc)
          | Some '}' -> incr pos; List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin incr pos; List [] end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; items (v :: acc)
          | Some ']' -> incr pos; List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
    | Some '"' -> String (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('0' .. '9' | '-') -> number ()
    | Some _ -> fail "unexpected character"
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v
