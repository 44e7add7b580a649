let access_to_string = function
  | Graph.Public -> "public"
  | Graph.Protected -> "protected"
  | Graph.Private -> "private"

let access_of_string = function
  | "public" -> Ok Graph.Public
  | "protected" -> Ok Graph.Protected
  | "private" -> Ok Graph.Private
  | s -> Error (Printf.sprintf "unknown access %S" s)

let kind_to_string = function
  | Graph.Data -> "data"
  | Graph.Function -> "function"
  | Graph.Type -> "type"
  | Graph.Enumerator -> "enumerator"

let kind_of_string = function
  | "data" -> Ok Graph.Data
  | "function" -> Ok Graph.Function
  | "type" -> Ok Graph.Type
  | "enumerator" -> Ok Graph.Enumerator
  | s -> Error (Printf.sprintf "unknown member kind %S" s)

let to_json g =
  let base_json (b : Graph.base) =
    Json.Obj
      [ ("class", Json.String (Graph.name g b.b_class));
        ("virtual", Json.Bool (b.b_kind = Graph.Virtual));
        ("access", Json.String (access_to_string b.b_access)) ]
  in
  let member_json (m : Graph.member) =
    Json.Obj
      [ ("name", Json.String m.m_name);
        ("kind", Json.String (kind_to_string m.m_kind));
        ("static", Json.Bool m.m_static);
        ("virtual", Json.Bool m.m_virtual);
        ("access", Json.String (access_to_string m.m_access)) ]
  in
  let class_json c =
    Json.Obj
      [ ("name", Json.String (Graph.name g c));
        ("bases", Json.List (List.map base_json (Graph.bases g c)));
        ("members", Json.List (List.map member_json (Graph.members g c))) ]
  in
  Json.Obj
    [ ("format", Json.String "cxxlookup-chg");
      ("version", Json.Int 1);
      ("classes", Json.List (List.map class_json (Graph.classes g))) ]

(* ---- the tree reader ----------------------------------------------------

   The format's schema over a {!Json.t}: each check in sequence, so the
   first failing one names the error.  The one-pass reader below makes
   the same checks, in this order, with this text. *)

exception Bad of string

let ok = function Ok v -> v | Error msg -> raise (Bad msg)
let field k read j = ok (read (ok (Json.member k j)))

let base_of_json j =
  let cls = field "class" Json.to_str j in
  let virt = field "virtual" Json.to_bool j in
  let access = ok (access_of_string (field "access" Json.to_str j)) in
  (cls, (if virt then Graph.Virtual else Graph.Non_virtual), access)

let member_of_json j =
  let name = field "name" Json.to_str j in
  let kind = ok (kind_of_string (field "kind" Json.to_str j)) in
  let static = field "static" Json.to_bool j in
  let virt = field "virtual" Json.to_bool j in
  let access = ok (access_of_string (field "access" Json.to_str j)) in
  { Graph.m_name = name;
    m_kind = kind;
    m_static = static;
    m_virtual = virt;
    m_access = access }

let class_of_json j =
  let name = field "name" Json.to_str j in
  let bases = List.map base_of_json (field "bases" Json.to_list j) in
  let members = List.map member_of_json (field "members" Json.to_list j) in
  { Graph.d_name = name; d_bases = bases; d_members = members }

let of_json j =
  match
    let fmt = field "format" Json.to_str j in
    if fmt <> "cxxlookup-chg" then
      raise (Bad (Printf.sprintf "unknown format %S" fmt));
    let version = field "version" Json.to_int j in
    if version <> 1 then
      raise (Bad (Printf.sprintf "unsupported version %d" version));
    List.map class_of_json (field "classes" Json.to_list j)
  with
  | decls -> Result.map_error Graph.error_to_string (Graph.of_decls decls)
  | exception Bad msg -> Error msg

(* ---- the one-pass reader -------------------------------------------------

   The same schema, driven by the scanner as it validates the bytes:
   each object's fields go into slots as they come, the first of
   duplicate keys winning and unknown keys only validated, and the
   checks run over the slots, in the tree reader's order, when the
   object closes.  A member, a base, a class and the document each
   have one frame of slots per read (none nests in itself), so a read
   allocates what it returns and the messages of the errors it finds.

   A slot is one int: [absent], [wrong] (a value of another JSON
   kind), [unknown] (a string outside the field's enumeration, its
   text in [texts]), or a value from [first] on: [yes] / [no] for a
   boolean, [first + i] for an enumeration's [i]th name, [first] for a
   string (in [texts]), for the version (in [version]) and for a list
   (in the buffers).  A list slot becomes [failed] at its first failing
   element, with that element's message in [texts]; later elements
   are only validated. *)

let absent = 0
let wrong = 1
let unknown = 2
let failed = 2
let first = 3
let no = 3
let yes = 4

let kinds = [| Graph.Data; Graph.Function; Graph.Type; Graph.Enumerator |]
let accesses = [| Graph.Public; Graph.Protected; Graph.Private |]

(* Growable arrays, reused from one object to the next: a list is
   built from one once, at its end. *)
type 'a buf = { mutable items : 'a array; mutable len : int }

let buf () = { items = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.items then begin
    let items = Array.make (max 8 (2 * b.len)) x in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- x;
  b.len <- b.len + 1

let to_list b =
  let rec go i acc = if i = 0 then acc else go (i - 1) (b.items.(i - 1) :: acc) in
  go b.len []

type kind =
  | Str
  | Bool
  | One  (** the integer 1: the format's version *)
  | Enum of string array * string  (** the names, the message's prefix *)
  | List of (Json.reader -> state -> unit)  (** an element's reader *)

and frame = {
  keys : string array;
  field_kinds : kind array;
  codes : int array;
  texts : string array;
  mutable next : int;  (** the key after the last one read: in the
                           order [Serialize] writes, the next to come *)
}

and state = {
  member : frame;
  base : frame;
  cls : frame;
  doc : frame;
  bases : (string * Graph.edge_kind * Graph.access) buf;
  members : Graph.member buf;
  decls : Graph.decl buf;
  mutable version : int;
}

(* The value of the field whose key was just scanned, into its slot. *)
let field fr r st =
  let i = Json.str_index r fr.keys ~from:fr.next in
  fr.next <- i + 1;
  if i < 0 || fr.codes.(i) <> absent then Json.skip r
  else
    let c = Json.peek r in
    let code =
      match fr.field_kinds.(i) with
      | Str when c = '"' ->
        Json.str r;
        fr.texts.(i) <- Json.shared_str r;
        first
      | Bool when c = 't' || c = 'f' ->
        Json.skip r;
        if c = 't' then yes else no
      | One when c = '-' || (c >= '0' && c <= '9') ->
        st.version <- Json.int r;
        first
      | Enum (names, _) when c = '"' ->
        Json.str r;
        let k = Json.str_index r names ~from:0 in
        if k >= 0 then first + k
        else begin
          fr.texts.(i) <- Json.str_value r;
          unknown
        end
      | List item when c = '[' ->
        fr.codes.(i) <- first;
        Json.read_items r item st;
        fr.codes.(i)
      | _ ->
        Json.skip r;
        wrong
    in
    fr.codes.(i) <- code

(* The first failing check of a closed object, as the tree reader
   words it, or "". *)
let rec check_from fr st i =
  if i = Array.length fr.keys then ""
  else
    let code = fr.codes.(i) in
    let kind = fr.field_kinds.(i) in
    if code = absent then Printf.sprintf "missing field %S" fr.keys.(i)
    else if code = wrong then
      match kind with
      | Str | Enum _ -> "expected a string"
      | Bool -> "expected a boolean"
      | One -> "expected an integer"
      | List _ -> "expected an array"
    else
      match kind with
      | Enum (_, prefix) when code = unknown ->
        Printf.sprintf "%s%S" prefix fr.texts.(i)
      | List _ when code = failed -> fr.texts.(i)
      | One when st.version <> 1 ->
        Printf.sprintf "unsupported version %d" st.version
      | _ -> check_from fr st (i + 1)

let check fr st = check_from fr st 0

(* One element of the list in slot [i] of [parent]: an object read
   into [fr] through [fields] ([field fr]), then [build] of it. *)
let element r st fr fields build parent i =
  if parent.codes.(i) = failed then Json.skip r
  else if Json.peek r <> '{' then begin
    Json.skip r;
    parent.codes.(i) <- failed;
    parent.texts.(i) <-
      Printf.sprintf "expected an object with field %S" fr.keys.(0)
  end
  else begin
    Array.fill fr.codes 0 (Array.length fr.codes) absent;
    fr.next <- 0;
    Json.read_fields r fields st;
    match check fr st with
    | "" -> build st
    | msg ->
      parent.codes.(i) <- failed;
      parent.texts.(i) <- msg
  end

let base_fields r st = field st.base r st
let member_fields r st = field st.member r st
let class_fields r st = field st.cls r st
let doc_fields r st = field st.doc r st

let build_base st =
  let b = st.base in
  push st.bases
    ( b.texts.(0),
      (if b.codes.(1) = yes then Graph.Virtual else Graph.Non_virtual),
      accesses.(b.codes.(2) - first) )

let build_member st =
  let m = st.member in
  push st.members
    { Graph.m_name = m.texts.(0);
      m_kind = kinds.(m.codes.(1) - first);
      m_static = m.codes.(2) = yes;
      m_virtual = m.codes.(3) = yes;
      m_access = accesses.(m.codes.(4) - first) }

let build_class st =
  push st.decls
    { Graph.d_name = st.cls.texts.(0);
      d_bases = to_list st.bases;
      d_members = to_list st.members }

let base_item r st = element r st st.base base_fields build_base st.cls 1
let member_item r st = element r st st.member member_fields build_member st.cls 2

let class_item r st =
  st.bases.len <- 0;
  st.members.len <- 0;
  element r st st.cls class_fields build_class st.doc 2

let access_enum = Enum (Array.map access_to_string accesses, "unknown access ")

let frame keys field_kinds =
  { keys; field_kinds; codes = Array.make (Array.length keys) absent;
    texts = Array.make (Array.length keys) ""; next = 0 }

let read r =
  let st =
    { member =
        frame
          [| "name"; "kind"; "static"; "virtual"; "access" |]
          [| Str; Enum (Array.map kind_to_string kinds, "unknown member kind ");
             Bool; Bool; access_enum |];
      base = frame [| "class"; "virtual"; "access" |] [| Str; Bool; access_enum |];
      cls =
        frame [| "name"; "bases"; "members" |]
          [| Str; List base_item; List member_item |];
      doc =
        frame [| "format"; "version"; "classes" |]
          [| Enum ([| "cxxlookup-chg" |], "unknown format "); One;
             List class_item |];
      bases = buf ();
      members = buf ();
      decls = buf ();
      version = 0 }
  in
  if Json.peek r <> '{' then begin
    Json.skip r;
    Error "expected an object with field \"format\""
  end
  else begin
    Json.read_fields r doc_fields st;
    match check st.doc st with
    | "" -> Result.map_error Graph.error_to_string (Graph.of_decls (to_list st.decls))
    | msg -> Error msg
  end

let to_string ?pretty g = Json.to_string ?pretty (to_json g)

let of_string s = Result.join (Json.read_string read s)
