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

let base_json cls (b : Graph.base) =
  Json.Obj
    [ ("class", Json.String cls);
      ("virtual", Json.Bool (b.b_kind = Graph.Virtual));
      ("access", Json.String (access_to_string b.b_access)) ]

let member_json (m : Graph.member) =
  Json.Obj
    [ ("name", Json.String m.m_name);
      ("kind", Json.String (kind_to_string m.m_kind));
      ("static", Json.Bool m.m_static);
      ("virtual", Json.Bool m.m_virtual);
      ("access", Json.String (access_to_string m.m_access)) ]

let class_json name bases members =
  Json.Obj
    [ ("name", Json.String name); ("bases", Json.List bases);
      ("members", Json.List members) ]

let to_json g =
  let class_json c =
    class_json (Graph.name g c)
      (List.map (fun (b : Graph.base) -> base_json (Graph.name g b.b_class) b)
         (Graph.bases g c))
      (List.map member_json (Graph.members g c))
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
   have one frame of slots per read (none nests in itself).

   Members and bases, and the head of a class, are first matched in
   the layout {!to_string} prints them in: a member is then its head,
   its name (one lookup) and, most often, one compare of its tail, and
   the reader jumps past it.  Anything else — other key order, whitespace, escapes, unknown
   or duplicate keys, any error — is read field by field from where
   the match started, so what the match accepts is what the field
   reader would read, and every error is the field reader's.

   Names are numbered in a {!Symtab} as they are read, straight from
   the document's bytes: every name is one string, and per name the
   reader keeps the class of that name (for the bases that follow) and
   the last member record made with it, which a member of the same
   name and flags shares.  Classes are appended to the graph as they
   close ({!Graph.add_ordered}); the first one that cannot be — a
   forward reference, or any graph error — sends the classes read so
   far and the rest to {!Graph.of_decls_sorted}, as {!Graph.of_decls}
   would.

   A slot is one int: [absent], [wrong] (a value of another JSON
   kind), [unknown] (a string outside the field's enumeration, its
   text in [texts]), or a value from [first] on: [yes] / [no] for a
   boolean, [first + i] for an enumeration's [i]th name or a string
   that is the [i]th name read, [first] for the version (in
   [version]) and for a list (in the buffers).  A list slot becomes
   [failed] at its first failing element, with that element's message
   in [texts]; later elements are only validated. *)

let absent = 0
let wrong = 1
let unknown = 2
let failed = 2
let first = 3
let no = 3
let yes = 4

let kinds = [| Graph.Data; Graph.Function; Graph.Type; Graph.Enumerator |]
let accesses = [| Graph.Public; Graph.Protected; Graph.Private |]

(* Growable arrays, reused from one object to the next. *)
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
  names : Symtab.t;  (** every name read *)
  mutable class_of : int array;  (** per name: its class's id, or -1 *)
  mutable flags_of : int array;  (** per name: [record_of]'s flags, or -1 *)
  mutable record_of : Graph.member array;
      (** per name: the last member record made with it *)
  bases : int buf;  (** the class's bases: name * 6 + flags *)
  members : Graph.member buf;
  build : Graph.ordered;
  mutable classes : int;  (** appended to [build] *)
  mutable sorting : bool;  (** an append failed: classes go to [decls] *)
  decls : Graph.decl buf;
  mutable version : int;
  mutable match_at : int;  (** the name of the last layout match ... *)
  mutable match_end : int;  (** ... and its end *)
  last_member : int ref;  (** the flags of the last member matched ... *)
  last_base : int ref;  (** ... and of the last base *)
}

(* a base's flags: virtual, then access *)
let base_flags virt acc = (virt * 3) + acc

(* a member's flags: kind, static, virtual, then access *)
let member_flags kind stat virt acc = (((((kind * 2) + stat) * 2) + virt) * 3) + acc

let no_member = Graph.member ""

(* The number of the name [s.[i .. j - 1]], its per-name slots made. *)
let name_at st s i j =
  let k = Symtab.intern st.names s i j in
  if k = Array.length st.class_of then begin
    let n = max 64 (2 * k) in
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 k;
      b
    in
    st.class_of <- grow st.class_of (-1);
    st.flags_of <- grow st.flags_of (-1);
    st.record_of <- grow st.record_of no_member
  end;
  k

(* the number of the last string scanned *)
let name r st =
  if Json.str_escaped r then
    let d = Json.str_value r in
    name_at st d 0 (String.length d)
  else name_at st (Json.text r) (Json.str_start r) (Json.str_stop r)

let member_of_flags name flags =
  { Graph.m_name = name;
    m_kind = kinds.(flags / 12);
    m_static = (flags / 6) land 1 = 1;
    m_virtual = (flags / 3) land 1 = 1;
    m_access = accesses.(flags mod 3) }

let base_of_flags c flags =
  { Graph.b_class = c;
    b_kind = (if (flags / 3) land 1 = 1 then Graph.Virtual else Graph.Non_virtual);
    b_access = accesses.(flags mod 3) }

(* The member named [k] with [flags]: the record last made for the
   name when the flags are the same. *)
let member_of st k flags =
  if st.flags_of.(k) = flags then st.record_of.(k)
  else begin
    let m = member_of_flags (Symtab.name st.names k) flags in
    st.flags_of.(k) <- flags;
    st.record_of.(k) <- m;
    m
  end

(* The value of field [i], whose key was just scanned, into its slot. *)
let field_value fr i r st =
  let c = Json.peek r in
  let code =
    match fr.field_kinds.(i) with
    | Str when c = '"' ->
      Json.str r;
      first + name r st
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

let field fr r st =
  let i = Json.str_index r fr.keys ~from:fr.next in
  fr.next <- i + 1;
  if i < 0 || fr.codes.(i) <> absent then Json.skip r else field_value fr i r st

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

let start fr =
  Array.fill fr.codes 0 (Array.length fr.codes) absent;
  fr.next <- 0

(* [fr], read, checked: [build] of it, or the failure of slot [i] of
   [parent] *)
let close st fr build parent i =
  match check fr st with
  | "" -> build st
  | msg ->
    parent.codes.(i) <- failed;
    parent.texts.(i) <- msg

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
    start fr;
    Json.read_fields r fields st;
    close st fr build parent i
  end

let base_fields r st = field st.base r st
let member_fields r st = field st.member r st
let class_fields r st = field st.cls r st
let doc_fields r st = field st.doc r st

let build_base st =
  let b = st.base in
  push st.bases
    (((b.codes.(0) - first) * 6) + base_flags (b.codes.(1) - no) (b.codes.(2) - first))

let build_member st =
  let m = st.member in
  push st.members
    (member_of st (m.codes.(0) - first)
       (member_flags (m.codes.(1) - first) (m.codes.(2) - no) (m.codes.(3) - no)
          (m.codes.(4) - first)))

(* the class being closed, named [k], as a declaration *)
let decl st k =
  { Graph.d_name = Symtab.name st.names k;
    d_bases =
      List.init st.bases.len (fun i ->
          let x = st.bases.items.(i) in
          let b = base_of_flags 0 x in
          (Symtab.name st.names (x / 6), b.b_kind, b.b_access));
    d_members = to_list st.members }

(* The build so far, as declarations: from here on every class is one. *)
let start_sorting st =
  st.sorting <- true;
  let g = Graph.of_ordered st.build in
  Graph.iter_classes g (fun c ->
      push st.decls
        { Graph.d_name = Graph.name g c;
          d_bases =
            List.map
              (fun (b : Graph.base) -> (Graph.name g b.b_class, b.b_kind, b.b_access))
              (Graph.bases g c);
          d_members = Graph.members g c })

let no_base = base_of_flags (-1) 0

(* The class's bases, resolved; [None] when one is not a class yet *)
let resolved st =
  let n = st.bases.len in
  let bases = if n = 0 then [||] else Array.make n no_base in
  let rec go i =
    if i = n then Some bases
    else
      let x = st.bases.items.(i) in
      let c = st.class_of.(x / 6) in
      if c < 0 then None
      else begin
        bases.(i) <- base_of_flags c x;
        go (i + 1)
      end
  in
  go 0

let build_class st =
  let k = st.cls.codes.(0) - first in
  if not st.sorting then begin
    match resolved st with
    | None -> start_sorting st
    | Some bases ->
      let members =
        if st.members.len = 0 then [||] else Array.sub st.members.items 0 st.members.len
      in
      match Graph.add_ordered st.build (Symtab.name st.names k) ~bases ~members with
      | () ->
        st.class_of.(k) <- st.classes;
        st.classes <- st.classes + 1
      | exception Graph.Error _ -> start_sorting st
  end;
  if st.sorting then push st.decls (decl st k)

(* ---- the layouts [to_string] prints ----

   Taken from the writer: an object whose name is "", printed, and cut
   at that name into its head and its tail from the name's closing
   quote on — one tail per flags value. *)

let cut j =
  let s = Json.to_string j in
  let rec empty i = if s.[i] = '"' && s.[i + 1] = '"' then i + 1 else empty (i + 1) in
  let i = empty 0 in
  (String.sub s 0 i, String.sub s i (String.length s - i))

let member_head = fst (cut (member_json (member_of_flags "" 0)))
let member_tails = Array.init 48 (fun f -> snd (cut (member_json (member_of_flags "" f))))
let base_head = fst (cut (base_json "" (base_of_flags 0 0)))
let base_tails = Array.init 6 (fun f -> snd (cut (base_json "" (base_of_flags 0 f))))

(* a class's head, and what follows its name up to its bases *)
let class_head, class_bases =
  let head, tail = cut (class_json "" [] []) in
  (head, String.sub tail 0 (String.index tail '['))

(* [head] then a name at the reader: the name's closing quote, the
   name in [match_at] and [match_end]; or -1 *)
let named r st head =
  let p = Json.pos r in
  let e = if Json.lit r p head then Json.quote_from r (p + String.length head) else -1 in
  st.match_at <- p + String.length head;
  st.match_end <- e;
  e

(* the index of the first of [tails] from the [k]th at [e], or -1 *)
let rec tail_from r e tails k =
  if k = Array.length tails then -1
  else if Json.lit r e tails.(k) then k
  else tail_from r e tails (k + 1)

(* A member or base in its printed layout at the reader, after [head]:
   past it, its flags in [last]; or -1.  Most objects have the flags
   of the one before, so that tail is tried first. *)
let layout r st head tails last =
  let e = named r st head in
  let f =
    if e < 0 then -1 else if Json.lit r e tails.(!last) then !last else tail_from r e tails 0
  in
  if f < 0 then -1
  else begin
    last := f;
    e + String.length tails.(f)
  end

let member_layout r st = layout r st member_head member_tails st.last_member
let base_layout r st = layout r st base_head base_tails st.last_base

(* [layout] at the reader, when the list in slot [i] of [parent] has
   not failed: past it, or -1 *)
let matched r st layout parent i =
  if parent.codes.(i) = failed || Json.peek r <> '{' then -1 else layout r st

let base_item r st =
  match matched r st base_layout st.cls 1 with
  | -1 -> element r st st.base base_fields build_base st.cls 1
  | q ->
    Json.jump r q;
    push st.bases
      ((name_at st (Json.text r) st.match_at st.match_end * 6) + !(st.last_base))

let member_item r st =
  match matched r st member_layout st.cls 2 with
  | -1 -> element r st st.member member_fields build_member st.cls 2
  | q ->
    Json.jump r q;
    push st.members
      (member_of st (name_at st (Json.text r) st.match_at st.match_end)
         !(st.last_member))

(* A class whose name comes first and its bases second, as [to_string]
   prints them, has those two keys matched; the rest of it is read
   field by field. *)
let class_item r st =
  st.bases.len <- 0;
  st.members.len <- 0;
  let q =
    if st.doc.codes.(2) = failed || Json.peek r <> '{' then -1
    else
      let e = named r st class_head in
      if e >= 0 && Json.lit r e class_bases then e + String.length class_bases else -1
  in
  if q < 0 then element r st st.cls class_fields build_class st.doc 2
  else begin
    let fr = st.cls in
    start fr;
    fr.codes.(0) <- first + name_at st (Json.text r) st.match_at st.match_end;
    fr.next <- 2;
    Json.jump r q;
    field_value fr 1 r st;
    Json.fields_after r class_fields st;
    close st fr build_class st.doc 2
  end

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
      names = Symtab.create 256;
      class_of = [||];
      flags_of = [||];
      record_of = [||];
      bases = buf ();
      members = buf ();
      build = Graph.ordered 64;
      classes = 0;
      sorting = false;
      decls = buf ();
      version = 0;
      match_at = 0;
      match_end = 0;
      last_member = ref 0;
      last_base = ref 0 }
  in
  if Json.peek r <> '{' then begin
    Json.skip r;
    Error "expected an object with field \"format\""
  end
  else begin
    Json.read_fields r doc_fields st;
    match check st.doc st with
    | "" when st.sorting ->
      Result.map_error Graph.error_to_string
        (Graph.of_decls_sorted (to_list st.decls))
    | "" -> Ok (Graph.of_ordered st.build)
    | msg -> Error msg
  end

let to_string ?pretty g = Json.to_string ?pretty (to_json g)

let of_string s = Result.join (Json.read_string read s)
