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

(* The reading side of the format, written once over what a reader
   needs of a value.  It runs over the tree ({!Json}) and over a span
   read in place ({!Json.Cursor}); the same schema gives both the same
   checks, in the same order, with the same text. *)
module type VALUE = sig
  type t

  val member : string -> t -> (t, string) result
  val to_str : t -> (string, string) result
  val to_bool : t -> (bool, string) result
  val to_int : t -> (int, string) result
  val to_list : t -> (t list, string) result
end

module Schema (V : VALUE) = struct
  (* A check's message, raised to [of_json]: reads run in sequence, so
     the first failing check names the error. *)
  exception Bad of string

  let ok = function Ok v -> v | Error msg -> raise (Bad msg)
  let field k read j = ok (read (ok (V.member k j)))

  let base_of_json j =
    let cls = field "class" V.to_str j in
    let virt = field "virtual" V.to_bool j in
    let access = ok (access_of_string (field "access" V.to_str j)) in
    (cls, (if virt then Graph.Virtual else Graph.Non_virtual), access)

  let member_of_json j =
    let name = field "name" V.to_str j in
    let kind = ok (kind_of_string (field "kind" V.to_str j)) in
    let static = field "static" V.to_bool j in
    let virt = field "virtual" V.to_bool j in
    let access = ok (access_of_string (field "access" V.to_str j)) in
    { Graph.m_name = name;
      m_kind = kind;
      m_static = static;
      m_virtual = virt;
      m_access = access }

  let class_of_json j =
    let name = field "name" V.to_str j in
    let bases = List.map base_of_json (field "bases" V.to_list j) in
    let members = List.map member_of_json (field "members" V.to_list j) in
    { Graph.d_name = name; d_bases = bases; d_members = members }

  let of_json j =
    match
      let fmt = field "format" V.to_str j in
      if fmt <> "cxxlookup-chg" then
        raise (Bad (Printf.sprintf "unknown format %S" fmt));
      let version = field "version" V.to_int j in
      if version <> 1 then
        raise (Bad (Printf.sprintf "unsupported version %d" version));
      List.map class_of_json (field "classes" V.to_list j)
    with
    | decls -> Result.map_error Graph.error_to_string (Graph.of_decls decls)
    | exception Bad msg -> Error msg
end

module Tree = Schema (Json)
module In_place = Schema (Json.Cursor)

let of_json = Tree.of_json
let of_span sp = In_place.of_json (Json.Cursor.root sp)

let to_string ?pretty g = Json.to_string ?pretty (to_json g)

let of_string s = Result.bind (Json.span_of_string s) of_span
