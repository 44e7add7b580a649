module J = Chg.Json
module G = Chg.Graph
module Engine = Lookup_core.Engine
module Abstraction = Lookup_core.Abstraction

let version = "cxxlookup-rpc/1"

type error_code =
  | Parse_error
  | Bad_request
  | Bad_version
  | Unknown_op
  | Unknown_session
  | Duplicate_session
  | Unknown_class
  | Bad_hierarchy
  | Store_error
  | Overloaded
  | Not_leader
  | Backend_unavailable
  | Internal

let code_string = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Bad_version -> "bad_version"
  | Unknown_op -> "unknown_op"
  | Unknown_session -> "unknown_session"
  | Duplicate_session -> "duplicate_session"
  | Unknown_class -> "unknown_class"
  | Bad_hierarchy -> "bad_hierarchy"
  | Store_error -> "store_error"
  | Overloaded -> "overloaded"
  | Not_leader -> "not_leader"
  | Backend_unavailable -> "backend_unavailable"
  | Internal -> "internal"

(* Stable u8 codes for the binary framing (cxxlookup-rpc/1b); the JSON
   strings above stay canonical.  Never renumber. *)
let code_byte = function
  | Parse_error -> 1
  | Bad_request -> 2
  | Bad_version -> 3
  | Unknown_op -> 4
  | Unknown_session -> 5
  | Duplicate_session -> 6
  | Unknown_class -> 7
  | Bad_hierarchy -> 8
  | Store_error -> 9
  | Overloaded -> 10
  | Not_leader -> 11
  | Backend_unavailable -> 12
  | Internal -> 13

let code_of_byte = function
  | 1 -> Some Parse_error
  | 2 -> Some Bad_request
  | 3 -> Some Bad_version
  | 4 -> Some Unknown_op
  | 5 -> Some Unknown_session
  | 6 -> Some Duplicate_session
  | 7 -> Some Unknown_class
  | 8 -> Some Bad_hierarchy
  | 9 -> Some Store_error
  | 10 -> Some Overloaded
  | 11 -> Some Not_leader
  | 12 -> Some Backend_unavailable
  | 13 -> Some Internal
  | _ -> None

type query = { q_class : string; q_member : string }

type hierarchy =
  | Chg_json of (G.t, string) result  (** inline cxxlookup-chg document, read *)
  | Source of string  (** C++-subset translation unit text *)

type mutation =
  | Add_class of {
      mc_name : string;
      mc_bases : (string * G.edge_kind * G.access) list;
      mc_members : G.member list;
    }
  | Add_member of { mm_class : string; mm_member : G.member }

type op =
  | Open of { o_session : string option; o_hierarchy : hierarchy }
  | Lookup of { lk_query : query; lk_semantics : Mro.semantics }
  | Batch_lookup of { bl_queries : query list; bl_semantics : Mro.semantics }
  | Mutate of mutation
  | Lint of { l_rules : string list option; l_semantics : Mro.semantics }
  | Symbols
  | Snapshot
  | Restore
  | Stats
  | Metrics
  | Close

type request = { rq_id : J.t; rq_session : string option; rq_op : op }

(* The networked server's reader/writer split: read-only verbs execute
   concurrently across the workers against shared immutable packed
   columns; everything else serializes through the single writer path
   that owns the session table and the WAL. *)
let op_string = function
  | Open _ -> "open"
  | Lookup _ -> "lookup"
  | Batch_lookup _ -> "batch_lookup"
  | Mutate _ -> "mutate"
  | Lint _ -> "lint"
  | Symbols -> "symbols"
  | Snapshot -> "snapshot"
  | Restore -> "restore"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Close -> "close"

let read_only = function
  | Lookup _ | Batch_lookup _ | Lint _ | Symbols | Stats | Metrics -> true
  | Open _ | Mutate _ | Snapshot | Restore | Close -> false

(* ---- request parsing (lenient field access with defaults) ---------- *)

let ( let* ) = Result.bind

let field name = function J.Obj fields -> List.assoc_opt name fields | _ -> None

let str_field name j =
  match field name j with
  | None -> Ok None
  | Some v ->
    (match J.to_str v with
    | Ok s -> Ok (Some s)
    | Error _ ->
      Error (Printf.sprintf "field %S must be a string" name))

let req_str name j =
  match field name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v ->
    (match J.to_str v with
    | Ok s -> Ok s
    | Error _ -> Error (Printf.sprintf "field %S must be a string" name))

let bool_field name ~default j =
  match field name j with
  | None -> Ok default
  | Some v ->
    (match J.to_bool v with
    | Ok b -> Ok b
    | Error _ -> Error (Printf.sprintf "field %S must be a boolean" name))

let access_of_string = function
  | "public" -> Ok G.Public
  | "protected" -> Ok G.Protected
  | "private" -> Ok G.Private
  | s -> Error (Printf.sprintf "unknown access %S" s)

let kind_of_string = function
  | "data" -> Ok G.Data
  | "function" -> Ok G.Function
  | "type" -> Ok G.Type
  | "enumerator" -> Ok G.Enumerator
  | s -> Error (Printf.sprintf "unknown member kind %S" s)

(* Members and bases use the cxxlookup-chg field shapes, with every field
   except the name optional: {"name":"m"} is a plain public data member. *)
let member_of_json j =
  let* name = req_str "name" j in
  let* kind_s = str_field "kind" j in
  let* kind =
    match kind_s with None -> Ok G.Data | Some s -> kind_of_string s
  in
  let* static = bool_field "static" ~default:false j in
  let* virtual_ = bool_field "virtual" ~default:false j in
  let* access_s = str_field "access" j in
  let* access =
    match access_s with None -> Ok G.Public | Some s -> access_of_string s
  in
  Ok
    { G.m_name = name; m_kind = kind; m_static = static;
      m_virtual = virtual_; m_access = access }

let base_of_json j =
  let* cls = req_str "class" j in
  let* virtual_ = bool_field "virtual" ~default:false j in
  let* access_s = str_field "access" j in
  let* access =
    match access_s with None -> Ok G.Public | Some s -> access_of_string s
  in
  Ok (cls, (if virtual_ then G.Virtual else G.Non_virtual), access)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let list_field name j =
  match field name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v ->
    (match J.to_list v with
    | Ok l -> Ok l
    | Error _ -> Error (Printf.sprintf "field %S must be an array" name))

let opt_list_field name j =
  match field name j with
  | None -> Ok []
  | Some v ->
    (match J.to_list v with
    | Ok l -> Ok l
    | Error _ -> Error (Printf.sprintf "field %S must be an array" name))

let query_of_json j =
  let* q_class = req_str "class" j in
  let* q_member = req_str "member" j in
  Ok { q_class; q_member }

(* The optional "semantics" field on lookup / batch_lookup / lint.
   Absent means C++ dominance — existing clients are untouched — and an
   unknown value is a [bad_request], never a silent fallback. *)
let semantics_field j =
  match str_field "semantics" j with
  | Error m -> Error m
  | Ok None -> Ok Mro.Cpp
  | Ok (Some s) ->
    (match Mro.semantics_of_string s with
    | Some v -> Ok v
    | None ->
      Error
        (Printf.sprintf
           "unknown semantics %S (valid: cpp, c3, py22, dylan)" s))

let mutation_of_json j =
  match (field "add_class" j, field "add_member" j) with
  | Some spec, None ->
    let* name = req_str "name" spec in
    let* bases_j = opt_list_field "bases" spec in
    let* bases = map_result base_of_json bases_j in
    let* members_j = opt_list_field "members" spec in
    let* members = map_result member_of_json members_j in
    Ok (Add_class { mc_name = name; mc_bases = bases; mc_members = members })
  | None, Some spec ->
    let* cls = req_str "class" spec in
    let* member_j =
      match field "member" spec with
      | Some m -> Ok m
      | None -> Error "missing field \"member\""
    in
    let* m = member_of_json member_j in
    Ok (Add_member { mm_class = cls; mm_member = m })
  | Some _, Some _ ->
    Error "mutate takes exactly one of \"add_class\" / \"add_member\""
  | None, None ->
    Error "mutate requires an \"add_class\" or \"add_member\" field"

let op_of_json ~chg op j =
  let ( let* ) r k =
    match r with Error m -> Error (Bad_request, m) | Ok v -> k v
  in
  match op with
  | "open" ->
    let* session = str_field "session" j in
    (match (field "chg" j, field "source" j) with
    | Some _, None ->
      Ok (Open { o_session = session; o_hierarchy = Chg_json chg })
    | None, Some src ->
      let* s =
        match J.to_str src with
        | Ok s -> Ok s
        | Error _ -> Error "field \"source\" must be a string"
      in
      Ok (Open { o_session = session; o_hierarchy = Source s })
    | Some _, Some _ ->
      Error (Bad_request, "open takes exactly one of \"chg\" / \"source\"")
    | None, None ->
      Error (Bad_request, "open requires a \"chg\" or \"source\" hierarchy"))
  | "lookup" ->
    let* q = query_of_json j in
    let* sem = semantics_field j in
    Ok (Lookup { lk_query = q; lk_semantics = sem })
  | "batch_lookup" ->
    let* qs_j = list_field "queries" j in
    let* qs = map_result query_of_json qs_j in
    let* sem = semantics_field j in
    Ok (Batch_lookup { bl_queries = qs; bl_semantics = sem })
  | "mutate" ->
    let* m = mutation_of_json j in
    Ok (Mutate m)
  | "lint" ->
    let* sem = semantics_field j in
    (match field "rules" j with
    | None -> Ok (Lint { l_rules = None; l_semantics = sem })
    | Some v ->
      let* l =
        match J.to_list v with
        | Ok l -> Ok l
        | Error _ -> Error "field \"rules\" must be an array"
      in
      let* rules =
        map_result
          (fun r ->
            match J.to_str r with
            | Ok s -> Ok s
            | Error _ -> Error "field \"rules\" must be an array of strings")
          l
      in
      Ok (Lint { l_rules = Some rules; l_semantics = sem }))
  | "symbols" -> Ok Symbols
  | "snapshot" -> Ok Snapshot
  | "restore" -> Ok Restore
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "close" -> Ok Close
  | other -> Error (Unknown_op, Printf.sprintf "unknown op %S" other)

(* [chg] is the reading of the first [chg] field, if there is one. *)
let request_of ~chg j =
  let id = match field "id" j with Some v -> v | None -> J.Null in
  let fail code msg = Error (id, code, msg) in
  match field "rpc" j with
  | Some v
    when (match J.to_str v with Ok s -> s <> version | Error _ -> true) ->
    fail Bad_version
      (Printf.sprintf "this server speaks %s" version)
  | _ ->
    (match field "op" j with
    | None -> fail Bad_request "missing field \"op\""
    | Some op_j ->
      (match J.to_str op_j with
      | Error _ -> fail Bad_request "field \"op\" must be a string"
      | Ok op ->
        (match str_field "session" j with
        | Error msg -> fail Bad_request msg
        | Ok session ->
          (match op_of_json ~chg op j with
          | Error (code, msg) -> fail code msg
          | Ok o -> Ok { rq_id = id; rq_session = session; rq_op = o }))))

(* The [chg] of a request with none, and of every routing decode's
   [open]: the router never reads an [open]'s hierarchy. *)
let hollow_chg = Ok G.empty

(* An [open]'s [chg] is never built as a tree: the scanner hands it to
   the cxxlookup-chg reader as it validates the line, so the line is
   read once.  The routing decode skips [source] and a batch's
   [queries] too and reads nothing: together these fields are all but
   a few bytes of a large request. *)
let parse_request ?(shallow = false) ?pos ?len line =
  let scanned =
    if shallow then
      match
        J.of_string ~skip:[ "chg"; "source"; "queries" ] ?pos ?len line
      with
      | Ok j -> Ok (j, None)
      | Error msg -> Error msg
    else J.of_string_reading ~read:"chg" ?pos ?len Chg.Serialize.read line
  in
  match scanned with
  | Error msg -> Error (J.Null, Parse_error, msg)
  | Ok (j, Some chg) -> request_of ~chg j
  | Ok (j, None) -> request_of ~chg:hollow_chg j

(* ---- responses ----------------------------------------------------- *)

let ok_response ~id fields =
  J.Obj (("id", id) :: ("ok", J.Bool true) :: fields)

let error_response ~id code msg =
  J.Obj
    [ ("id", id); ("ok", J.Bool false);
      ( "error",
        J.Obj
          [ ("code", J.String (code_string code));
            ("message", J.String msg) ] ) ]

(* Every error response holds this text verbatim, and an ok response
   only where a client's own id echoes it: a line without it is not an
   error and need not be parsed to know that. *)
let error_marker = {|"ok":false|}

let may_be_error line =
  let n = String.length line and k = String.length error_marker in
  let rec at i j = j = k || (line.[i + j] = error_marker.[j] && at i (j + 1)) in
  let rec from i = i + k <= n && (at i 0 || from (i + 1)) in
  from 0

let verdict_fields g v =
  match v with
  | None -> [ ("verdict", J.String "none") ]
  | Some (Engine.Red r as v) ->
    [ ("verdict", J.String "red");
      ("resolves_to", J.String (G.name g r.Abstraction.r_ldc));
      ("detail", J.String (Engine.verdict_string g v)) ]
  | Some (Engine.Blue _ as v) ->
    [ ("verdict", J.String "blue");
      ("detail", J.String (Engine.verdict_string g v)) ]
