(** The [cxxlookup-rpc/1] wire protocol: JSON-lines requests and
    responses for the resident lookup service.

    One request object per line, one response object per line, in order.
    Every request may carry an ["id"] (any JSON value, echoed verbatim in
    the response), an optional ["rpc"] version tag (rejected with
    [bad_version] when it names another protocol), and an ["op"]
    selecting the verb:

    - [open] — create a session from an inline hierarchy: either
      ["chg"] (a cxxlookup-chg v1 document) or ["source"] (C++-subset
      text).  Optional ["session"] names the session; otherwise the
      server assigns [s0], [s1], ...
    - [lookup] — ["session"], ["class"], ["member"], optional
      ["semantics"] ([cpp]|[c3]|[py22]|[dylan], default [cpp]): resolve
      under C++ dominance or a linearized (MRO) semantics.  An unknown
      value is a [bad_request].
    - [batch_lookup] — ["session"] and ["queries"]: an array of
      [{"class":..., "member":...}] objects, answered in one response
      with per-query results and a resolved/ambiguous/not-found summary.
      Optional ["semantics"] applies to every query of the batch.
    - [mutate] — ["session"] plus exactly one of ["add_class"]
      ([{"name":..., "bases":[...], "members":[...]}], cxxlookup-chg
      field shapes with optional defaults) or ["add_member"]
      ([{"class":..., "member":{...}}]).
    - [lint] — ["session"], optional ["rules"] (array of rule-id
      strings; default the classic six) and ["semantics"]: run the
      hierarchy linter over the session-resident hierarchy and answer
      the findings as structured diagnostics plus severity and per-rule
      counts.
    - [snapshot] — ["session"]: persist the session's durable state
      (snapshot file + WAL reset) now.  Requires the server to run over
      a store ([cxxlookup serve --store DIR]); [store_error] otherwise.
    - [restore] — ["session"]: reopen a session from the store (newest
      valid snapshot + WAL-tail replay).  The name must not be open.
    - [symbols] — ["session"]: the session's intern tables — class
      names in class-id order and member names in member-id order, plus
      the epoch they describe.  Ids are dense, assigned append-only
      within a server lifetime (mutations extend, never renumber), and
      are what the binary framing ([cxxlookup-rpc/1b], see
      {!Frame}) carries instead of names.
    - [stats] — service-level counters, or one session's with
      ["session"].
    - [metrics] — the full Prometheus text-format 0.0.4 exposition of
      the server's metric registry, answered as
      [{"format":"text/plain; version=0.0.4", "body":...}].
    - [close] — ["session"].  Durable state, if any, survives the close
      and can be reopened with [restore].

    Responses are [{"id":..., "ok":true, ...}] or [{"id":..., "ok":false,
    "error":{"code":..., "message":...}}] with a stable error-code
    vocabulary (see {!error_code}). *)

val version : string

type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Bad_request  (** missing or ill-typed field *)
  | Bad_version  (** ["rpc"] names a protocol this server does not speak *)
  | Unknown_op
  | Unknown_session
  | Duplicate_session
  | Unknown_class
  | Bad_hierarchy  (** open/mutate input is structurally invalid *)
  | Store_error
      (** no store is configured, nothing is stored under that session
          name, or the stored state is unreadable *)
  | Overloaded
      (** the networked server shed this request: the global admission
          queue was full (or the connection limit was hit); retry later *)
  | Not_leader
      (** this node is a read-only replica: mutating verbs must go to
          the leader (the router forwards them there automatically) *)
  | Backend_unavailable
      (** the router could not reach any backend able to serve this
          request, after retries and failover *)
  | Internal

val code_string : error_code -> string

(** Stable u8 encodings of {!error_code} for the binary framing
    ([cxxlookup-rpc/1b]); never renumbered.  [code_of_byte] is [None]
    for unassigned bytes. *)
val code_byte : error_code -> int

val code_of_byte : int -> error_code option

type query = { q_class : string; q_member : string }

type hierarchy =
  | Chg_json of (Chg.Graph.t, string) result
      (** inline cxxlookup-chg document, read as the JSON scanner
          validated it ({!Chg.Serialize.read}): the graph, or the
          error an [open] answers with [bad_hierarchy] *)
  | Source of string  (** C++-subset translation unit text *)

type mutation =
  | Add_class of {
      mc_name : string;
      mc_bases : (string * Chg.Graph.edge_kind * Chg.Graph.access) list;
      mc_members : Chg.Graph.member list;
    }
  | Add_member of { mm_class : string; mm_member : Chg.Graph.member }

type op =
  | Open of { o_session : string option; o_hierarchy : hierarchy }
  | Lookup of { lk_query : query; lk_semantics : Mro.semantics }
  | Batch_lookup of { bl_queries : query list; bl_semantics : Mro.semantics }
  | Mutate of mutation
  | Lint of { l_rules : string list option; l_semantics : Mro.semantics }
      (** rule-id strings, validated by the server; [None] = the
          default rule set *)
  | Symbols
  | Snapshot
  | Restore
  | Stats
  | Metrics
  | Close

type request = { rq_id : Chg.Json.t; rq_session : string option; rq_op : op }

(** The verb's wire name — what the [op] field carries and what
    per-verb metric labels use. *)
val op_string : op -> string

(** [read_only op] — true for the verbs the networked server may execute
    concurrently (lookup, batch_lookup, lint, symbols, stats, metrics);
    the rest serialize through the single writer path.
    {!Server.read_only} extends it to the id-addressed 1b requests. *)
val read_only : op -> bool

(** [parse_request line] — a typed request, or the id to echo plus a
    structured error.

    It never builds an [open]'s [chg] as a tree: the JSON scanner hands
    it to {!Chg.Serialize.read} as it validates the line, so the line
    is read once.  A JSON syntax error
    anywhere in the line is the answer, whatever the [chg] held.
    [~shallow:true] is the routing decode: an [open]'s [chg] / [source]
    value and a [batch_lookup]'s [queries] are validated by the JSON
    grammar but not read, so the request's hierarchy is hollow
    ([Chg_json (Ok Chg.Graph.empty)], or [Source ""]) and its batch
    empty when the queries are an array.  Every other check of the full
    decode still applies — the same errors, text and offsets, for the
    same lines; a batch whose queries only the full decode rejects is
    routed, and its backend gives that answer.  [?pos]/[?len] decode
    the line in that region of the string, as {!Chg.Json.of_string}
    does: error offsets count from [pos], and the request shares no
    bytes with the string. *)
val parse_request :
  ?shallow:bool -> ?pos:int -> ?len:int -> string ->
  (request, Chg.Json.t * error_code * string) result

val ok_response : id:Chg.Json.t -> (string * Chg.Json.t) list -> Chg.Json.t

val error_response :
  id:Chg.Json.t -> error_code -> string -> Chg.Json.t

(** [may_be_error line] is [false] only for a serialized response that
    is certainly not an error: every {!error_response} line contains
    ["ok":false] verbatim.  Lines for which it is [true] must still be
    parsed to tell. *)
val may_be_error : string -> bool

(** [verdict_fields g v] — the response encoding of a verdict:
    [("verdict", "red"|"blue"|"none")], plus [resolves_to] (red) and
    [detail] (the pretty verdict, red/blue). *)
val verdict_fields :
  Chg.Graph.t -> Lookup_core.Engine.verdict option ->
  (string * Chg.Json.t) list
