(** One resident hierarchy: the session a [cxxlookup-rpc/1] client opens,
    queries, and mutates.

    A session layers three lookup representations, fastest first:

    + the {b compiled-table cache} ({!Table_cache}): per-member verdict
      columns, one array read per lookup;
    + the {b memo engine} ({!Lookup_core.Memo}): lazy per-entry fills
      over the current snapshot, and the promotion source for compiled
      columns;
    + the {b incremental engine} ({!Lookup_core.Incremental}): the
      resident source of truth — every class row stays materialized, and
      [add_class] / [add_member] update it in place instead of rebuilding
      the table.

    Mutations refresh the snapshot-facing state (frozen graph, closure,
    an empty memo) and repair the compiled tables precisely: [add_class]
    {e extends} every resident column by the new class's
    already-computed verdict; [add_member] {e invalidates} exactly the
    mutated member's column.  See DESIGN.md, "The compiled-table
    cache". *)

type config = {
  promote_threshold : int;
      (** root queries of a member before its column is compiled *)
  table_max_entries : int;  (** compiled-column count budget *)
  table_max_bytes : int option;  (** compiled-column byte budget, in
                                     real packed bytes *)
  memo_max_entries : int option;  (** memo residency cap *)
  jobs : int;
      (** domains for whole-table column compilation (the lint verb);
          [1] never spawns *)
}

(** threshold 3, 64 columns, unbounded bytes, unbounded memo, 1 job *)
val default_config : config

(** Which layer answered a lookup (reported as ["via"] on the wire). *)
type served = Compiled | Memoised

val served_string : served -> string

type t

(** [create ?config ~name g] opens a session over [g].  The incremental
    engine is materialized lazily — the class-by-class replay runs on
    the first mutation, not at open time — so opening (and restoring
    from a snapshot) costs only the closure computation. *)
val create : ?config:config -> name:string -> Chg.Graph.t -> t

(** [restore ?config ~name ~epoch ~columns g] reopens a session from
    durable state: the snapshot graph, its mutation epoch, and the
    compiled verdict columns that were resident when the snapshot was
    taken (installed directly into the table cache, so the warm serving
    path needs no recomputation).  Columns whose class count disagrees
    with [g] are dropped rather than trusted. *)
val restore :
  ?config:config ->
  name:string ->
  epoch:int ->
  columns:(string * Table_cache.column) list ->
  Chg.Graph.t ->
  t

val name : t -> string

(** [graph t] is the current frozen snapshot (refreshed per mutation). *)
val graph : t -> Chg.Graph.t

(** [epoch t] counts mutations applied so far. *)
val epoch : t -> int

val cache : t -> Table_cache.t

(** [compiled_columns t] — the resident compiled columns, sorted by
    member name: what a snapshot of this session persists. *)
val compiled_columns : t -> (string * Table_cache.column) list

(** [lookup t cls member] serves one query (table, then memo, promoting
    past the threshold).  [Error cls] when the class is unknown. *)
val lookup :
  t -> string -> string ->
  (Lookup_core.Engine.verdict option * served, string) result

(** {2 Interned ids — the binary hot path}

    Classes are addressed by graph id (declaration order, append-only);
    members by the session's dense intern ids, assigned in
    first-declaration order at open and append-only across mutations —
    never renumbered within a server lifetime, so a client's table plus
    mutation deltas stays valid.  (Ids are {e not} stable across server
    restarts; clients re-fetch [symbols] per session open.) *)

(** [symbols t] — (epoch, class names by class id, member names by
    member id): the [symbols] verb's payload.  Fresh arrays. *)
val symbols : t -> int * string array * string array

val num_member_symbols : t -> int
val member_symbol_name : t -> int -> string
val member_symbol : t -> string -> int option

(** [member_symbols_from t k] — the intern delta: every [(id, name)]
    with [id >= k], for mutation responses ([k] = the count before the
    mutation). *)
val member_symbols_from : t -> int -> (int * string) list

(** [lookup_code t ~cls ~member] answers by interned ids with a resolve
    code: [-1] absent, [-2] ambiguous, else the declaring class id.
    Counter accounting matches {!lookup}.  When the member's compiled
    column is cached in the session's symbol table the path does no
    hashing and builds no verdict, but it is not allocation-free: the
    [Ok (code, Compiled)] result is boxed, 5 minor words per call
    (measured over 100k warm calls on a 200-class [random_dag]). *)
val lookup_code :
  t -> cls:int -> member:int ->
  (int * served, [ `Bad_class | `Bad_member ]) result

(** The resolve code of a verdict, in {!lookup_code}'s convention. *)
val code_of_verdict : Lookup_core.Engine.verdict option -> int

(** [mro_lookup t v cls member] serves one query under the linearized
    semantics [v] (the protocol's opt-in ["semantics"] field): the
    session keeps one {!Mro.t} per requested variant, computed from the
    current snapshot and invalidated by mutation epoch.  [Error cls]
    when the class is unknown. *)
val mro_lookup :
  t -> Mro.variant -> string -> string ->
  (Lookup_core.Engine.verdict option, string) result

(** [add_class t ~cls ~bases ~members] — the incremental engine computes
    just the new row; resident columns are extended, not dropped.
    Returns the new class id.
    @raise Chg.Graph.Error like {!Lookup_core.Incremental.add_class}. *)
val add_class :
  t ->
  cls:string ->
  bases:(string * Chg.Graph.edge_kind * Chg.Graph.access) list ->
  members:Chg.Graph.member list ->
  Chg.Graph.class_id

(** [add_member t ~cls member] — the incremental engine recomputes only
    the affected rows of that member's column; the member's compiled
    column (if any) is invalidated.  Returns (rows recomputed, column
    was resident).
    @raise Chg.Graph.Error like {!Lookup_core.Incremental.add_member}. *)
val add_member : t -> cls:string -> Chg.Graph.member -> int * bool

(** [counters t] — [lookups], [resolved], [ambiguous], [not_found],
    [mutations]. *)
val counters : t -> (string * int) list

(** [stats_json t] is the session's [stats]-verb payload: hierarchy
    shape, epoch, configured domains, query counters, table counters
    (with hit ratio, real packed bytes, boxed-equivalent bytes, and the
    per-column packed-vs-boxed breakdown), memo residency.
    Deterministic (no wall-clock). *)
val stats_json : t -> Chg.Json.t

(** [register t registry] attaches the session's counters (as
    [cxxlookup_session_<name>_total]), live gauges (epoch, classes,
    memo entries) and its table cache's series to [registry], all
    labelled [session=<name>].  Reopening a name replaces the closed
    session's series. *)
val register : t -> Telemetry.Registry.t -> unit
