(** One resident hierarchy: the session a [cxxlookup-rpc/1] client opens,
    queries, and mutates.

    A session answers every read from {b one verdict store}
    ({!Table_cache}): packed per-member columns indexed by member intern
    id, one array read per lookup, whichever framing asked.  A miss
    follows one of two rules:
    - before the first mutation, the member's column is compiled once —
      one Figure-8 sweep over the session's closure, O(|N|+|E|) — and
      kept for good.  Nothing boxed outlives the sweep, and a session
      that is only read never builds the whole table;
    - after it, the {b incremental engine} ({!Lookup_core.Incremental})
      answers from its row and nothing is compiled.  The engine is the
      resident source of truth once forced: every class row stays
      materialized, and [add_class] / [add_member] update it in place.

    A name no class declares answers [None] and touches neither the
    store nor the member index.

    A mutation costs what the incremental engine costs, and never
    recomputes anything whole.  It publishes a copy of the store in
    which only the columns it touched differ:
    - [add_member] keeps the class structure: the new frozen graph
      shares every per-class array but the mutated class's member
      array, the closure and the MRO linearizations are kept (rebound
      to the new graph), the engine recomputes only the member's column
      at the class and its derived classes, and that member's column,
      if resident, is repacked from the engine's rows;
    - [add_class] extends: the graph by one class, the closure by one
      row (the union over the direct bases; earlier rows are shared),
      the engine by one row, and every resident column by the new
      class's verdict, re-encoded in integers.  MRO tables are dropped
      and recomputed on the next linearized query.
    Values handed out earlier ({!graph}, {!closure}, MRO tables,
    compiled columns) are persistent: no later mutation changes them.
    {!replay} applies a run of WAL records the same way and publishes
    once.  See DESIGN.md §6, "The service layer". *)

type config = {
  jobs : int;
      (** domains for whole-table column compilation (the lint verb);
          [1] never spawns *)
}

(** 1 job *)
val default_config : config

(** Which layer answered a lookup (reported as ["via"] on the wire):
    [Compiled] a column of the store, [Memoised] the engine's row (or
    nothing, for an undeclared name). *)
type served = Compiled | Memoised

val served_string : served -> string

type t

(** [create ?config ~name g] opens a session over [g].  The incremental
    engine is materialized lazily — its rows are computed, over the
    session's closure, on the first mutation, not at open time — so
    opening (and restoring from a snapshot) costs only the closure
    computation, and no column is compiled until it is asked for. *)
val create : ?config:config -> name:string -> Chg.Graph.t -> t

(** [restore ?config ~name ~epoch ~columns g] reopens a session from
    durable state: the snapshot graph, its mutation epoch, and the
    compiled verdict columns that were resident when the snapshot was
    taken (installed directly into the store, so the warm serving path
    needs no recomputation).  Columns whose class count disagrees with
    [g], or whose member no class of [g] declares, are dropped rather
    than trusted. *)
val restore :
  ?config:config ->
  name:string ->
  epoch:int ->
  columns:(string * Table_cache.column) list ->
  Chg.Graph.t ->
  t

val name : t -> string

(** [graph t] is the current frozen snapshot (published per mutation). *)
val graph : t -> Chg.Graph.t

(** [closure t] is the closure the session serves from; its graph is
    {!graph}[ t].  Read-only: for checks and diagnostics. *)
val closure : t -> Chg.Closure.t

(** [epoch t] counts mutations applied so far. *)
val epoch : t -> int

(** [cache t] is the session's verdict store. *)
val cache : t -> Table_cache.t

(** [compiled_columns t] — every resident column, sorted by member name:
    what a snapshot of this session persists. *)
val compiled_columns : t -> (string * Table_cache.column) list

(** [lookup t cls member] serves one query from the store, compiling
    the member's column on a miss before the first mutation and
    answering from the engine's row after it.  [Error cls] when the
    class is unknown. *)
val lookup :
  t -> string -> string ->
  (Lookup_core.Engine.verdict option * served, string) result

(** {2 Interned ids — the binary hot path}

    Classes are addressed by graph id (declaration order, append-only);
    members by the dense ids of the graph's member index
    ({!Chg.Graph.member_id}), in first-declaration order at open and
    append-only across mutations: nothing is interned at open, and —
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

(** [num_classes t] — the class count of {!graph}[ t]: valid class ids
    are [0 .. num_classes t - 1]. *)
val num_classes : t -> int

(** [lookup_code t ~cls ~member] answers by interned ids with a resolve
    code: [-1] absent, [-2] ambiguous, else the declaring class id.
    It takes the same store and miss rules as {!lookup}, and its
    counter accounting matches.  It is {!row_code}, then
    {!resolve_code} on a miss, then {!count_codes}; the boxed
    [Ok (code, served)] result is its one allocation. *)
val lookup_code :
  t -> cls:int -> member:int ->
  (int * served, [ `Bad_class | `Bad_member ]) result

(** The resolve code of a verdict, in {!lookup_code}'s convention. *)
val code_of_verdict : Lookup_core.Engine.verdict option -> int

(** {3 The id path in parts}

    What {!lookup_code} does, split so that a caller resolving many
    pairs allocates nothing and counts once.  Ids must already be in
    range ([cls < num_classes], [member < num_member_symbols]). *)

(** What {!row_code} answers when the member has no row. *)
val no_row : int

(** [row_code t ~cls ~member] is the pair's resolve code read from the
    member's row — one read — or {!no_row}.  Counts nothing. *)
val row_code : t -> cls:int -> member:int -> int

(** [resolve_code t ~cls ~member] answers a {!row_code} miss by the
    store's rules: the member's column (compiled on first use while no
    mutation has been applied) answers, and the member's row is built
    from it under the session lock; after a mutation, a member with no
    resident column is answered by the engine and gets no row.  Counts
    the store's hit or miss, as {!lookup} does. *)
val resolve_code : t -> cls:int -> member:int -> int

(** [served t member] — [Compiled] when the member has a row (its
    column answers), else [Memoised]: which layer answered a resolved
    id lookup. *)
val served : t -> int -> served

(** [count_codes t ~lookups ~row_hits ~resolved ~ambiguous ~not_found]
    adds a run of id lookups to the session's counters, and
    [row_hits] — those {!row_code} answered — to the store's hits. *)
val count_codes :
  t -> lookups:int -> row_hits:int -> resolved:int -> ambiguous:int ->
  not_found:int -> unit

(** [mro_lookup t v cls member] serves one query under the linearized
    semantics [v] (the protocol's opt-in ["semantics"] field): the
    session keeps one {!Mro.t} per requested variant, computed from the
    current snapshot on first use, kept across [add_member] and dropped
    by [add_class].  [Error cls] when the class is unknown. *)
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
    the affected rows of that member's column; the member's column, if
    resident, is repacked from those rows.  Returns (rows recomputed,
    column was resident).
    @raise Chg.Graph.Error like {!Lookup_core.Incremental.add_member}. *)
val add_member : t -> cls:string -> Chg.Graph.member -> int * bool

(** The stages of one mutation, in execution order: ["freeze"] (the
    new frozen graph), ["closure"], ["rows"] (the incremental engine's
    row or column sweep), ["columns"] (the store's copy-on-write
    repair) and ["mro"] (linearization tables). *)
val mutation_stages : string list

(** [last_mutation_ns t] — wall-clock nanoseconds each of
    {!mutation_stages} took in the most recent mutation, in that
    order (all zero before the first). *)
val last_mutation_ns : t -> (string * int) list

(** [replay t records] applies WAL records in order, each as
    {!add_class} / {!add_member} would (epoch, interning, column
    repair), and publishes the read-facing state once at the end.  The
    first record that fails stops the replay with its error; the
    records before it stay applied.  The caller owns epoch continuity
    ({!Store.recover} hands over only consecutive records). *)
val replay : t -> Store.Mutation.t list -> (unit, Chg.Graph.error) result

(** [counters t] — [lookups], [resolved], [ambiguous], [not_found],
    [mutations]. *)
val counters : t -> (string * int) list

(** [stats_json t] is the session's [stats]-verb payload: hierarchy
    shape, epoch, configured domains, query counters, store counters
    (with hit ratio, packed bytes, and the per-column bytes), and
    whether the engine answers misses ([memo.engine_forced]).
    Deterministic (no wall-clock). *)
val stats_json : t -> Chg.Json.t

(** [register t registry] attaches the session's counters (as
    [cxxlookup_session_<name>_total]), live gauges (epoch, classes)
    and its store's series to [registry], all
    labelled [session=<name>].  Reopening a name replaces the closed
    session's series. *)
val register : t -> Telemetry.Registry.t -> unit
