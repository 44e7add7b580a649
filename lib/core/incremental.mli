(** An incrementally maintained lookup table.

    The eager algorithm processes classes in topological order, and a
    class's verdicts depend only on its direct bases' verdicts — so when
    a program is processed declaration by declaration (as a compiler or
    an IDE does), each new class costs only its own row:
    [O(Members[C] * (1 + indegree))] amortized, never recomputing earlier
    classes.  The closure information the dominance test needs is
    equally monotone: each insertion extends a persistent
    {!Chg.Closure.t} by one row ({!Chg.Closure.extend}) and the frozen
    graph by one class ({!Chg.Graph.extend}), so {!snapshot} and
    {!closure} are O(1) and never rebuilt.

    The table agrees with {!Engine.build} on the frozen graph after every
    insertion (property-tested). *)

type t

(** [create ?static_rule ?metrics ()] is an empty hierarchy.

    [metrics] (default {!Metrics.disabled}) counts per-row cost
    ([incr_rows] / [incr_row_members]: verdicts computed for each added
    class) and closure growth ([incr_closure_bits]: bits in the new
    row's bases and virtual-bases sets), plus the shared propagation
    units of each row's combines. *)
val create : ?static_rule:bool -> ?metrics:Metrics.t -> unit -> t

(** [of_closure ?static_rule ?metrics cl] is the engine over
    [Chg.Closure.graph cl], every row computed class by class exactly as
    {!add_class} would, reusing [cl] instead of recomputing it. *)
val of_closure :
  ?static_rule:bool -> ?metrics:Metrics.t -> Chg.Closure.t -> t

(** [add_class t name ~bases ~members] declares a class (bases must
    already be declared, as in C++) and computes its lookup-table row.
    @raise Chg.Graph.Error like the graph builder on ill-formed input. *)
val add_class :
  t ->
  string ->
  bases:(string * Chg.Graph.edge_kind * Chg.Graph.access) list ->
  members:Chg.Graph.member list ->
  Chg.Graph.class_id

(** [add_member t cls m] adds member [m] to the already-declared class
    [cls] and repairs the resident table: only [m]'s column can change,
    and only at [cls] and its derived classes, so one increasing sweep
    over those rows (bases-first, since ids are a topological order)
    recomputes exactly the affected entries —
    [O(affected * (1 + indegree))] combines, never the whole table.
    Returns the number of rows recomputed (the service layer reports it
    and uses it to invalidate compiled tables).
    @raise Chg.Graph.Error on unknown class or duplicate member. *)
val add_member : t -> string -> Chg.Graph.member -> int

(** {2 Steps driven by the caller}

    {!add_class} and {!add_member} are each three steps: extend or
    rebind the frozen graph, carry the closure to it, then compute
    rows.  A caller that times the steps, or that already holds the new
    graph, runs the first two itself and hands the closure here. *)

(** [class_added t cl] — [cl] is [Chg.Closure.extend (closure t) g] for
    [g] a {!Chg.Graph.extend} of [snapshot t].  Computes the new class's
    row, adopts [cl], and returns the new id.
    @raise Invalid_argument unless [cl] adds exactly one class. *)
val class_added : t -> Chg.Closure.t -> Chg.Graph.class_id

(** [member_added t cl c m] — [cl] is [Chg.Closure.rebind (closure t) g]
    for [g] = [Chg.Graph.with_member (snapshot t) (name c) m].  Adopts
    [cl] and recomputes [m]'s column at [c] and its derived classes, as
    {!add_member}; returns the number of rows recomputed.
    @raise Invalid_argument if [cl] changes the class count. *)
val member_added :
  t -> Chg.Closure.t -> Chg.Graph.class_id -> Chg.Graph.member -> int

(** [lookup t c m] — same verdicts as the eager engine. *)
val lookup : t -> Chg.Graph.class_id -> string -> Engine.verdict option

(** [resolves_to t c m] is the declaring class of an unambiguous lookup. *)
val resolves_to : t -> Chg.Graph.class_id -> string -> Chg.Graph.class_id option

(** [num_classes t] is the number of classes added so far. *)
val num_classes : t -> int

(** [find t name] is the id of a declared class.
    @raise Not_found if absent. *)
val find : t -> string -> Chg.Graph.class_id

(** [snapshot t] is the current hierarchy as a frozen graph, O(1): a
    persistent value that later insertions leave unchanged. *)
val snapshot : t -> Chg.Graph.t

(** [closure t] is the closure of [snapshot t], O(1), equally
    persistent. *)
val closure : t -> Chg.Closure.t
