(** The lazy, memoising variant of the lookup algorithm (paper Section 5:
    "It is easy enough to modify the algorithm into a memoising lazy
    algorithm that does not compute table entries that are unnecessary: a
    request for lookup[C,m] will recursively invoke lookup[B,m] for every
    direct base class B of C if necessary").

    Useful when a compiler resolves only a few accesses: a single query
    touches only the bases of the queried class, and results are cached so
    the total work over any query sequence never exceeds the eager
    table's. *)

type t

(** [create ?static_rule ?metrics cl] prepares an empty cache over [cl].

    [metrics] (default {!Metrics.disabled}) counts cache consults
    ([memo_hits] / [memo_misses]), fills triggered from inside another
    fill ([memo_recursive_fills]: the base-class recursion, as opposed to
    root queries), and the shared propagation units (edge traversals,
    [o]-extensions, dominance probes) of each fill. *)
val create : ?static_rule:bool -> ?metrics:Metrics.t -> Chg.Closure.t -> t

(** [lookup t c m] resolves member [m] in class [c], computing and caching
    any base-class entries it needs.  Verdicts are identical to
    {!Engine.lookup} on the eager table. *)
val lookup : t -> Chg.Graph.class_id -> string -> Engine.verdict option

(** [cached_entries t] is the number of (class, member) pairs resident —
    used by tests to check laziness and by callers to watch residency. *)
val cached_entries : t -> int
