(** Transitive-closure information over a class hierarchy graph.

    The lookup algorithm's dominance test (paper Lemma 4 and lines [1]-[3]
    of Figure 8) requires a constant-time "is [X] a virtual base of [Y]"
    probe.  As the paper notes, a compiler needs this information anyway.
    {!compute} builds it for a whole graph with a bitset-based closure in
    [O(|N| * (|N| + |E|))] word operations.  A resident hierarchy that
    mutates never recomputes it: {!rebind} carries it across a member
    addition (no class or edge changes) in O(1), and {!extend} adds a
    new class's row — the union over its direct bases — in
    [O(indegree * |N| / wordsize)] plus one pointer per class.

    Row [y] lives in the universe [[0..y]] (a base always has a smaller
    id), so extending never grows an earlier row: every row is shared,
    read-only, by every closure derived from the one that built it, and
    a closure once handed out never changes. *)

type t

(** [compute g] builds the closure tables for [g]. *)
val compute : Graph.t -> t

(** [rebind t g] is [t] over [g], which must have the same classes and
    edges as [graph t] (for example {!Graph.with_member} of it).  Shares
    every row.
    @raise Invalid_argument when the class or edge count differs. *)
val rebind : t -> Graph.t -> t

(** [extend t g] is the closure of [g], which must be [graph t] plus one
    class (for example {!Graph.extend} of it): one new row, computed
    from the rows of the new class's direct bases; the earlier rows are
    shared.
    @raise Invalid_argument unless [g] has exactly one more class. *)
val extend : t -> Graph.t -> t

(** [graph t] is the graph the closure was computed from. *)
val graph : t -> Graph.t

(** [is_base t x y] is [true] iff [x] is a (strict, possibly indirect)
    base class of [y] — i.e. there is a non-empty CHG path from [x] to
    [y]. *)
val is_base : t -> Graph.class_id -> Graph.class_id -> bool

(** [is_base_or_self t x y] is [is_base t x y || x = y]. *)
val is_base_or_self : t -> Graph.class_id -> Graph.class_id -> bool

(** [is_virtual_base t x y] is [true] iff there is a path from [x] to [y]
    whose {e first} edge is virtual (the paper's definition of virtual
    base, Section 2). *)
val is_virtual_base : t -> Graph.class_id -> Graph.class_id -> bool

(** [bases_of t y] is the set of strict bases of [y], in the universe
    [[0..y]]. *)
val bases_of : t -> Graph.class_id -> Bitset.t

(** [virtual_bases_of t y] is the set of virtual bases of [y], in the
    universe [[0..y]]. *)
val virtual_bases_of : t -> Graph.class_id -> Bitset.t

(** [derived_of t x] is the set of classes [y] such that [x] is a strict
    base of [y].  The transpose is built on the first call and cached
    (safe from any domain). *)
val derived_of : t -> Graph.class_id -> Bitset.t
