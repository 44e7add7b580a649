(** Path abstractions (paper Section 4, "Abstracting Paths").

    The efficient algorithm never manipulates full CHG paths.  A blue
    definition [β] is abstracted to [leastVirtual β ∈ N ∪ {Ω}]
    (Definition 14); a red definition [α] to the pair
    [(ldc α, leastVirtual α)].  Lemma 4 shows these abstractions suffice
    for every dominance test the algorithm performs, because such tests
    only ever compare definitions arriving along different edges and at
    most one red definition flows per edge. *)

(** [leastVirtual] values: [Omega] is the paper's Ω (the path has no
    virtual edge); [Lv c] is the most derived class of the path's fixed
    part. *)
type lv = Omega | Lv of Chg.Graph.class_id

(** Abstraction of an unambiguous lookup result.  In the paper a red
    definition [α] abstracts to the pair [(ldc α, leastVirtual α)].  With
    the static-member extension (Section 6, Definition 17) a lookup may
    resolve to a {e group} of subobjects — all with the same least derived
    class, whose member is static there — and a later definition can
    dominate some group members but not others, so the abstraction must
    keep {e every} group member's [leastVirtual]: [r_lvs] is that set
    (sorted, without [Lv]-duplicates, nonempty; a singleton whenever the
    static rule played no part). *)
type red = { r_ldc : Chg.Graph.class_id; r_lvs : lv list }

(** [o v (x, kind, _y)] is the paper's [V o (X -> Y)] operation
    (Definition 15), abstracting path extension:
    if [v <> Ω] it is unchanged; otherwise it becomes [X] when the edge is
    virtual and stays [Ω] when it is not.  Satisfies
    [leastVirtual (β.(X->Y)) = leastVirtual β o (X->Y)]. *)
val o : lv -> Chg.Graph.class_id -> Chg.Graph.edge_kind -> lv

(** [extend_red r x kind] propagates a red abstraction through the edge
    [x -> _]: the ldc is unchanged, each lv component goes through {!o}. *)
val extend_red : red -> Chg.Graph.class_id -> Chg.Graph.edge_kind -> red

(** [extend_blue s x kind] pushes a whole blue abstraction set through the
    edge [x -> _]: every element goes through {!o}, and the result is kept
    sorted by {!lv_compare} without duplicates.  Requires [s] sorted and
    deduplicated; runs in one linear pass (no re-sort: {!o} only ever
    rewrites the lone [Ω] head into [Lv x], an ordered insertion). *)
val extend_blue :
  lv list -> Chg.Graph.class_id -> Chg.Graph.edge_kind -> lv list

(** [is_virtual_base x y] predicates come from {!Chg.Closure} for frozen
    graphs, or from an incrementally maintained closure
    ({!Incremental}). *)
type vbase = Chg.Graph.class_id -> Chg.Graph.class_id -> bool

(** [dominates1 vbase (l1, v1) (l2, v2)] is the constant-time dominance
    test of Figure 8 lines [1]-[3], justified by Lemma 4: [(L1,V1)]
    dominates [(L2,V2)] iff [V2] is a virtual base of [L1], or
    [V1 = V2 ≠ Ω]. *)
val dominates1 :
  vbase ->
  Chg.Graph.class_id * lv ->
  Chg.Graph.class_id * lv ->
  bool

(** [dominates_blue vbase (l, vs) b] — a red group dominates the blue
    abstraction [b] iff one of its members does: [b] is a virtual base of
    [l], or [b ∈ vs] and [b ≠ Ω] (Figure 8 line [38] lifted to groups). *)
val dominates_blue : vbase -> Chg.Graph.class_id * lv list -> lv -> bool

val lv_equal : lv -> lv -> bool
val lv_compare : lv -> lv -> int

(** [abstract_path p] is the [(ldc, leastVirtual)] singleton abstraction
    of a definition path. *)
val abstract_path : Subobject.Path.t -> red

(** [lv_name g lv] is [Ω] or the class name: the text of an [lv] in
    every printed verdict. *)
val lv_name : Chg.Graph.t -> lv -> string

val pp_lv : Chg.Graph.t -> Format.formatter -> lv -> unit
