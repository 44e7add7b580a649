(** Linearized member-lookup semantics (method resolution order) over the
    same class hierarchy graph the Figure-8 engine consumes.

    The paper answers "which declaration does [C::m] denote?" with
    subobject-graph dominance; Python, Dylan and CLOS answer the same
    question by {e linearizing} the superclass DAG into a total order and
    taking the first declaring class.  This module implements the three
    documented linearizations over {!Chg.Graph}:

    - {b C3} (Barrett et al., as described by Hivert & Thiéry,
      "Controlling the C3 super class linearization algorithm"):
      [L(C) = C :: merge(L(B1), ..., L(Bn), [B1..Bn])], where [merge]
      repeatedly takes the leftmost head that appears in no tail.  C3 can
      {e fail} — the precedence constraints may be cyclic — and this
      implementation returns the offending constraint cycle as a witness.
    - {b Python 2.2} ([L*]): leftmost depth-first concatenation of the
      base linearizations with duplicates removed keeping the {e last}
      occurrence.  Total (never fails), but neither monotone nor
      local-precedence-preserving — the defects that motivated C3.
    - {b Dylan} (CLOS-flavoured merge): same validity condition as C3,
      but among valid heads it prefers the candidate with a direct
      subclass rightmost in the partial result, falling back to leftmost
      list order.  Fails exactly when no valid head exists.

    Lookups under a linearized semantics conform to the Figure-8 verdict
    shape ({!Lookup_core.Engine.verdict}) so the memo / packed /
    telemetry layers can host an MRO table unchanged: a resolved lookup
    is [Red { r_ldc; r_lvs = [Omega] }] (linearized semantics never
    consult virtual-path abstractions, so [leastVirtual] is fixed at Ω),
    and a lookup on a class whose linearization {e failed} is [Blue]
    of the stuck constraint-cycle classes — the static-analysis analogue
    of Python raising [TypeError] at class-creation time. *)

type variant = C3 | Py22 | Dylan

(** Wire / CLI spelling: ["c3"], ["py22"], ["dylan"]. *)
val variant_string : variant -> string

val variant_of_string : string -> variant option

(** All variants, in {!variant_string} order — for cross-variant lints. *)
val variants : variant list

(** A lookup semantics as selected on the wire and the CLI: the paper's
    C++ dominance (the default everywhere), or one of the linearized
    variants.  Spelled ["cpp"], ["c3"], ["py22"], ["dylan"]. *)
type semantics = Cpp | Linearized of variant

val semantics_string : semantics -> string
val semantics_of_string : string -> semantics option

(** A linearization failure: the merge for [fl_class] got stuck, and
    [fl_cycle] is a cycle of classes [c0 -> c1 -> ... -> c0] where each
    [ci] is required to precede [c_(i+1)] by one input list and to follow
    it by another (length >= 2).  A class whose {e base} already failed
    inherits the base's failure record, so [fl_class] names the
    originating class of the cycle. *)
type failure = { fl_class : Chg.Graph.class_id; fl_cycle : Chg.Graph.class_id list }

(** All linearizations of one graph under one variant, computed eagerly
    in one pass over the classes in topological order (bases first). *)
type t

val compute : variant -> Chg.Graph.t -> t

(** [rebind t g] is [t] over [g], which must have the same classes and
    edges as [graph t] — a member addition ({!Chg.Graph.with_member}).
    Linearizations depend only on the class structure, never on
    members, so every one is kept; lookups read members from [g].
    @raise Invalid_argument when the class or edge count differs. *)
val rebind : t -> Chg.Graph.t -> t

val variant : t -> variant
val graph : t -> Chg.Graph.t

(** [linearization t c] is the method resolution order of [c] — [c]
    first, every strict base exactly once — or the failure witness.
    Under [Py22] the result is always [Ok]. *)
val linearization : t -> Chg.Graph.class_id -> (Chg.Graph.class_id list, failure) result

(** [lookup t c m] resolves member [m] in class [c] by MRO order: the
    first class in [linearization t c] declaring [m] wins, as
    [Red { r_ldc; r_lvs = [Omega] }].  When [c]'s linearization failed
    the verdict is [Blue] of the stuck-cycle classes (sorted, deduped).
    [None] when no class among [c] and its bases declares [m] — absence
    agrees with the Figure-8 engine regardless of variant or failure. *)
val lookup :
  t -> Chg.Graph.class_id -> string -> Lookup_core.Engine.verdict option

(** [resolves_to t c m] is the declaring class of a resolved lookup. *)
val resolves_to :
  t -> Chg.Graph.class_id -> string -> Chg.Graph.class_id option

(** [engine cl v] tabulates the [v]-semantics lookup for every member
    name of the program as a first-class {!Lookup_core.Engine.t} (via
    [Engine.of_columns]), interchangeable with a Figure-8 build for the
    packed / memo / telemetry layers.  Witness paths are not
    representable (like any column-rebuilt engine). *)
val engine : Chg.Closure.t -> variant -> Lookup_core.Engine.t

(** [pp_linearization g ppf c] prints [linearization] results as
    [C -> B -> A] chains or a [no C3 linearization (cycle: ...)] line. *)
val pp_result :
  Chg.Graph.t ->
  Format.formatter ->
  (Chg.Graph.class_id list, failure) result ->
  unit
