(** The hierarchy linter: all rules from one shared engine build.

    [run] builds the Figure-8 engine (with witnesses) once over the
    hierarchy, scans every contained (class, member) pair, and derives
    every enabled rule from that single table — graph variants are built
    only where a rule's definition demands one (fragile-dominance
    re-runs one member column per (member, winner) pair; the virtualize
    rule builds one full table per candidate edge set).

    Rule refinements over the literal statements, chosen so the rules
    are non-vacuous (documented in DESIGN.md):
    - {b dead-member} excludes the declaring class itself (lookup(X,m)
      trivially yields X's own declaration) and fires only when X has at
      least one derived class, none of which resolves [m] to [X].
    - {b fragile-dominance} fires when the winner dominates a definition
      in a shared virtual base that stays visible along a derivation
      path bypassing the winner — ordinary single-inheritance-style
      hiding does not fire.
    - {b virtualize-fix-it} candidates are single non-virtual edges
      above an ambiguous class plus the "all edges out of one base"
      group (the symmetric-diamond fix); a candidate is reported iff it
      resolves the ambiguity while every resolved lookup keeps its
      target, no lookup appears or disappears, and no new ambiguity
      arises. *)

(** The lint rule table: identity, severity policy, and descriptions.

    Every rule has a stable kebab-case string id (the [--rules] /
    SARIF [ruleId] namespace), a fixed default severity, and a category
    used for grouping in documentation and SARIF rule metadata.

    Severity policy:
    - {b error} — the program is ill-formed if the member is used
      unqualified (ambiguity);
    - {b warning} — legal but fragile or very likely unintended
      hierarchy shape (replication, dominance-only resolution);
    - {b note} — informational findings and suggestions (dead
      declarations, fix-it proposals, baseline divergence). *)
module Rule : sig
  type id =
    | Ambiguous_lookup
        (** a [(C,m)] whose Defns set has incomparable dominants *)
    | Replicated_base  (** non-virtual repeated base — paper Figure 1 *)
    | Fragile_dominance
        (** lookup resolving only through Definition 5 dominance *)
    | Dead_member  (** declaration never the result of any lookup below *)
    | Virtualize_fixit
        (** an edge whose virtualization would resolve an ambiguity *)
    | Compiler_divergence
        (** a real compiler baseline silently answers differently *)
    | Mro_unsolvable
        (** C3 linearization fails: cyclic precedence constraints *)
    | Semantics_divergence
        (** C++ dominance and C3 linearization answer differently *)
    | Linearization_sensitive
        (** the MRO variants (C3/Python-2.2/Dylan) disagree *)

  (** All rules, in fixed report order.  New rules are appended, so
      {!index} — and every published SARIF [ruleIndex] — is stable. *)
  val all : id list

  (** The rules enabled by {!default_config}: the original six.  The
      cross-semantics rules ({!Mro_unsolvable}, {!Semantics_divergence},
      {!Linearization_sensitive}) are strictly opt-in, keeping default
      lint output byte-compatible across releases. *)
  val default_rules : id list

  (** [index r] is the position of [r] in {!all} (stable across runs;
      used as SARIF [ruleIndex] and for deterministic sorting). *)
  val index : id -> int

  (** [to_string r] is the stable rule id, e.g. ["ambiguous-lookup"]. *)
  val to_string : id -> string

  (** [of_string s] inverts {!to_string}. *)
  val of_string : string -> id option

  val severity : id -> Frontend.Diagnostic.severity

  (** [category r] — e.g. ["correctness"], ["robustness"]. *)
  val category : id -> string

  (** [short_description r] — one sentence, for SARIF rule metadata. *)
  val short_description : id -> string
end

type finding = {
  f_rule : Rule.id;
  f_class : string;  (** subject class (name, graph-independent) *)
  f_member : string option;
  f_diag : Frontend.Diagnostic.t;
  f_baseline : string option;
      (** which baseline / semantics diverged (compiler-divergence:
          ["topo"], ["gxx-buggy"], ["gxx-fixed"];
          semantics-divergence: ["c3"]) — surfaced in the SARIF
          result's property bag *)
}

(** How a finding gets a source position: names to declaration sites
    (see {!Frontend.Locs.locate}).  The default knows nothing and every
    diagnostic carries {!Frontend.Loc.dummy}. *)
type locator = cls:string -> member:string option -> Frontend.Loc.t option

val no_locs : locator

type config = {
  rules : Rule.id list;  (** enabled rules, in any order *)
  spec_witness_limit : int;
      (** max subobject count for exponential spec witness paths *)
  gxx_limit : int;
      (** max subobject count for the exponential g++ baseline scan *)
  virtualize_limit : int;  (** max candidate edge sets tried *)
}

(** {!Rule.default_rules} on; limits 512 / 2048 / 128. *)
val default_config : config

(** [parse_rules "a,b"] parses a comma-separated rule-id list (the
    CLI's [--rules] argument).  The tokens ["all"] and ["default"]
    expand to {!Rule.all} and {!Rule.default_rules}; an unknown id is
    an [Error] listing every valid spelling. *)
val parse_rules : string -> (Rule.id list, string) result

(** {1 Telemetry} *)

type metrics

(** Per-rule fired counters and pair/variant-build/gxx-skip
    counters. *)
val create_metrics : unit -> metrics

(** Shared no-op bag: increments are skipped entirely. *)
val disabled : metrics

(** [(name, value)] pairs: ["lint_<rule-id>"] per rule plus
    ["lint_pairs_checked"], ["lint_variant_builds"],
    ["lint_gxx_skipped"]. *)
val metrics_counters : metrics -> (string * int) list

(** {1 Running} *)

(** [run ?config ?semantics ?locs ?metrics ?jobs cl] — findings in
    deterministic order: subject class (declaration order), then rule,
    member, message.  [jobs] (default [1]) compiles the lookup table's
    columns on that many domains ({!Lookup_core.Packed.build}); the
    findings are identical for every value.

    [semantics] (default {!Mro.Cpp}) selects the engine behind the
    verdict-shaped rules (ambiguous-lookup, dead-member): under
    [Linearized v] they read the {!Mro.engine} table instead of the
    Figure-8 build, and the C++-subobject-specific rules
    (replicated-base, fragile-dominance, virtualize-fix-it,
    compiler-divergence) are skipped.  The cross-semantics rules
    (mro-unsolvable, semantics-divergence, linearization-sensitive)
    always compare C++ dominance against the linearizations they build
    themselves, whatever [semantics] says. *)
val run : ?config:config -> ?semantics:Mro.semantics -> ?locs:locator ->
  ?metrics:metrics -> ?jobs:int -> Chg.Closure.t -> finding list

(** {1 Summaries and renderers} *)

(** [(errors, warnings, notes)]. *)
val summary : finding list -> int * int * int

val max_severity : finding list -> Frontend.Diagnostic.severity option

(** Pretty text, one finding per line
    ([file:line:col: severity: message [rule]] with a [fix-it:]
    continuation line when present), ending with a summary line. *)
val pp_text : ?file:string -> Format.formatter -> finding list -> unit

(** One finding as a JSON object (the JSON-lines renderer emits one of
    these per line): [rule], [severity], [class], optional [member],
    [file], [line]/[col] (omitted at dummy positions), [message],
    optional [fixit]. *)
val finding_json : ?file:string -> finding -> Chg.Json.t

(** SARIF 2.1.0 rendering.  The document carries the full static rule
    table as [tool.driver.rules] (id, short description, default level,
    category) and one [result] per finding with [ruleId], [ruleIndex],
    [level], [message.text], a [physicalLocation] when the source file
    is known (the [region] is omitted at dummy positions), and the
    fix-it in the result's property bag. *)
module Sarif : sig
  (** The complete [sarifLog] object. *)
  val document : ?file:string -> finding list -> Chg.Json.t

  (** Pretty-printed JSON text of {!document}. *)
  val to_string : ?file:string -> finding list -> string
end
