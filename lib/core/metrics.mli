(** Telemetry for the lookup engines: the unit operations of the paper's
    complexity model as observable counters, plus build times and an
    optional Figure-8 propagation trace.

    Section 5 bounds the algorithm by counting edge traversals and
    constant-time dominance probes (Lemma 4); this bag makes exactly
    those units measurable so the bounds become executable assertions
    (see the telemetry property tests) instead of wall-clock folklore.

    A single bag can be threaded through all three engines
    ({!Engine.build}, {!Memo}, {!Incremental}), or one bag per engine
    when their costs must be attributed separately (as [cxxlookup stats]
    does).  The shared {!disabled} bag is inert: every instrumentation
    site guards on {!enabled}, so un-instrumented runs pay one load and
    branch per site and never mutate shared state. *)

type t = {
  enabled : bool;
  (* Figure-8 propagation (eager engine; shared combine step) *)
  classes_visited : Telemetry.Counter.t;
      (** classes processed in topological order *)
  members_processed : Telemetry.Counter.t;
      (** (class, member) table entries computed *)
  edge_traversals : Telemetry.Counter.t;
      (** base edges examined while collecting a member's incoming
          verdicts — the unit of the O(|N|+|E|) per-member bound *)
  o_extensions : Telemetry.Counter.t;
      (** applications of the paper's [o] edge-extension to an lv *)
  dominance_probes : Telemetry.Counter.t;
      (** Lemma-4 constant-time dominance tests inside combine *)
  declared_kills : Telemetry.Counter.t;
      (** lines [11]-[12]: local declaration kills all base verdicts *)
  red_verdicts : Telemetry.Counter.t;  (** unambiguous entries created *)
  blue_verdicts : Telemetry.Counter.t;  (** ambiguous entries created *)
  red_demotions : Telemetry.Counter.t;
      (** combines with red input forced to a blue output — the paper's
          worst-case driver *)
  (* lazy memoising engine *)
  memo_hits : Telemetry.Counter.t;
  memo_misses : Telemetry.Counter.t;
  memo_recursive_fills : Telemetry.Counter.t;
      (** cache fills triggered from inside another fill (base-class
          recursion), as opposed to root queries *)
  (* incremental engine *)
  incr_rows : Telemetry.Counter.t;  (** classes added *)
  incr_row_members : Telemetry.Counter.t;
      (** per-row member verdicts computed *)
  incr_closure_bits : Telemetry.Counter.t;
      (** closure growth: bits in the new row's bases/virtual-bases sets *)
  (* distributions *)
  column_cost : Telemetry.Histogram.t;
      (** per-compiled-column edge-traversal cost: one observation per
          member column built by {!Packed.build}.  Deterministic for a
          given hierarchy, so per-domain histograms merged at join are
          equal for every job count. *)
  build_ns : Telemetry.Histogram.t;
      (** whole-build wall time, one observation per {!Engine.build},
          {!Engine.build_member} or {!Packed.build} on an enabled bag:
          [sum] is the total nanoseconds, [count] the builds *)
  (* propagation trace *)
  sink : Telemetry.Sink.t;
}

(** [disabled] is the shared inert bag ([enabled = false], null sink).
    It is the default for every engine's [?metrics] argument. *)
val disabled : t

(** [create ?trace ()] is a live bag.  [trace] (default [false])
    additionally records the propagation event stream into {!sink}. *)
val create : ?trace:bool -> unit -> t

val enabled : t -> bool

(** [bump m c] / [bump_n m c n] increment counter [c] iff [m] is
    enabled.  [c] should be a counter of [m]. *)
val bump : t -> Telemetry.Counter.t -> unit

val bump_n : t -> Telemetry.Counter.t -> int -> unit

(** [observe_column m ~cost] records one compiled column's
    edge-traversal cost into {!column_cost} iff [m] is enabled. *)
val observe_column : t -> cost:int -> unit

(** [time_build m f] is [f ()], its wall time recorded into {!build_ns}
    iff [m] is enabled. *)
val time_build : t -> (unit -> 'a) -> 'a

(** [counters m] is every counter with its current value, in a stable
    order (the declaration order above). *)
val counters : t -> (string * int) list

(** [merge_into ~into m] adds every counter of [m] into the matching
    counter of [into], and merges the {!column_cost} histogram — the
    join step of a parallel build, where each worker domain bumped a
    private bag.  [m]'s build times and trace sink are not propagated.
    A no-op when [into] is disabled. *)
val merge_into : into:t -> t -> unit

(** [pp_summary] prints the non-zero counters, one per line, then
    after any build a [build: <total> over <n> span(s)] line — the human
    side of [cxxlookup stats]. *)
val pp_summary : Format.formatter -> t -> unit

(** [counters_json m] is a flat JSON object [name -> value] over all
    counters (zeros included: consumers should not have to know the
    schema by heart). *)
val counters_json : t -> Telemetry.Json.t

(** [timers_json m] is [{ "build": { "total_ns": n, "spans": k } }]:
    {!build_ns}'s sum and count. *)
val timers_json : t -> Telemetry.Json.t

(** [column_cost_json m] summarizes the {!column_cost} distribution:
    observation count, sum, and p50/p90/p99/p999/max. *)
val column_cost_json : t -> Telemetry.Json.t

(** [register m ?labels registry] attaches every counter (as
    [cxxlookup_engine_<name>_total]) and the {!column_cost} histogram
    (as [cxxlookup_engine_column_cost]) to [registry] under [labels]
    (typically [[("engine", ...)]]). *)
val register :
  t -> ?labels:(string * string) list -> Telemetry.Registry.t -> unit
