(** Named metric registry: counters, pull-based gauges and histograms
    keyed by (name, static labels).  Registering an existing key
    returns the existing instrument; a new instrument is built only on
    a miss.  [collect] yields a deterministic, name-sorted view for
    the exposition renderer. *)

type labels = (string * string) list

type instrument =
  | Counter of Counter.t
  | Gauge of (unit -> int)
  | Histogram of Histogram.t

type series = {
  s_name : string;
  s_help : string;
  s_labels : labels;
  s_instrument : instrument;
}

type t

val create : unit -> t

val counter : t -> ?help:string -> ?labels:labels -> string -> Counter.t
(** Find-or-create a monotone counter series. *)

val attach_counter :
  t -> ?help:string -> ?labels:labels -> string -> Counter.t -> unit
(** Register an existing counter (e.g. a subsystem's private counter)
    under a metric name.  Attaching under a live key replaces the
    series — the reopened-session path, where a fresh session reuses
    the name (and hence label set) of a closed one. *)

val gauge : t -> ?help:string -> ?labels:labels -> string -> (unit -> int) -> unit
(** Register a pull gauge: the callback is sampled at [collect] time.
    Re-registering a live key replaces the callback. *)

val histogram : t -> ?help:string -> ?labels:labels -> string -> Histogram.t
(** Find-or-create a histogram series. *)

val attach_histogram :
  t -> ?help:string -> ?labels:labels -> string -> Histogram.t -> unit

val collect : t -> (string * series list) list
(** All series grouped by metric name, names sorted, label sets sorted
    within each name — a deterministic scrape. *)

val find_values : t -> string -> (labels * int) list
(** Current values of every counter/gauge series under [name]. *)

val valid_name : string -> bool
val valid_label_name : string -> bool
