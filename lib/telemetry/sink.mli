(** An in-memory structured event sink.

    The sink is the zero-cost-when-disabled boundary for tracing: a
    disabled sink (notably the shared {!null}) drops [emit] calls
    without allocating, and emission sites are expected to guard any
    field-list construction behind {!enabled}:

    {[
      if Sink.enabled sink then
        Sink.emit sink "flow" [ ("from", Str a); ("to", Str b) ]
    ]}

    Events are kept in order, without bound: a sink records one
    bounded run (a single member's Figure-8 replay), never a stream. *)

type t

(** [create ()] is an enabled, empty sink. *)
val create : unit -> t

(** [null] is the shared, permanently disabled sink. *)
val null : t

val enabled : t -> bool

(** [emit t name fields] appends an event, stamping sequence number and
    relative timestamp.  A no-op on a disabled sink. *)
val emit : t -> string -> (string * Event.value) list -> unit

(** [events t] in emission order. *)
val events : t -> Event.t list

(** [length t] is the number of stored events. *)
val length : t -> int

(** [pp] prints one event per line ({!Event.pp}). *)
val pp : Format.formatter -> t -> unit

(** [to_json t] is the event list as a JSON array. *)
val to_json : t -> Json.t
