(** Request-level observability: the structured JSON request log and
    the flight recorder.

    Both consume the same {!entry} — one record per finished request,
    written by the server after the response is computed.  The log is a
    JSON-lines file (one object per line, flushed per line, append
    mode, so restarts extend rather than truncate).  The flight
    recorder is a fixed-size ring of the most recent entries, kept even
    when no log file is configured, and dumped to stderr whenever the
    server answers an [internal] error — and on SIGUSR1 under
    [cxxlookup serve] — so the requests leading up to a failure are
    always recoverable without any logging overhead in steady state. *)

type entry = {
  e_seq : int;  (** 1-based arrival order within this server *)
  e_conn : int option;
      (** connection id under the networked server; [None] on the
          single-client stdin/stdout path, where the field is omitted
          from the line entirely — the same parser reads both *)
  e_verb : string;  (** op name, or ["invalid"] for rejected lines *)
  e_session : string option;
  e_id : Chg.Json.t;  (** the request's echoed id *)
  e_outcome : string;  (** ["ok"] or the error code *)
  e_latency_ns : int;
  e_bytes : int;
      (** encoded response bytes — the JSON line without its newline, or
          the whole 1b frame — measured only while a request log is
          configured and [0] otherwise, in both framings (measuring a
          JSON response means serializing it a second time) *)
  e_via : string option;
      (** single-lookup serving path: ["table"] / ["memo"] / ["mro"] *)
  e_slow : bool;  (** latency crossed the [--slow-ms] threshold *)
}

val entry_json : entry -> Chg.Json.t

type t

(** [open_path path] opens (append, create) a JSON-lines log. *)
val open_path : string -> t

(** [of_channel oc] logs to an existing channel without owning it. *)
val of_channel : out_channel -> t

(** [log t e] writes one line and flushes. *)
val log : t -> entry -> unit

val close : t -> unit

(** {1 Flight recorder} *)

(** The most recent entries, in columns allocated once: a push stores
    ints and strings the caller already holds, so it leaves nothing for
    a minor collection to promote. *)
type recorder

val default_flight_capacity : int

(** [recorder capacity]; capacity must be >= 1. *)
val recorder : int -> recorder

(** [push r ...] overwrites the oldest entry once [r] is full.  Pushes
    must be serialized by the caller; {!entries} and {!dump} may run
    beside one, or interrupt one, and then skip the slot it is writing.
    The strings are stored as they are: pass ones the caller keeps. *)
val push :
  recorder ->
  seq:int ->
  conn:int option ->
  verb:string ->
  session:string option ->
  id:Chg.Json.t ->
  outcome:string ->
  latency_ns:int ->
  bytes:int ->
  via:string option ->
  slow:bool ->
  unit

(** Total pushes ever, including overwritten ones. *)
val pushed : recorder -> int

(** Surviving entries, oldest first. *)
val entries : recorder -> entry list

(** [dump r oc] writes {!entries} as JSON lines between human-readable
    header/footer markers, then flushes. *)
val dump : recorder -> out_channel -> unit
