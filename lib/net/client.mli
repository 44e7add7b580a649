(** A minimal blocking JSON-lines client (one socket, synchronous or
    manually pipelined).  The load generator, the [cxxlookup client]
    verb and the smoke tests are built on it. *)

type t

(** [connect ?retries ?backoff_ms addr] — with [retries] (default 0:
    fail immediately), a refused / unreachable connection is retried up
    to that many additional times with jittered exponential backoff
    ([backoff_ms], default 50, doubling per attempt, +/-25% jitter).
    Raises [Unix.Unix_error] once the attempts are exhausted.  The
    router's backend pool and [cxxlookup client --retry] reconnect
    through this. *)
val connect : ?retries:int -> ?backoff_ms:int -> Server.addr -> t

(** [backoff_delay ~attempt ~backoff_ms] — the jittered exponential
    delay (seconds) the retry paths sleep between attempts. *)
val backoff_delay : attempt:int -> backoff_ms:int -> float

(** [overloaded line] — the response is an in-band [overloaded]
    error (the one condition where blindly resending is safe: a shed
    request was never executed). *)
val overloaded : string -> bool

(** [send_line ?pos ?len t line] writes [line], or its region of [len]
    bytes from [pos], and a newline, flushed. *)
val send_line : ?pos:int -> ?len:int -> t -> string -> unit

(** A partial write: no newline appended, flushed.  For torn-line
    tests. *)
val send_raw : t -> string -> unit

(** [None] on server-side close. *)
val recv_line : t -> string option

(** One synchronous round trip ([pos]/[len] as for {!send_line}). *)
val request : ?pos:int -> ?len:int -> t -> string -> string option

(** Like {!request}, but an [overloaded] response is resent (same
    connection) up to [retries] times with the jittered backoff. *)
val request_admitted : ?retries:int -> ?backoff_ms:int -> ?pos:int -> ?len:int ->
  t -> string -> string option

(** {1 Binary ([cxxlookup-rpc/1b]) framing}

    Frames share the socket with JSON lines (negotiation is per
    message): fetch [symbols] over JSON, then switch to frames on the
    same connection, or interleave both. *)

(** [send_frame t f] writes one encoded request frame, flushed. *)
val send_frame : t -> string -> unit

(** [recv_frame t] reads one complete response frame (header +
    payload).  [None] on server-side close or a non-frame byte stream
    (after which the connection should be closed — the position is
    unrecoverable). *)
val recv_frame : t -> string option

(** One synchronous binary round trip. *)
val request_frame : t -> string -> string option

(** [frame_overloaded f] — the response frame is an in-band
    [overloaded] error. *)
val frame_overloaded : string -> bool

(** Like {!request_frame}, but an [overloaded] response is resent (same
    connection) up to [retries] times with the jittered backoff. *)
val request_frame_admitted :
  ?retries:int -> ?backoff_ms:int -> t -> string -> string option

(** [closed_by_peer t] — without blocking, whether the connection is
    unfit for another request: between round trips a live server sends
    nothing, so end of file, a reset or unsolicited bytes all read as
    closed.  A pooled connection checks this before it is reused. *)
val closed_by_peer : t -> bool

val close : t -> unit
