(** The open connections of one listener, for teardown.

    A connection is registered at accept and forgotten — its socket
    closed — by the thread serving it when that thread is done, so the
    set holds only live connections however many a long-lived process
    accepts.  Shared by {!Server} and the cluster layer's router and
    replication listeners. *)

type t

val create : unit -> t

(** [add t fd] registers an accepted socket and returns its connection
    id (1, 2, … in accept order). *)
val add : t -> Unix.file_descr -> int

(** [close t conn fd] closes the socket and forgets the connection. *)
val close : t -> int -> Unix.file_descr -> unit

(** [drain t] shuts down every open socket in both directions — a
    thread blocked reading or writing it wakes with EOF or an error —
    and returns once every connection has been {!close}d. *)
val drain : t -> unit
