(** Strings numbered in the order they were added — 0, 1, 2, … — that
    {!intern} finds or adds by a slice of any string, so a scanner can
    look a name up where it lies in its input without copying it
    first.  A table is mutable; {!copy} makes an independent one. *)

type t

(** [create n] is an empty table with room for about [n] strings (it
    grows past them). *)
val create : int -> t

(** How many strings the table holds: their indices are [0 .. count - 1]. *)
val count : t -> int

(** [name t k] is the string of index [k]. *)
val name : t -> int -> string

(** [find_string t s] is the index of [s], or -1.  Allocates
    nothing. *)
val find_string : t -> string -> int

(** [add t x] is the index of [x], added (as [x] itself, not a copy) if
    it was absent. *)
val add : t -> string -> int

(** [intern t s i j] is the index of [s.[i .. j - 1]], added as a copy
    of those bytes if it was absent: [s] may change afterwards. *)
val intern : t -> string -> int -> int -> int

(** [truncate t k] forgets every string of index [k] or more. *)
val truncate : t -> int -> unit

val copy : t -> t
