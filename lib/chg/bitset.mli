(** Fixed-capacity bit sets over the integer range [0, length).

    Used throughout the library for reachability closures over class ids,
    where dense integer universes make bit-parallel set operations the
    natural representation. *)

type t

(** [create n] is the empty set over universe [0..n-1]. *)
val create : int -> t

(** [length s] is the size of the universe [s] was created with. *)
val length : t -> int

(** [copy s] is an independent copy of [s]. *)
val copy : t -> t

(** [add s i] adds [i] to [s] in place.
    @raise Invalid_argument if [i] is outside the universe. *)
val add : t -> int -> unit

(** [remove s i] removes [i] from [s] in place. *)
val remove : t -> int -> unit

(** [mem s i] is [true] iff [i] is in [s]. *)
val mem : t -> int -> bool

(** [mem_or_false s i] is [mem s i] for [i] in the universe and [false]
    for any [i] outside it — a probe into a set over a prefix of a
    larger universe. *)
val mem_or_false : t -> int -> bool

(** [union_into ~into src] adds every element of [src] to [into];
    returns [true] iff [into] changed.
    @raise Invalid_argument on universe mismatch. *)
val union_into : into:t -> t -> bool

(** [union_prefix_into ~into src] adds every element of [src] to [into],
    where [src]'s universe is a prefix of [into]'s — one word-level pass
    over [src].
    @raise Invalid_argument if [length src > length into]. *)
val union_prefix_into : into:t -> t -> unit

(** [inter a b] is a fresh set holding the intersection. *)
val inter : t -> t -> t

(** [cardinal s] is the number of elements of [s]. *)
val cardinal : t -> int

(** [is_empty s] is [true] iff [s] has no elements. *)
val is_empty : t -> bool

(** [iter f s] applies [f] to the elements of [s] in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s init] folds over elements in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements s] lists the elements of [s] in increasing order. *)
val elements : t -> int list

(** [equal a b] is set equality (universes must match). *)
val equal : t -> t -> bool

(** [subset a b] is [true] iff every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [pp] prints as [{1, 5, 9}]. *)
val pp : Format.formatter -> t -> unit
