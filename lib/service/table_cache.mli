(** The session's verdict store: one packed column per member, indexed
    by the session's member intern id.

    A column is the Figure-8 output for one member name over {e every}
    class — the paper's lookup[*, m] — held in the packed representation
    ({!Lookup_core.Packed}): two flat int arrays, so a lookup decodes
    one tagged immediate with no hashing and no combine work.

    The store is one [column option array], published atomically.  The
    hit path ({!find}) reads the published array lock-free from any
    domain.  {!fill} writes a slot of the current array in place under
    the owner's lock: a reader racing it sees either [None] (and falls
    back to the owner's miss path) or the immutable column.  {!update}
    copies the array and publishes the copy — the mutation path, which
    the owner runs with readers excluded.  Nothing is ever evicted: the
    store holds at most one column per declared member name.

    Which slots get filled, and how mutations repair them, is the
    session's job (see DESIGN.md §6). *)

type column = Lookup_core.Packed.column

type t

(** An empty store. *)
val create : unit -> t

(** [find t id] is member [id]'s column, counting a hit — or [None],
    counting a miss.  Lock-free. *)
val find : t -> int -> column option

(** [peek t id] probes like {!find} with no counter effect — the
    re-probe under the owner's lock. *)
val peek : t -> int -> column option

(** [fill t id col] installs [id]'s column (growing the array if [id] is
    past its end) and counts one compiled column.  Under the owner's
    lock. *)
val fill : t -> int -> column -> unit

(** [update t n f] publishes a fresh [n]-slot array in which each
    resident column [col] at [id < n] becomes [f id col] ([None] drops
    it) and every other slot is empty.  The array readers held before
    is left as it was. *)
val update : t -> int -> (int -> column -> column option) -> unit

(** [columns t] — every resident [(id, column)], by increasing id. *)
val columns : t -> (int * column) list

(** [entries t] is the number of resident columns. *)
val entries : t -> int

(** [bytes t] is the real resident size of all columns
    ({!Lookup_core.Packed.column_bytes}). *)
val bytes : t -> int

(** [counters t] — [table_hits], [table_misses], [table_promotions]
    (columns compiled or restored) and [table_evictions], in that order.
    The store never evicts: [table_evictions] stays 0, and is kept so
    that readers of these keys keep working. *)
val counters : t -> (string * int) list

val hits : t -> int
val misses : t -> int

(** [register t ?labels registry] attaches the counters (as
    [cxxlookup_table_<name>_total]) and live-size gauges
    ([cxxlookup_table_entries] / [_bytes]) to [registry], all under
    [labels] (typically [[("session", name)]]). *)
val register :
  t -> ?labels:(string * string) list -> Telemetry.Registry.t -> unit
