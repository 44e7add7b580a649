module Packed = Lookup_core.Packed

type column = Packed.column

type t = {
  published : column option array Atomic.t;
      (* slots by member intern id.  Filled in place under the owner's
         lock, replaced wholesale by [update]; read lock-free. *)
  hits : Telemetry.Counter.t;
  misses : Telemetry.Counter.t;
  promotions : Telemetry.Counter.t;
  evictions : Telemetry.Counter.t;
}

let create () =
  { published = Atomic.make [||];
    hits = Telemetry.Counter.make "table_hits";
    misses = Telemetry.Counter.make "table_misses";
    promotions = Telemetry.Counter.make "table_promotions";
    evictions = Telemetry.Counter.make "table_evictions" }

let peek t id =
  let a = Atomic.get t.published in
  if id < Array.length a then Array.unsafe_get a id else None

let find t id =
  match peek t id with
  | Some _ as col ->
    Telemetry.Counter.incr t.hits;
    col
  | None ->
    Telemetry.Counter.incr t.misses;
    None

let fill t id col =
  let a = Atomic.get t.published in
  let a =
    if id < Array.length a then a
    else begin
      let grown = Array.make (max (id + 1) (2 * Array.length a)) None in
      Array.blit a 0 grown 0 (Array.length a);
      Atomic.set t.published grown;
      grown
    end
  in
  a.(id) <- Some col;
  Telemetry.Counter.incr t.promotions

let update t n f =
  let a = Atomic.get t.published in
  let next = Array.make n None in
  Array.iteri
    (fun id slot ->
      match slot with
      | Some col when id < n -> next.(id) <- f id col
      | _ -> ())
    a;
  Atomic.set t.published next

let columns t =
  let a = Atomic.get t.published in
  List.filter_map
    (fun id -> Option.map (fun col -> (id, col)) a.(id))
    (List.init (Array.length a) Fun.id)

let entries t =
  Array.fold_left
    (fun n slot -> if Option.is_some slot then n + 1 else n)
    0 (Atomic.get t.published)

let bytes t =
  Array.fold_left
    (fun n slot ->
      match slot with Some col -> n + Packed.column_bytes col | None -> n)
    0 (Atomic.get t.published)

let counters t =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    [ t.hits; t.misses; t.promotions; t.evictions ]

let hits t = Telemetry.Counter.value t.hits
let misses t = Telemetry.Counter.value t.misses

(* Exposition: cxxlookup_table_*_total counters plus live-size gauges,
   labelled by the owning session so several stores coexist in one
   registry. *)
let register t ?(labels = []) registry =
  List.iter
    (fun c ->
      Telemetry.Registry.attach_counter registry ~labels
        ~help:
          (Printf.sprintf "Verdict store counter %s."
             (Telemetry.Counter.name c))
        (Printf.sprintf "cxxlookup_%s_total" (Telemetry.Counter.name c))
        c)
    [ t.hits; t.misses; t.promotions; t.evictions ];
  Telemetry.Registry.gauge registry ~labels
    ~help:"Resident compiled columns." "cxxlookup_table_entries"
    (fun () -> entries t);
  Telemetry.Registry.gauge registry ~labels
    ~help:"Resident packed column bytes." "cxxlookup_table_bytes"
    (fun () -> bytes t)
