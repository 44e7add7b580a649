module G = Chg.Graph
module Engine = Lookup_core.Engine
module Incremental = Lookup_core.Incremental
module Packed = Lookup_core.Packed

type config = { jobs : int }

let default_config = { jobs = 1 }

type served = Compiled | Memoised

let served_string = function Compiled -> "table" | Memoised -> "memo"

type t = {
  name : string;
  config : config;
  inc : Incremental.t Lazy.t;
      (* resident source of truth, mutated in place.  Lazy so that a
         session restored from a snapshot (or one that is never mutated)
         does not pay the row computation at open time: the first
         mutation forces it, over the closure the session opened with.
         Whether it is forced picks the miss rule (see [column]). *)
  store : Table_cache.t;  (* packed columns by member intern id *)
  mutable graph : G.t;  (* = the closure's graph, published per mutation *)
  mutable closure : Chg.Closure.t;  (* the engine's, published per mutation *)
  mutable epoch : int;  (* mutations applied so far *)
  mutable mro : (Mro.variant * Mro.t) list;
      (* linearization tables for the opt-in MRO semantics, one per
         requested variant, over [graph]: rebound across add_member
         (a linearization depends only on the class structure), dropped
         by add_class *)
  member_syms : (string, int) Hashtbl.t;
      (* member name -> dense id; append-only, written only under the
         mutation path's exclusivity.  A name is interned exactly when
         some class declares it. *)
  mutable member_names_arr : string array;  (* id -> name, doubling *)
  mutable member_count : int;
  lookups : Telemetry.Counter.t;
  resolved : Telemetry.Counter.t;
  ambiguous : Telemetry.Counter.t;
  not_found : Telemetry.Counter.t;
  mutations : Telemetry.Counter.t;
  stage_ns : int array;
      (* per-stage wall time of the most recent mutation, indexed like
         [mutation_stages]; written only under the mutation path's
         exclusivity *)
  lock : Mutex.t;
      (* serializes column compilation and MRO table fills under the
         networked server, where read verbs run on several worker
         domains at once.  The store's hit path and the engine-row path
         stay lock-free.  Uncontended on the stdin path. *)
}

let mutation_stages = [ "freeze"; "closure"; "rows"; "columns"; "mro" ]
let st_freeze = 0 and st_closure = 1 and st_rows = 2 and st_columns = 3
and st_mro = 4

(* a stage may run in several pieces; the pieces add up *)
let timed t stage f =
  let t0 = Telemetry.Clock.now_ns () in
  let r = f () in
  t.stage_ns.(stage) <- t.stage_ns.(stage) + Telemetry.Clock.elapsed_ns ~since:t0;
  r

let last_mutation_ns t = List.combine mutation_stages (Array.to_list t.stage_ns)

let intern t name =
  match Hashtbl.find_opt t.member_syms name with
  | Some id -> id
  | None ->
    let id = t.member_count in
    if id >= Array.length t.member_names_arr then begin
      let fresh = Array.make (max 16 (2 * (id + 1))) "" in
      Array.blit t.member_names_arr 0 fresh 0 id;
      t.member_names_arr <- fresh
    end;
    t.member_names_arr.(id) <- name;
    Hashtbl.add t.member_syms name id;
    t.member_count <- id + 1;
    id

(* seed the intern table in first-declaration order — the same order
   {!Lookup_core.Packed.build} and the eager engine use *)
let intern_graph t g =
  G.iter_classes g (fun c ->
      List.iter
        (fun (m : G.member) -> ignore (intern t m.G.m_name))
        (G.members g c))

let make ?(config = default_config) ~name ~epoch g =
  let closure = Chg.Closure.compute g in
  let t =
    { name;
      config;
      inc = lazy (Incremental.of_closure closure);
      store = Table_cache.create ();
      graph = g;
      closure;
      epoch;
      mro = [];
      member_syms = Hashtbl.create 64;
      member_names_arr = [||];
      member_count = 0;
      lookups = Telemetry.Counter.make "lookups";
      resolved = Telemetry.Counter.make "resolved";
      ambiguous = Telemetry.Counter.make "ambiguous";
      not_found = Telemetry.Counter.make "not_found";
      mutations = Telemetry.Counter.make "mutations";
      stage_ns = Array.make (List.length mutation_stages) 0;
      lock = Mutex.create () }
  in
  intern_graph t g;
  t

let create ?config ~name g = make ?config ~name ~epoch:0 g

let restore ?config ~name ~epoch ~columns g =
  let t = make ?config ~name ~epoch g in
  let n = G.num_classes g in
  List.iter
    (fun (m, col) ->
      match Hashtbl.find_opt t.member_syms m with
      | Some id when Packed.column_classes col = n ->
        Table_cache.fill t.store id col
      | _ -> ())
    columns;
  t

let name t = t.name
let graph t = t.graph
let closure t = t.closure
let epoch t = t.epoch
let cache t = t.store

let compiled_columns t =
  Table_cache.columns t.store
  |> List.map (fun (id, col) -> (t.member_names_arr.(id), col))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let count_verdict t = function
  | Some (Engine.Red _) -> Telemetry.Counter.incr t.resolved
  | Some (Engine.Blue _) -> Telemetry.Counter.incr t.ambiguous
  | None -> Telemetry.Counter.incr t.not_found

(* The one read path.  A resident column answers with one array read.
   On a miss the session either compiles the column or declines:
   - while the engine is still lazy (no mutation yet), one Figure-8
     sweep over the closure compiles the member's column, which is kept
     for good — a member is compiled at most once, and nothing boxed
     outlives the sweep;
   - once a mutation has forced the engine, its row answers the query
     (one hash probe) and nothing is compiled: [None] here. *)
let column t id =
  match Table_cache.find t.store id with
  | Some _ as col -> col
  | None when Lazy.is_val t.inc -> None
  | None ->
    Mutex.protect t.lock @@ fun () ->
    (* another domain may have compiled it since our probe *)
    (match Table_cache.peek t.store id with
    | Some _ as col -> col
    | None ->
      let m = t.member_names_arr.(id) in
      let col =
        Packed.pack_column (Engine.column (Engine.build_member t.closure m) m)
      in
      Table_cache.fill t.store id col;
      Some col)

let engine_verdict t cls id =
  Incremental.lookup (Lazy.force t.inc) cls t.member_names_arr.(id)

let lookup t cls member =
  match G.find_opt t.graph cls with
  | None -> Error cls
  | Some c ->
    Telemetry.Counter.incr t.lookups;
    (* a name no class declares is absent everywhere: it is answered
       without compiling or interning anything *)
    let v, served =
      match Hashtbl.find_opt t.member_syms member with
      | None -> (None, Memoised)
      | Some id ->
        (match column t id with
        | Some col -> (Packed.column_get col c, Compiled)
        | None -> (engine_verdict t c id, Memoised))
    in
    count_verdict t v;
    Ok (v, served)

(* ---- the interned-id path ------------------------------------------

   Classes are addressed by graph id (declaration order, append-only by
   construction); members by the session's dense intern ids.  Both are
   what the binary framing carries, so the resolved hot path below is
   int-only: bounds checks, one array read into the published store,
   one packed probe, no hashing.  Its one allocation is the boxed
   [Ok (code, Compiled)] result, 5 minor words per call. *)

let num_member_symbols t = t.member_count
let member_symbol_name t id = t.member_names_arr.(id)

let member_symbols_from t k =
  List.init (t.member_count - k) (fun i -> (k + i, t.member_names_arr.(k + i)))

let member_symbol t name = Hashtbl.find_opt t.member_syms name

(* (epoch, class names, member names) — the symbols verb's payload.
   Both arrays are fresh: the response must not alias the growable
   member store. *)
let symbols t =
  ( t.epoch,
    Array.init (G.num_classes t.graph) (G.name t.graph),
    Array.sub t.member_names_arr 0 t.member_count )

let code_of_verdict = function
  | Some (Engine.Red { Lookup_core.Abstraction.r_ldc; _ }) -> r_ldc
  | Some (Engine.Blue _) -> -2
  | None -> -1

let count_code t code =
  if code >= 0 then Telemetry.Counter.incr t.resolved
  else if code = -2 then Telemetry.Counter.incr t.ambiguous
  else Telemetry.Counter.incr t.not_found

(* [lookup_code t ~cls ~member] — verdict as a resolve code ([-1]
   absent, [-2] ambiguous, else the declaring class id), by interned
   ids.  Counter accounting is identical to {!lookup} for the same
   query. *)
let lookup_code t ~cls ~member =
  if cls < 0 || cls >= G.num_classes t.graph then Error `Bad_class
  else if member < 0 || member >= t.member_count then Error `Bad_member
  else begin
    Telemetry.Counter.incr t.lookups;
    match column t member with
    | Some col ->
      let code = Packed.column_resolve_code col cls in
      count_code t code;
      Ok (code, Compiled)
    | None ->
      let code = code_of_verdict (engine_verdict t cls member) in
      count_code t code;
      Ok (code, Memoised)
  end

(* The opt-in linearized-semantics path: one {!Mro.t} per requested
   variant, computed from the current frozen graph and cached until the
   next mutation (epoch mismatch).  Serialized by the session lock —
   the table itself is immutable once built, and the list cell swap is
   the only write. *)
let mro_table t v =
  Mutex.protect t.lock @@ fun () ->
  match List.assoc_opt v t.mro with
  | Some tbl -> tbl
  | None ->
    let tbl = Mro.compute v t.graph in
    t.mro <- (v, tbl) :: t.mro;
    tbl

let mro_lookup t v cls member =
  match G.find_opt t.graph cls with
  | None -> Error cls
  | Some c ->
    Telemetry.Counter.incr t.lookups;
    let tbl = mro_table t v in
    let verdict = Mro.lookup tbl c member in
    count_verdict t verdict;
    Ok verdict

(* ---- mutations ------------------------------------------------------

   A mutation moves the incremental engine first — the frozen graph
   ({!G.extend} / {!G.with_member}: new outer arrays, shared inner
   ones), the closure ({!Chg.Closure.extend}: one new row, or
   {!Chg.Closure.rebind}: no change at all), then the rows — and
   publishes a copy of the store with the columns it touched repaired
   (the old array is left to readers that still hold it).  Publication
   then points the read-facing state at the engine's new graph and
   closure.  Nothing published earlier changes: every value above is
   persistent. *)

let mutate_class t inc ~cls ~bases ~members =
  let g, _ =
    timed t st_freeze (fun () ->
        G.extend (Incremental.snapshot inc) cls ~bases ~members)
  in
  let cl =
    timed t st_closure (fun () -> Chg.Closure.extend (Incremental.closure inc) g)
  in
  let id = timed t st_rows (fun () -> Incremental.class_added inc cl) in
  List.iter (fun (m : G.member) -> ignore (intern t m.G.m_name)) members;
  t.epoch <- t.epoch + 1;
  Telemetry.Counter.incr t.mutations;
  (* Every resident column gains exactly one entry: the new class's
     verdict, already computed by the incremental row — extension, not
     invalidation. *)
  timed t st_columns (fun () ->
      Table_cache.update t.store t.member_count (fun mid col ->
          Some (Packed.column_append col (engine_verdict t id mid))));
  (* a new class changes the structure linearizations are built from *)
  timed t st_mro (fun () -> t.mro <- []);
  id

let mutate_member t inc ~cls member =
  let g =
    timed t st_freeze (fun () ->
        G.with_member (Incremental.snapshot inc) cls member)
  in
  let cl =
    timed t st_closure (fun () -> Chg.Closure.rebind (Incremental.closure inc) g)
  in
  let rows =
    timed t st_rows (fun () ->
        Incremental.member_added inc cl (G.find g cls) member)
  in
  let id = intern t member.G.m_name in
  t.epoch <- t.epoch + 1;
  Telemetry.Counter.incr t.mutations;
  (* Only the mutated member's column can have changed: a resident one
     is repacked from the engine's rows, every other slot carries over. *)
  let resident = Option.is_some (Table_cache.peek t.store id) in
  timed t st_columns (fun () ->
      Table_cache.update t.store t.member_count (fun mid col ->
          if mid <> id then Some col
          else
            Some
              (Packed.pack_column
                 (Array.init (G.num_classes g) (fun c -> engine_verdict t c id)))));
  (rows, resident)

let publish t inc =
  timed t st_freeze (fun () ->
      t.closure <- Incremental.closure inc;
      t.graph <- Chg.Closure.graph t.closure);
  timed t st_mro (fun () ->
      t.mro <- List.map (fun (v, tbl) -> (v, Mro.rebind tbl t.graph)) t.mro)

(* The engine, forced (on the first mutation) under the rows stage. *)
let engine t =
  Array.fill t.stage_ns 0 (Array.length t.stage_ns) 0;
  timed t st_rows (fun () -> Lazy.force t.inc)

let add_class t ~cls ~bases ~members =
  let inc = engine t in
  let id = mutate_class t inc ~cls ~bases ~members in
  publish t inc;
  id

let add_member t ~cls member =
  let inc = engine t in
  let r = mutate_member t inc ~cls member in
  publish t inc;
  r

let replay t records =
  match records with
  | [] -> Ok ()
  | _ ->
    let inc = engine t in
    let rec go = function
      | [] -> Ok ()
      | m :: rest ->
        (match
           match m with
           | Store.Mutation.Add_class { ac_name; ac_bases; ac_members } ->
             ignore
               (mutate_class t inc ~cls:ac_name ~bases:ac_bases
                  ~members:ac_members)
           | Store.Mutation.Add_member { am_class; am_member } ->
             ignore (mutate_member t inc ~cls:am_class am_member)
         with
        | exception G.Error e -> Error e
        | () -> go rest)
    in
    let result = go records in
    publish t inc;
    result

let counters t =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    [ t.lookups; t.resolved; t.ambiguous; t.not_found; t.mutations ]

let stats_json t =
  let j_counters kvs =
    Chg.Json.Obj (List.map (fun (k, v) -> (k, Chg.Json.Int v)) kvs)
  in
  let hits = Table_cache.hits t.store and misses = Table_cache.misses t.store in
  let hit_ratio_pct =
    if hits + misses = 0 then 0 else 100 * hits / (hits + misses)
  in
  Chg.Json.Obj
    [ ("session", Chg.Json.String t.name);
      ("classes", Chg.Json.Int (G.num_classes t.graph));
      ("edges", Chg.Json.Int (G.num_edges t.graph));
      ("members", Chg.Json.Int (List.length (G.member_names t.graph)));
      ("epoch", Chg.Json.Int t.epoch);
      ("domains", Chg.Json.Int t.config.jobs);
      ("counters", j_counters (counters t));
      ( "table",
        Chg.Json.Obj
          (("entries", Chg.Json.Int (Table_cache.entries t.store))
           :: ("bytes", Chg.Json.Int (Table_cache.bytes t.store))
           :: ("hit_ratio_pct", Chg.Json.Int hit_ratio_pct)
           :: List.map
                (fun (k, v) -> (k, Chg.Json.Int v))
                (Table_cache.counters t.store)
           @ [ ( "columns",
                 Chg.Json.List
                   (List.map
                      (fun (m, col) ->
                        Chg.Json.Obj
                          [ ("member", Chg.Json.String m);
                            ("bytes", Chg.Json.Int (Packed.column_bytes col)) ])
                      (compiled_columns t)) ) ]) );
      (* "memo" answers come from the engine's rows once it is forced *)
      ( "memo",
        Chg.Json.Obj [ ("engine_forced", Chg.Json.Bool (Lazy.is_val t.inc)) ] )
    ]

(* Exposition: every per-session series carries a session label, so the
   registry holds all open sessions side by side. *)
let register t registry =
  let labels = [ ("session", t.name) ] in
  List.iter
    (fun c ->
      Telemetry.Registry.attach_counter registry ~labels
        ~help:
          (Printf.sprintf "Session counter %s." (Telemetry.Counter.name c))
        (Printf.sprintf "cxxlookup_session_%s_total"
           (Telemetry.Counter.name c))
        c)
    [ t.lookups; t.resolved; t.ambiguous; t.not_found; t.mutations ];
  Telemetry.Registry.gauge registry ~labels
    ~help:"Mutations applied to the session so far."
    "cxxlookup_session_epoch"
    (fun () -> t.epoch);
  Telemetry.Registry.gauge registry ~labels
    ~help:"Classes in the session's hierarchy."
    "cxxlookup_session_classes"
    (fun () -> G.num_classes t.graph);
  Table_cache.register t.store ~labels registry
