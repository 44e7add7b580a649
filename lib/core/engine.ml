open Abstraction

type verdict = Red of Abstraction.red | Blue of Abstraction.lv list

type entry = Absent | Verdict of verdict

type t = {
  g : Chg.Graph.t;
  cl : Chg.Closure.t;
  member_ids : (string, int) Hashtbl.t;
  member_names : string array;
  table : entry array array;  (* table.(c).(mid) *)
  witness_table : Subobject.Path.t option array array;  (* empty if disabled *)
  member_sets : Chg.Bitset.t array;  (* Members[C] as member-id sets *)
}

(* Both inputs are kept sorted by [lv_compare] and deduplicated (the
   representation invariant of every Blue set), so the union is a single
   linear merge — no [List.sort_uniq] over the concatenation, which
   allocated and re-sorted already-sorted data on every combine. *)
let rec blue_union s1 s2 =
  match (s1, s2) with
  | [], s | s, [] -> s
  | a :: t1, b :: t2 ->
    let c = lv_compare a b in
    if c < 0 then a :: blue_union t1 s2
    else if c > 0 then b :: blue_union s1 t2
    else a :: blue_union t1 t2

(* The one verdict text ([red (C, Ω)], [red (C, {A, Ω})], [blue {A, B}]),
   built without Format: every served lookup answer carries it. *)
let verdict_string g v =
  let buf = Buffer.create 32 in
  let add = Buffer.add_string buf in
  let set lvs =
    add "{";
    List.iteri (fun i lv -> if i > 0 then add ", "; add (lv_name g lv)) lvs;
    add "}"
  in
  (match v with
  | Red r ->
    add "red (";
    add (Chg.Graph.name g r.r_ldc);
    add ", ";
    (match r.r_lvs with [ lv ] -> add (lv_name g lv) | lvs -> set lvs);
    add ")"
  | Blue s ->
    add "blue ";
    set s);
  Buffer.contents buf

let pp_verdict g ppf v = Format.pp_print_string ppf (verdict_string g v)

(* One combine step: the verdict for a class from its direct bases'
   verdicts, already pushed through their edges.

   This is Figure 8 lines [14]-[44] reformulated as an explicit
   maximal-set computation, which both matches the paper's candidate scan
   when no static members are involved and handles the Section 6
   extension correctly.  The reformulation is needed because a
   statically-resolved lookup stands for a *group* of subobjects (same
   ldc, different leastVirtual); a definition arriving later may dominate
   some group members and not others, so a single representative (as a
   literal reading of Section 6 would keep) is unsound — the test suite's
   random-static oracle property exposes this.

   Incoming red verdicts are expanded into individual (ldc, lv) dominance
   atoms.  Two atoms with equal (L, V), V ≠ Ω, denote the same subobject
   (their fixed parts are maximal definitions in lookup(V, m) sharing the
   ldc L, hence the same static entity) and are merged; equal (L, Ω)
   atoms from different edges denote distinct subobjects and are kept.

   The verdict is Red iff the maximal atoms all share one ldc L, the
   group is a singleton or m is static in L, and every blue abstraction
   is dominated by some maximal atom.  Otherwise Blue carries the lvs of
   the maximal atoms plus the undominated blues (dominated definitions
   may be dropped by Corollary 1).

   Each dominates1/dominates_blue call is one Lemma-4 constant-time
   probe; [metrics] counts them, along with the verdict colors and the
   red→blue demotions that drive the worst case. *)
let combine ?(metrics = Metrics.disabled) ~vbase ~is_static_at incoming =
  let dom1 a b =
    Metrics.bump metrics metrics.dominance_probes;
    dominates1 vbase a b
  in
  let dom_blue lvs b =
    Metrics.bump metrics metrics.dominance_probes;
    dominates_blue vbase lvs b
  in
  let atoms = ref [] in  (* (ldc, lv, witness) with (l, v<>Ω) deduped *)
  let blues = ref [] in
  List.iter
    (fun (v, w) ->
      match v with
      | Red r ->
        List.iter
          (fun lv ->
            let duplicate =
              lv <> Omega
              && List.exists
                   (fun (l', lv', _) -> l' = r.r_ldc && lv_equal lv' lv)
                   !atoms
            in
            if not duplicate then atoms := (r.r_ldc, lv, w) :: !atoms)
          r.r_lvs
      | Blue s -> blues := blue_union !blues s)
    incoming;
  let atoms = List.rev !atoms in
  let strictly_dominated (l, v, _) =
    List.exists
      (fun (l', v', _) ->
        dom1 (l', v') (l, v) && not (dom1 (l, v) (l', v')))
      atoms
  in
  let maximal = List.filter (fun a -> not (strictly_dominated a)) atoms in
  let resolved =
    match maximal with
    | [] -> None
    | (l, _, w) :: rest ->
      if not (List.for_all (fun (l', _, _) -> l' = l) rest) then None
      else if rest <> [] && not (is_static_at l) then None
      else begin
        let lvs =
          List.sort_uniq lv_compare (List.map (fun (_, v, _) -> v) maximal)
        in
        if List.for_all (dom_blue (l, lvs)) !blues then
          Some ({ r_ldc = l; r_lvs = lvs }, w)
        else None
      end
  in
  match resolved with
  | Some (r, w) ->
    Metrics.bump metrics metrics.red_verdicts;
    (Red r, w)
  | None ->
    let max_lvs =
      List.sort_uniq lv_compare (List.map (fun (_, v, _) -> v) maximal)
    in
    let undominated_blues =
      List.filter
        (fun b ->
          not
            (List.exists (fun (l, v, _) -> dom_blue (l, [ v ]) b) maximal))
        !blues
    in
    Metrics.bump metrics metrics.blue_verdicts;
    if
      Metrics.enabled metrics
      && List.exists (function Red _, _ -> true | _ -> false) incoming
    then Metrics.bump metrics metrics.red_demotions;
    (Blue (blue_union max_lvs undominated_blues), None)

let combine_incoming = combine

let build_general ?(static_rule = true) ?(witnesses = false)
    ?(metrics = Metrics.disabled) cl ~only =
  Metrics.time_build metrics @@ fun () ->
  let g = Chg.Closure.graph cl in
  let n = Chg.Graph.num_classes g in
  let sink = metrics.Metrics.sink in
  let tracing = Telemetry.Sink.enabled sink in
  (* the trace brackets the two phases, which never nest *)
  let phase event name =
    if tracing then
      Telemetry.Sink.emit sink event
        [ ("span", Telemetry.Event.Str name); ("depth", Telemetry.Event.Int 0) ]
  in
  (* Intern member names.  When [only] restricts to a single member, the
     universe is that one name. *)
  let member_ids = Hashtbl.create 64 in
  let rev_names = ref [] in
  let intern name =
    match Hashtbl.find_opt member_ids name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length member_ids in
      Hashtbl.add member_ids name id;
      rev_names := name :: !rev_names;
      id
  in
  phase "span_begin" "intern";
  (match only with
  | Some m -> ignore (intern m)
  | None -> List.iter (fun m -> ignore (intern m)) (Chg.Graph.member_names g));
  phase "span_end" "intern";
  let num_members = Hashtbl.length member_ids in
  let member_names = Array.of_list (List.rev !rev_names) in
  let member_sets = Array.init n (fun _ -> Chg.Bitset.create num_members) in
  let table = Array.init n (fun _ -> Array.make num_members Absent) in
  let witness_table =
    if witnesses then Array.init n (fun _ -> Array.make num_members None)
    else [||]
  in
  let wanted name =
    match only with None -> true | Some m -> String.equal m name
  in
  let is_static_at mid l =
    static_rule
    &&
    match Chg.Graph.find_member g l member_names.(mid) with
    | Some mem -> Chg.Graph.member_is_static_like mem
    | None -> false
  in
  let class_str c = Telemetry.Event.Str (Chg.Graph.name g c) in
  let verdict_str v = Telemetry.Event.Str (verdict_string g v) in
  (* Class ids are topological (bases before derived): one increasing
     pass implements the paper's traversal. *)
  phase "span_begin" "propagate";
  for c = 0 to n - 1 do
    Metrics.bump metrics metrics.Metrics.classes_visited;
    (* Members[C] := M[C] ∪ (∪_X Members[X])   (Figure 8 lines [7]-[9]) *)
    List.iter
      (fun (mem : Chg.Graph.member) ->
        if wanted mem.m_name then
          Chg.Bitset.add member_sets.(c) (intern mem.m_name))
      (Chg.Graph.members g c);
    List.iter
      (fun (b : Chg.Graph.base) ->
        ignore
          (Chg.Bitset.union_into ~into:member_sets.(c)
             member_sets.(b.b_class)))
      (Chg.Graph.bases g c);
    if tracing then
      Telemetry.Sink.emit sink "visit"
        [ ("class", class_str c);
          ("id", Telemetry.Event.Int c);
          ("members",
           Telemetry.Event.Int (Chg.Bitset.cardinal member_sets.(c))) ];
    Chg.Bitset.iter
      (fun mid ->
        Metrics.bump metrics metrics.Metrics.members_processed;
        let name = member_names.(mid) in
        if Chg.Graph.declares g c name then begin
          (* Lines [11]-[12]: a generated definition kills everything. *)
          table.(c).(mid) <- Verdict (Red { r_ldc = c; r_lvs = [ Omega ] });
          Metrics.bump metrics metrics.Metrics.declared_kills;
          Metrics.bump metrics metrics.Metrics.red_verdicts;
          if tracing then
            Telemetry.Sink.emit sink "declare"
              [ ("class", class_str c);
                ("member", Telemetry.Event.Str name) ];
          if witnesses then
            witness_table.(c).(mid) <- Some (Subobject.Path.trivial c)
        end
        else begin
          let incoming =
            List.concat_map
              (fun (b : Chg.Graph.base) ->
                let x = b.b_class in
                Metrics.bump metrics metrics.Metrics.edge_traversals;
                if not (Chg.Bitset.mem member_sets.(x) mid) then []
                else begin
                  let contribution =
                    match table.(x).(mid) with
                    | Absent -> []
                    | Verdict (Red r) ->
                      Metrics.bump_n metrics metrics.Metrics.o_extensions
                        (List.length r.r_lvs);
                      let w =
                        if witnesses then
                          Option.map
                            (fun p -> Subobject.Path.extend p b.b_kind c)
                            witness_table.(x).(mid)
                        else None
                      in
                      [ (Red (extend_red r x b.b_kind), w) ]
                    | Verdict (Blue s) ->
                      Metrics.bump_n metrics metrics.Metrics.o_extensions
                        (List.length s);
                      [ (Blue (extend_blue s x b.b_kind), None) ]
                  in
                  (if tracing then
                     match contribution with
                     | [] -> ()
                     | (v, _) :: _ ->
                       Telemetry.Sink.emit sink "flow"
                         [ ("from", class_str x);
                           ("to", class_str c);
                           ("via",
                            Telemetry.Event.Str
                              (match b.b_kind with
                              | Chg.Graph.Virtual -> "virtual"
                              | Chg.Graph.Non_virtual -> "non-virtual"));
                           ("member", Telemetry.Event.Str name);
                           ("verdict", verdict_str v) ]);
                  contribution
                end)
              (Chg.Graph.bases g c)
          in
          let v, w =
            combine ~metrics ~vbase:(Chg.Closure.is_virtual_base cl)
              ~is_static_at:(is_static_at mid) incoming
          in
          table.(c).(mid) <- Verdict v;
          if tracing then
            Telemetry.Sink.emit sink "verdict"
              [ ("class", class_str c);
                ("member", Telemetry.Event.Str name);
                ("color",
                 Telemetry.Event.Str
                   (match v with Red _ -> "red" | Blue _ -> "blue"));
                ("verdict", verdict_str v) ];
          if witnesses then witness_table.(c).(mid) <- w
        end)
      member_sets.(c)
  done;
  phase "span_end" "propagate";
  { g; cl; member_ids; member_names; table; witness_table; member_sets }

let build ?static_rule ?witnesses ?metrics cl =
  build_general ?static_rule ?witnesses ?metrics cl ~only:None

let build_member ?static_rule ?witnesses ?metrics cl m =
  build_general ?static_rule ?witnesses ?metrics cl ~only:(Some m)

let lookup t c m =
  match Hashtbl.find_opt t.member_ids m with
  | None -> None
  | Some mid ->
    (match t.table.(c).(mid) with Absent -> None | Verdict v -> Some v)

let witness t c m =
  if Array.length t.witness_table = 0 then None
  else
    match Hashtbl.find_opt t.member_ids m with
    | None -> None
    | Some mid -> t.witness_table.(c).(mid)

let resolves_to t c m =
  match lookup t c m with
  | Some (Red r) -> Some r.r_ldc
  | Some (Blue _) | None -> None

let members t c =
  List.map (fun mid -> t.member_names.(mid))
    (Chg.Bitset.elements t.member_sets.(c))

let graph t = t.g
let closure t = t.cl

let member_universe t = Array.copy t.member_names

let column t m =
  let n = Chg.Graph.num_classes t.g in
  match Hashtbl.find_opt t.member_ids m with
  | None -> Array.make n None
  | Some mid ->
    Array.init n (fun c ->
        match t.table.(c).(mid) with Absent -> None | Verdict v -> Some v)

(* Rebuild an engine value from per-member columns (the packed
   representation's [to_engine] path).  The member sets are implied by
   the table: a name is in Members[C] exactly when its entry is not
   Absent — the build loop writes a verdict for every member of
   member_sets.(c) and nothing else. *)
let of_columns cl ~names ~columns =
  let g = Chg.Closure.graph cl in
  let n = Chg.Graph.num_classes g in
  let num_members = Array.length names in
  if Array.length columns <> num_members then
    invalid_arg "Engine.of_columns: names/columns length mismatch";
  let member_ids = Hashtbl.create (max 16 num_members) in
  Array.iteri (fun mid name -> Hashtbl.replace member_ids name mid) names;
  let member_sets = Array.init n (fun _ -> Chg.Bitset.create num_members) in
  let table = Array.init n (fun _ -> Array.make num_members Absent) in
  Array.iteri
    (fun mid col ->
      if Array.length col <> n then
        invalid_arg "Engine.of_columns: column length mismatch";
      Array.iteri
        (fun c v ->
          match v with
          | None -> ()
          | Some v ->
            table.(c).(mid) <- Verdict v;
            Chg.Bitset.add member_sets.(c) mid)
        col)
    columns;
  { g;
    cl;
    member_ids;
    member_names = Array.copy names;
    table;
    witness_table = [||];
    member_sets }

let agrees_with_spec t ~spec_verdict c m =
  match (lookup t c m, spec_verdict) with
  | None, Subobject.Spec.Undeclared -> true
  | Some (Red r), Subobject.Spec.Resolved p ->
    let l = Subobject.Path.ldc p in
    let spec_lv =
      match Subobject.Path.least_virtual p with
      | None -> Omega
      | Some v -> Lv v
    in
    (* The spec returns one representative of the winning group; the
       engine's group must contain its abstraction. *)
    r.r_ldc = l && List.exists (lv_equal spec_lv) r.r_lvs
  | Some (Blue _), Subobject.Spec.Ambiguous _ -> true
  | _ -> false
