module G = Chg.Graph
module Closure = Chg.Closure
module Engine = Lookup_core.Engine
module Abs = Lookup_core.Abstraction
module D = Frontend.Diagnostic
module J = Chg.Json

module Rule = struct
  type id =
    | Ambiguous_lookup
    | Replicated_base
    | Fragile_dominance
    | Dead_member
    | Virtualize_fixit
    | Compiler_divergence
    | Mro_unsolvable
    | Semantics_divergence
    | Linearization_sensitive

  (* New rules are appended so the [index] of every pre-existing rule —
     and with it the SARIF [ruleIndex] of every old finding — is
     stable across releases. *)
  let all =
    [ Ambiguous_lookup;
      Replicated_base;
      Fragile_dominance;
      Dead_member;
      Virtualize_fixit;
      Compiler_divergence;
      Mro_unsolvable;
      Semantics_divergence;
      Linearization_sensitive ]

  (* The cross-semantics rules are strictly opt-in (via --rules or the
     protocol), keeping the default text/JSON output byte-compatible. *)
  let default_rules =
    [ Ambiguous_lookup;
      Replicated_base;
      Fragile_dominance;
      Dead_member;
      Virtualize_fixit;
      Compiler_divergence ]

  let index = function
    | Ambiguous_lookup -> 0
    | Replicated_base -> 1
    | Fragile_dominance -> 2
    | Dead_member -> 3
    | Virtualize_fixit -> 4
    | Compiler_divergence -> 5
    | Mro_unsolvable -> 6
    | Semantics_divergence -> 7
    | Linearization_sensitive -> 8

  let to_string = function
    | Ambiguous_lookup -> "ambiguous-lookup"
    | Replicated_base -> "replicated-base"
    | Fragile_dominance -> "fragile-dominance"
    | Dead_member -> "dead-member"
    | Virtualize_fixit -> "virtualize-fix-it"
    | Compiler_divergence -> "compiler-divergence"
    | Mro_unsolvable -> "mro-unsolvable"
    | Semantics_divergence -> "semantics-divergence"
    | Linearization_sensitive -> "linearization-sensitive"

  let of_string = function
    | "ambiguous-lookup" -> Some Ambiguous_lookup
    | "replicated-base" -> Some Replicated_base
    | "fragile-dominance" -> Some Fragile_dominance
    | "dead-member" -> Some Dead_member
    | "virtualize-fix-it" -> Some Virtualize_fixit
    | "compiler-divergence" -> Some Compiler_divergence
    | "mro-unsolvable" -> Some Mro_unsolvable
    | "semantics-divergence" -> Some Semantics_divergence
    | "linearization-sensitive" -> Some Linearization_sensitive
    | _ -> None

  let severity = function
    | Ambiguous_lookup -> D.Error
    | Replicated_base | Fragile_dominance | Mro_unsolvable
    | Semantics_divergence ->
      D.Warning
    | Dead_member | Virtualize_fixit | Compiler_divergence
    | Linearization_sensitive ->
      D.Note

  let category = function
    | Ambiguous_lookup -> "correctness"
    | Replicated_base -> "layout"
    | Fragile_dominance -> "robustness"
    | Dead_member -> "hygiene"
    | Virtualize_fixit -> "refactoring"
    | Compiler_divergence -> "portability"
    | Mro_unsolvable | Semantics_divergence | Linearization_sensitive ->
      "cross-semantics"

  let short_description = function
    | Ambiguous_lookup ->
      "Member lookup is ambiguous: the definition set has incomparable \
       dominant subobjects."
    | Replicated_base ->
      "A non-virtual base is replicated: the object contains multiple \
       copies of it (paper Figure 1)."
    | Fragile_dominance ->
      "Lookup resolves only through the dominance rule; a qualified name \
       would make the choice explicit."
    | Dead_member ->
      "The declaration is never the result of member lookup in any \
       derived class."
    | Virtualize_fixit ->
      "Making one inheritance edge virtual would resolve this ambiguity \
       without changing any other lookup."
    | Compiler_divergence ->
      "A real compiler baseline (g++ 2.7 or Eiffel topological order) \
       silently answers this lookup differently."
    | Mro_unsolvable ->
      "The class has no C3 linearization: its precedence constraints are \
       cyclic (a linearized language rejects the class outright)."
    | Semantics_divergence ->
      "C++ dominance lookup and C3 linearized lookup answer this member \
       differently: the hierarchy's meaning depends on the language."
    | Linearization_sensitive ->
      "The documented MRO variants (C3, Python 2.2, Dylan) disagree on \
       this lookup among themselves."
end

type finding = {
  f_rule : Rule.id;
  f_class : string;
  f_member : string option;
  f_diag : D.t;
  f_baseline : string option;
      (* which compiler baseline / semantics diverged, for the SARIF
         property bag: "topo", "gxx-buggy", "gxx-fixed", "c3" *)
}

type locator = cls:string -> member:string option -> Frontend.Loc.t option

let no_locs ~cls:_ ~member:_ = None

type config = {
  rules : Rule.id list;
  spec_witness_limit : int;
  gxx_limit : int;
  virtualize_limit : int;
}

let default_config =
  { rules = Rule.default_rules;
    spec_witness_limit = 512;
    gxx_limit = 2048;
    virtualize_limit = 128 }

let valid_rule_ids () =
  String.concat ", " (List.map Rule.to_string Rule.all @ [ "all"; "default" ])

let parse_rules s =
  let ids = String.split_on_char ',' s |> List.map String.trim in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | "all" :: rest -> go (List.rev_append Rule.all acc) rest
    | "default" :: rest -> go (List.rev_append Rule.default_rules acc) rest
    | id :: rest ->
      (match Rule.of_string id with
      | Some r -> go (r :: acc) rest
      | None ->
        Error
          (Printf.sprintf "unknown lint rule '%s' (valid: %s)" id
             (valid_rule_ids ())))
  in
  match go [] ids with
  | Ok [] -> Error "empty rule list"
  | r -> r

(* {1 Telemetry} *)

type metrics = {
  enabled : bool;
  fired : Telemetry.Counter.t array;  (* indexed by [Rule.index] *)
  pairs_checked : Telemetry.Counter.t;
  variant_builds : Telemetry.Counter.t;
  gxx_skipped : Telemetry.Counter.t;
}

let make_metrics enabled =
  { enabled;
    fired =
      Array.of_list
        (List.map
           (fun r -> Telemetry.Counter.make ("lint_" ^ Rule.to_string r))
           Rule.all);
    pairs_checked = Telemetry.Counter.make "lint_pairs_checked";
    variant_builds = Telemetry.Counter.make "lint_variant_builds";
    gxx_skipped = Telemetry.Counter.make "lint_gxx_skipped" }

let create_metrics () = make_metrics true
let disabled = make_metrics false

let metrics_counters m =
  List.map
    (fun c -> (Telemetry.Counter.name c, Telemetry.Counter.value c))
    (Array.to_list m.fired
    @ [ m.pairs_checked; m.variant_builds; m.gxx_skipped ])

(* {1 Graph variants}

   The fragile-dominance and virtualize rules re-run the engine on a
   modified hierarchy.  Rebuilding through the public builder in
   declaration order preserves every class id, so verdicts of the
   variant are directly comparable to the original. *)

let rebuild ?(base_kind = fun ~derived:_ ~base:_ kind -> kind)
    ?(keep_member = fun ~cls:_ _ -> true) g =
  let b = G.create_builder () in
  List.iter
    (fun c ->
      let bases =
        List.map
          (fun (e : G.base) ->
            ( G.name g e.b_class,
              base_kind ~derived:c ~base:e.b_class e.b_kind,
              e.b_access ))
          (G.bases g c)
      in
      let members = List.filter (keep_member ~cls:c) (G.members g c) in
      ignore (G.add_class b (G.name g c) ~bases ~members))
    (G.classes g);
  G.freeze b

let without_member g ~cls ~member =
  rebuild
    ~keep_member:(fun ~cls:c (m : G.member) ->
      not (c = cls && m.m_name = member))
    g

let virtualize_edges g ~base:x ~derived:ys =
  rebuild
    ~base_kind:(fun ~derived:y ~base:b kind ->
      if b = x && List.mem y ys then G.Virtual else kind)
    g

(* [bypasses g ~lv:x ~winner:l ~context:c] — there is a derivation path
   from the shared virtual base [x] down to [c] whose first edge is
   virtual and which never passes through the dominating class [l]: the
   dominated definition stays visible along a route the winner does not
   control, which is what makes dominance-only resolution fragile. *)
let bypasses g ~lv:x ~winner:l ~context:c =
  let memo = Array.make (G.num_classes g) 0 in
  (* 0 unknown, 1 reaches, 2 does not *)
  let rec reaches y =
    y = c
    || y <> l
       &&
       match memo.(y) with
       | 1 -> true
       | 2 -> false
       | _ ->
         memo.(y) <- 2;
         let r = List.exists (fun (z, _) -> reaches z) (G.derived g y) in
         if r then memo.(y) <- 1;
         r
  in
  List.exists
    (fun (z, kind) -> kind = G.Virtual && z <> l && reaches z)
    (G.derived g x)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* {1 The pass} *)

let fdiag rule ?loc ?fixit fmt =
  let mk =
    match Rule.severity rule with
    | D.Error -> D.error
    | D.Warning -> D.warning
    | D.Note -> D.note
  in
  mk ?loc ~rule:(Rule.to_string rule) ?fixit fmt

let pp_names g ppf cs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf c -> Format.fprintf ppf "'%s'" (G.name g c))
    ppf cs

let pp_lvs g ppf lvs =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (Abs.pp_lv g))
    lvs

(* Rules whose logic is specific to C++ subobject semantics (replicated
   subobjects, dominance, virtual-edge rewrites, C++ compiler baselines):
   they are skipped when the pass runs under a linearized semantics. *)
let cpp_only = function
  | Rule.Replicated_base | Rule.Fragile_dominance | Rule.Virtualize_fixit
  | Rule.Compiler_divergence ->
    true
  | Rule.Ambiguous_lookup | Rule.Dead_member | Rule.Mro_unsolvable
  | Rule.Semantics_divergence | Rule.Linearization_sensitive ->
    false

let run ?(config = default_config) ?(semantics = Mro.Cpp) ?(locs = no_locs)
    ?(metrics = disabled) ?(jobs = 1) cl =
  let g = Closure.graph cl in
  let cpp = semantics = Mro.Cpp in
  (* the rules read verdicts and Members[C], never witness paths, so the
     packed parallel build is lossless here *)
  let cpp_engine =
    lazy
      (if jobs <= 1 then Engine.build cl
       else Lookup_core.Packed.to_engine (Lookup_core.Packed.build ~jobs cl))
  in
  let engine =
    match semantics with
    | Mro.Cpp -> Lazy.force cpp_engine
    | Mro.Linearized v -> Mro.engine cl v
  in
  let counts = Subobject.Count.table cl in
  let enabled r = List.mem r config.rules && not (cpp_only r && not cpp) in
  let out = ref [] in
  let push ?baseline rule cls member diag =
    if metrics.enabled then Telemetry.Counter.incr metrics.fired.(Rule.index rule);
    out :=
      { f_rule = rule;
        f_class = G.name g cls;
        f_member = member;
        f_diag = diag;
        f_baseline = baseline }
      :: !out
  in
  let loc_of cls member =
    locs ~cls:(G.name g cls) ~member
  in
  (* One scan over every contained (class, member) pair feeds all the
     verdict-shaped rules: the ambiguous set and, per (member, winner)
     pair, the contexts resolved by a class other than themselves. *)
  let ambiguous = ref [] in
  let winners : (string * G.class_id, G.class_id list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          if metrics.enabled then Telemetry.Counter.incr metrics.pairs_checked;
          match Engine.lookup engine c m with
          | None -> ()
          | Some (Engine.Blue lvs) -> ambiguous := (c, m, lvs) :: !ambiguous
          | Some (Engine.Red r) ->
            let l = r.Abs.r_ldc in
            if l <> c then begin
              match Hashtbl.find_opt winners (m, l) with
              | Some cs -> cs := c :: !cs
              | None -> Hashtbl.add winners (m, l) (ref [ c ])
            end)
        (Engine.members engine c))
    (G.classes g);
  let ambiguous = List.rev !ambiguous in

  (* ambiguous-lookup: incomparable dominants in Defns(C,m).  Witness
     paths come from the executable spec when the subobject count allows
     the exponential enumeration; otherwise the Blue abstraction's
     leastVirtual set stands in. *)
  if enabled Rule.Ambiguous_lookup then
    List.iter
      (fun (c, m, lvs) ->
        let witness =
          (* spec witness paths describe C++ subobjects; under a
             linearized semantics the generic message stands in *)
          if cpp && counts.(c) <= config.spec_witness_limit then
            match Subobject.Spec.lookup_static g c m with
            | Subobject.Spec.Ambiguous reps ->
              Format.asprintf "candidate definition paths: %s"
                (String.concat "; "
                   (List.map (Subobject.Path.to_string g) reps))
            | Subobject.Spec.Resolved _ | Subobject.Spec.Undeclared ->
              Format.asprintf "incomparable definitions with leastVirtual %a"
                (pp_lvs g) lvs
          else
            Format.asprintf "incomparable definitions with leastVirtual %a"
              (pp_lvs g) lvs
        in
        push Rule.Ambiguous_lookup c (Some m)
          (fdiag Rule.Ambiguous_lookup
             ?loc:(loc_of c (Some m))
             "request for member '%s' is ambiguous in '%s'; %s" m
             (G.name g c) witness))
      ambiguous;

  (* replicated-base: the Figure 1 situation — a non-virtual repeated
     base gives the object several copies of the base subobject. *)
  if enabled Rule.Replicated_base then
    List.iter
      (fun c ->
        Chg.Bitset.iter
          (fun x ->
            let copies = Subobject.Count.copies_of cl ~base:x ~within:c in
            if copies > 1 then begin
              let copies_text =
                if copies = max_int then "overflow-many"
                else string_of_int copies
              in
              push Rule.Replicated_base c None
                (fdiag Rule.Replicated_base
                   ?loc:(loc_of c None)
                   "a '%s' object contains %s distinct '%s' subobjects \
                    (replicated non-virtual base); members of '%s' are \
                    ambiguous or must be reached by qualified paths"
                   (G.name g c) copies_text (G.name g x) (G.name g x))
            end)
          (Closure.bases_of cl c))
      (G.classes g);

  (* fragile-dominance: the winner is selected purely by the Definition 5
     dominance rule over a definition living in a shared virtual base
     that stays visible along a derivation path bypassing the winner.
     Detected by deleting the winning declaration and re-running the
     member's column: whatever surfaces is exactly what the winner was
     dominating. *)
  if enabled Rule.Fragile_dominance then begin
    let keys =
      Hashtbl.fold (fun k cs acc -> (k, List.rev !cs) :: acc) winners []
      |> List.sort compare
    in
    List.iter
      (fun ((m, l), contexts) ->
        if metrics.enabled then Telemetry.Counter.incr metrics.variant_builds;
        let g' = without_member g ~cls:l ~member:m in
        let col = Engine.build_member (Closure.compute g') m in
        List.iter
          (fun c ->
            match Engine.lookup col c m with
            | None -> ()
            | Some v ->
              let dominated =
                match v with
                | Engine.Red r -> r.Abs.r_lvs
                | Engine.Blue lvs -> lvs
              in
              let fragile_bases =
                List.filter_map
                  (function
                    | Abs.Lv x
                      when Closure.is_virtual_base cl x l
                           && bypasses g ~lv:x ~winner:l ~context:c ->
                      Some x
                    | Abs.Lv _ | Abs.Omega -> None)
                  dominated
              in
              if fragile_bases <> [] then
                push Rule.Fragile_dominance c (Some m)
                  (fdiag Rule.Fragile_dominance
                     ?loc:(loc_of c (Some m))
                     ~fixit:
                       (Format.asprintf
                          "use the qualified name '%s::%s', or redeclare \
                           '%s' in '%s', to make the choice explicit"
                          (G.name g l) m m (G.name g c))
                     "lookup of '%s' in '%s' resolves to '%s::%s' only by \
                      dominance over definition(s) in virtual base%s %a"
                     m (G.name g c) (G.name g l) m
                     (if List.length fragile_bases = 1 then "" else "s")
                     (pp_names g) fragile_bases))
          contexts)
      keys
  end;

  (* dead-member: a declaration never produced by lookup in any class
     strictly derived from its declarer.  The declaring class itself is
     excluded — lookup(X, m) trivially answers X's own declaration — so
     the rule only fires when the hierarchy actually hides it. *)
  if enabled Rule.Dead_member then
    List.iter
      (fun x ->
        List.iter
          (fun (mem : G.member) ->
            let m = mem.m_name in
            let der = Closure.derived_of cl x in
            let n_der = Chg.Bitset.cardinal der in
            if n_der > 0 then begin
              let alive =
                Chg.Bitset.fold
                  (fun c acc -> acc || Engine.resolves_to engine c m = Some x)
                  der false
              in
              if not alive then
                push Rule.Dead_member x (Some m)
                  (fdiag Rule.Dead_member
                     ?loc:(loc_of x (Some m))
                     "declaration '%s::%s' is never the result of member \
                      lookup in any of the %d class%s derived from '%s' \
                      (always hidden or ambiguous below)"
                     (G.name g x) m n_der
                     (if n_der = 1 then "" else "es")
                     (G.name g x))
            end)
          (G.members g x))
      (G.classes g);

  (* virtualize-fix-it: try hierarchy variants where candidate
     non-virtual edges above an ambiguous class become virtual — single
     edges, plus all edges out of one base at once (the symmetric-diamond
     fix no single edge achieves).  A variant is suggested iff it turns
     some ambiguous pair red while every resolved lookup keeps its
     target, no lookup appears or disappears, and no new ambiguity is
     introduced. *)
  if enabled Rule.Virtualize_fixit && ambiguous <> [] then begin
    let amb_pairs = List.map (fun (c, m, _) -> (c, m)) ambiguous in
    let relevant y =
      List.exists (fun (c, _) -> Closure.is_base_or_self cl y c) amb_pairs
    in
    let edges =
      List.concat_map
        (fun y ->
          if relevant y then
            List.filter_map
              (fun (b : G.base) ->
                if b.b_kind = G.Non_virtual then Some (b.b_class, y)
                else None)
              (G.bases g y)
          else [])
        (G.classes g)
    in
    let groups =
      List.sort_uniq compare (List.map fst edges)
      |> List.filter_map (fun x ->
             let ys =
               List.filter_map
                 (fun (x', y) -> if x' = x then Some y else None)
                 edges
             in
             if List.length ys >= 2 then Some (x, ys) else None)
    in
    let candidates =
      take config.virtualize_limit
        (List.map (fun (x, y) -> (x, [ y ])) edges @ groups)
    in
    let names = G.member_names g in
    let observe e c m =
      match Engine.lookup e c m with
      | None -> `Absent
      | Some (Engine.Blue _) -> `Ambiguous
      | Some (Engine.Red r) -> `Resolved r.Abs.r_ldc
    in
    List.iter
      (fun (x, ys) ->
        if metrics.enabled then Telemetry.Counter.incr metrics.variant_builds;
        let g' = virtualize_edges g ~base:x ~derived:ys in
        let eng' = Engine.build (Closure.compute g') in
        let preserved =
          List.for_all
            (fun c ->
              List.for_all
                (fun m ->
                  match (observe engine c m, observe eng' c m) with
                  | `Absent, `Absent -> true
                  | `Resolved a, `Resolved b -> a = b
                  | `Ambiguous, (`Ambiguous | `Resolved _) -> true
                  | _ -> false)
                names)
            (G.classes g)
        in
        if preserved then
          List.iter
            (fun (c, m, _) ->
              match observe eng' c m with
              | `Resolved l ->
                let fixit =
                  String.concat "; "
                    (List.map
                       (fun y ->
                         Printf.sprintf "%s : virtual %s" (G.name g y)
                           (G.name g x))
                       ys)
                in
                push Rule.Virtualize_fixit c (Some m)
                  (fdiag Rule.Virtualize_fixit
                     ?loc:(loc_of c (Some m))
                     ~fixit
                     "declaring '%s' as a virtual base (%s) resolves the \
                      ambiguity of '%s' in '%s' to '%s::%s' and preserves \
                      every other lookup verdict"
                     (G.name g x) fixit m (G.name g c) (G.name g l) m)
              | `Absent | `Ambiguous -> ())
            ambiguous)
      candidates
  end;

  (* compiler-divergence: lookups where a real compiler baseline
     silently answers differently from ISO (paper) lookup. *)
  if enabled Rule.Compiler_divergence then begin
    if ambiguous <> [] then begin
      let topo = Baselines.Topo_lookup.prepare g in
      List.iter
        (fun (c, m, _) ->
          match Baselines.Topo_lookup.resolve topo c m with
          | Some tgt ->
            push ~baseline:"topo" Rule.Compiler_divergence c (Some m)
              (fdiag Rule.Compiler_divergence
                 ?loc:(loc_of c (Some m))
                 "a topological-order lookup (the Eiffel-style baseline) \
                  silently resolves '%s' in '%s' to '%s::%s' where ISO \
                  C++ lookup is ambiguous"
                 m (G.name g c) (G.name g tgt) m)
          | None -> ())
        ambiguous
    end;
    (* The g++ 2.7 baselines materialize the subobject graph, which is
       exponential in the worst case: classes above the configured count
       are skipped (and counted in the metrics).  Members that are
       static-like anywhere are skipped too — the baseline does not model
       the Definition 17 relaxation. *)
    let static_like =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun c ->
          List.iter
            (fun (mem : G.member) ->
              if G.member_is_static_like mem then
                Hashtbl.replace tbl mem.m_name ())
            (G.members g c))
        (G.classes g);
      fun m -> Hashtbl.mem tbl m
    in
    List.iter
      (fun c ->
        if counts.(c) > config.gxx_limit then begin
          if metrics.enabled then Telemetry.Counter.incr metrics.gxx_skipped
        end
        else begin
          let ms =
            List.filter (fun m -> not (static_like m)) (Engine.members engine c)
          in
          if ms <> [] then begin
            let sg = Subobject.Sgraph.build g c in
            List.iter
              (fun m ->
                let iso = Engine.lookup engine c m in
                let check mode label =
                  let baseline =
                    match mode with
                    | Baselines.Gxx.Buggy -> "gxx-buggy"
                    | Baselines.Gxx.Fixed -> "gxx-fixed"
                  in
                  match (iso, Baselines.Gxx.lookup_in ~mode sg m) with
                  | Some (Engine.Red r), Baselines.Gxx.Ambiguous ->
                    push ~baseline Rule.Compiler_divergence c (Some m)
                      (fdiag Rule.Compiler_divergence
                         ?loc:(loc_of c (Some m))
                         "g++ 2.7 (%s) rejects '%s' in '%s' as ambiguous; \
                          ISO C++ lookup resolves it to '%s::%s'"
                         label m (G.name g c)
                         (G.name g r.Abs.r_ldc)
                         m)
                  | Some (Engine.Red r), Baselines.Gxx.Resolved so
                    when Subobject.Sgraph.ldc sg so <> r.Abs.r_ldc ->
                    push ~baseline Rule.Compiler_divergence c (Some m)
                      (fdiag Rule.Compiler_divergence
                         ?loc:(loc_of c (Some m))
                         "g++ 2.7 (%s) resolves '%s' in '%s' to '%s::%s'; \
                          ISO C++ lookup resolves it to '%s::%s'"
                         label m (G.name g c)
                         (G.name g (Subobject.Sgraph.ldc sg so))
                         m
                         (G.name g r.Abs.r_ldc)
                         m)
                  | Some (Engine.Blue _), Baselines.Gxx.Resolved so ->
                    push ~baseline Rule.Compiler_divergence c (Some m)
                      (fdiag Rule.Compiler_divergence
                         ?loc:(loc_of c (Some m))
                         "g++ 2.7 (%s) silently resolves '%s' in '%s' to \
                          '%s::%s' where ISO C++ lookup is ambiguous"
                         label m (G.name g c)
                         (G.name g (Subobject.Sgraph.ldc sg so))
                         m)
                  | _ -> ()
                in
                check Baselines.Gxx.Buggy "buggy dominance pruning";
                check Baselines.Gxx.Fixed "fixed")
              ms
          end
        end)
      (G.classes g)
  end;

  (* {2 Cross-semantics rules}

     The three rules below compare the C++ dominance answer with the
     linearized (MRO) answers off one shared set of linearization
     tables; they run the same way whatever [semantics] the verdict
     rules above used. *)
  let mro_tables =
    lazy
      (List.map
         (fun v ->
           if metrics.enabled then
             Telemetry.Counter.incr metrics.variant_builds;
           (v, Mro.compute v g))
         Mro.variants)
  in
  let mro_table v = List.assoc v (Lazy.force mro_tables) in
  let pp_cycle ppf cycle =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " < ")
      (fun ppf x -> Format.fprintf ppf "'%s'" (G.name g x))
      ppf
      (cycle @ [ List.hd cycle ])
  in

  (* mro-unsolvable: C3 rejects the class outright.  Only the
     originating class of a constraint cycle is reported — every class
     derived from it inherits the same failure and would only repeat the
     witness. *)
  if enabled Rule.Mro_unsolvable then
    List.iter
      (fun c ->
        match Mro.linearization (mro_table Mro.C3) c with
        | Error f when f.Mro.fl_class = c ->
          push Rule.Mro_unsolvable c None
            (fdiag Rule.Mro_unsolvable
               ?loc:(loc_of c None)
               "class '%s' has no C3 linearization: its local precedence \
                constraints form the cycle %a"
               (G.name g c) pp_cycle f.Mro.fl_cycle)
        | Error _ | Ok _ -> ())
      (G.classes g);

  (* semantics-divergence: C++ dominance and C3 materially disagree on
     (C, m) — different winning declarations, or one semantics resolves
     where the other rejects.  Both targets are reported so the finding
     is directly checkable against either engine. *)
  if enabled Rule.Semantics_divergence then begin
    let eng = Lazy.force cpp_engine in
    let c3 = mro_table Mro.C3 in
    List.iter
      (fun c ->
        List.iter
          (fun m ->
            if metrics.enabled then
              Telemetry.Counter.incr metrics.pairs_checked;
            let qualified l = G.name g l ^ "::" ^ m in
            match (Engine.lookup eng c m, Mro.lookup c3 c m) with
            | Some (Engine.Red r1), Some (Engine.Red r2)
              when r1.Abs.r_ldc <> r2.Abs.r_ldc ->
              push ~baseline:"c3" Rule.Semantics_divergence c (Some m)
                (fdiag Rule.Semantics_divergence
                   ?loc:(loc_of c (Some m))
                   "C++ dominance resolves '%s' in '%s' to '%s' but C3 \
                    linearization resolves it to '%s'"
                   m (G.name g c)
                   (qualified r1.Abs.r_ldc)
                   (qualified r2.Abs.r_ldc))
            | Some (Engine.Blue _), Some (Engine.Red r) ->
              push ~baseline:"c3" Rule.Semantics_divergence c (Some m)
                (fdiag Rule.Semantics_divergence
                   ?loc:(loc_of c (Some m))
                   "lookup of '%s' in '%s' is ambiguous under C++ \
                    dominance but C3 linearization resolves it to '%s'"
                   m (G.name g c)
                   (qualified r.Abs.r_ldc))
            | Some (Engine.Red r), Some (Engine.Blue _) ->
              push ~baseline:"c3" Rule.Semantics_divergence c (Some m)
                (fdiag Rule.Semantics_divergence
                   ?loc:(loc_of c (Some m))
                   "C++ dominance resolves '%s' in '%s' to '%s' but '%s' \
                    has no C3 linearization"
                   m (G.name g c)
                   (qualified r.Abs.r_ldc)
                   (G.name g c))
            | _ -> ())
          (Engine.members eng c))
      (G.classes g)
  end;

  (* linearization-sensitive: the three MRO variants disagree among
     themselves on (C, m) — the hierarchy relies on a particular
     linearization algorithm, not just on linearized semantics. *)
  if enabled Rule.Linearization_sensitive then begin
    let eng = Lazy.force cpp_engine in
    let outcome v c m =
      match Mro.lookup (mro_table v) c m with
      | Some (Engine.Red r) -> `Resolved r.Abs.r_ldc
      | Some (Engine.Blue _) -> `Unsolvable
      | None -> `Absent
    in
    let describe = function
      | `Resolved l, m -> G.name g l ^ "::" ^ m
      | `Unsolvable, _ -> "unsolvable"
      | `Absent, _ -> "absent"
    in
    List.iter
      (fun c ->
        List.iter
          (fun m ->
            let os = List.map (fun v -> (v, outcome v c m)) Mro.variants in
            let distinct =
              match os with
              | (_, o0) :: rest -> List.exists (fun (_, o) -> o <> o0) rest
              | [] -> false
            in
            if distinct then
              push Rule.Linearization_sensitive c (Some m)
                (fdiag Rule.Linearization_sensitive
                   ?loc:(loc_of c (Some m))
                   "the MRO variants disagree on '%s' in '%s': %s"
                   m (G.name g c)
                   (String.concat ", "
                      (List.map
                         (fun (v, o) ->
                           Mro.variant_string v ^ " -> " ^ describe (o, m))
                         os))))
          (Engine.members eng c))
      (G.classes g)
  end;

  (* Deterministic report order: subject class in declaration order,
     then rule, then member, then message text. *)
  let cls_ix f =
    match G.find_opt g f.f_class with Some i -> i | None -> max_int
  in
  List.sort
    (fun a b ->
      match compare (cls_ix a) (cls_ix b) with
      | 0 ->
        (match compare (Rule.index a.f_rule) (Rule.index b.f_rule) with
        | 0 ->
          (match compare a.f_member b.f_member with
          | 0 -> compare a.f_diag.D.message b.f_diag.D.message
          | n -> n)
        | n -> n)
      | n -> n)
    (List.rev !out)

(* {1 Summaries and renderers} *)

let summary findings =
  List.fold_left
    (fun (e, w, n) f ->
      match f.f_diag.D.severity with
      | D.Error -> (e + 1, w, n)
      | D.Warning -> (e, w + 1, n)
      | D.Note -> (e, w, n + 1))
    (0, 0, 0) findings

let max_severity findings =
  List.fold_left
    (fun acc f ->
      match acc with
      | None -> Some f.f_diag.D.severity
      | Some s ->
        if D.severity_rank f.f_diag.D.severity > D.severity_rank s then
          Some f.f_diag.D.severity
        else acc)
    None findings

let pp_finding ?file ppf f =
  let d = f.f_diag in
  (match (file, d.D.loc = Frontend.Loc.dummy) with
  | Some fn, false ->
    Format.fprintf ppf "%s:%a: " fn Frontend.Loc.pp d.D.loc
  | Some fn, true -> Format.fprintf ppf "%s: " fn
  | None, false -> Format.fprintf ppf "%a: " Frontend.Loc.pp d.D.loc
  | None, true -> ());
  Format.fprintf ppf "%s: %s [%s]"
    (D.severity_string d.D.severity)
    d.D.message
    (Rule.to_string f.f_rule);
  match d.D.fixit with
  | Some fx -> Format.fprintf ppf "@,    fix-it: %s" fx
  | None -> ()

let pp_text ?file ppf findings =
  Format.fprintf ppf "@[<v>";
  List.iter (fun f -> Format.fprintf ppf "%a@," (pp_finding ?file) f) findings;
  (match findings with
  | [] -> Format.fprintf ppf "no lint findings@,"
  | _ ->
    let e, w, n = summary findings in
    Format.fprintf ppf "%d finding%s: %d error%s, %d warning%s, %d note%s@,"
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
      e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s")
      n
      (if n = 1 then "" else "s"));
  Format.fprintf ppf "@]"

let finding_json ?file f =
  let d = f.f_diag in
  let opt key = function Some v -> [ (key, J.String v) ] | None -> [] in
  J.Obj
    ([ ("rule", J.String (Rule.to_string f.f_rule));
       ("severity", J.String (D.severity_string d.D.severity));
       ("class", J.String f.f_class) ]
    @ opt "member" f.f_member
    @ opt "file" file
    @ (if d.D.loc = Frontend.Loc.dummy then []
       else
         [ ("line", J.Int d.D.loc.Frontend.Loc.line);
           ("col", J.Int d.D.loc.Frontend.Loc.col) ])
    @ [ ("message", J.String d.D.message) ]
    @ opt "fixit" d.D.fixit)

(* {1 SARIF 2.1.0} *)

module Sarif = struct
  let level_of = function
    | D.Error -> "error"
    | D.Warning -> "warning"
    | D.Note -> "note"

  let rule_descriptor r =
    J.Obj
      [ ("id", J.String (Rule.to_string r));
        ( "shortDescription",
          J.Obj [ ("text", J.String (Rule.short_description r)) ] );
        ( "defaultConfiguration",
          J.Obj [ ("level", J.String (level_of (Rule.severity r))) ] );
        ("properties", J.Obj [ ("category", J.String (Rule.category r)) ]) ]

  let result ?file f =
    let d = f.f_diag in
    let location =
      match file with
      | None -> []
      | Some fn ->
        let region =
          if d.D.loc = Frontend.Loc.dummy then []
          else
            [ ( "region",
                J.Obj
                  [ ("startLine", J.Int d.D.loc.Frontend.Loc.line);
                    ("startColumn", J.Int d.D.loc.Frontend.Loc.col) ] ) ]
        in
        [ ( "locations",
            J.List
              [ J.Obj
                  [ ( "physicalLocation",
                      J.Obj
                        (("artifactLocation", J.Obj [ ("uri", J.String fn) ])
                        :: region) ) ] ] ) ]
    in
    let properties =
      let props =
        (match d.D.fixit with
        | Some fx -> [ ("fixit", J.String fx) ]
        | None -> [])
        @
        match f.f_baseline with
        | Some b -> [ ("baseline", J.String b) ]
        | None -> []
      in
      if props = [] then [] else [ ("properties", J.Obj props) ]
    in
    J.Obj
      ([ ("ruleId", J.String (Rule.to_string f.f_rule));
         ("ruleIndex", J.Int (Rule.index f.f_rule));
         ("level", J.String (level_of d.D.severity));
         ("message", J.Obj [ ("text", J.String d.D.message) ]) ]
      @ location @ properties)

  let document ?file findings =
    J.Obj
      [ ("$schema", J.String "https://json.schemastore.org/sarif-2.1.0.json");
        ("version", J.String "2.1.0");
        ( "runs",
          J.List
            [ J.Obj
                [ ( "tool",
                    J.Obj
                      [ ( "driver",
                          J.Obj
                            [ ("name", J.String "cxxlookup-lint");
                              ( "informationUri",
                                J.String
                                  "https://doi.org/10.1145/258915.258916" );
                              ( "rules",
                                J.List (List.map rule_descriptor Rule.all) )
                            ] ) ] );
                  ("results", J.List (List.map (result ?file) findings)) ] ]
        ) ]

  let to_string ?file findings =
    J.to_string ~pretty:true (document ?file findings)
end
