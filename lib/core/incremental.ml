open Abstraction

type row = {
  r_bases : (int * Chg.Graph.edge_kind) list;  (* resolved direct bases *)
  r_members : (string, Chg.Graph.member) Hashtbl.t;  (* declared here *)
  r_verdicts : (string, Engine.verdict) Hashtbl.t;  (* Members[C] keyed *)
}

type t = {
  static_rule : bool;
  mutable cl : Chg.Closure.t;
      (* closure of the current hierarchy; its graph is the snapshot.
         Both are persistent values: a mutation installs new ones and
         never changes a value already handed out. *)
  mutable rows : row array;  (* grow-doubling; first [count] are live *)
  mutable count : int;
  metrics : Metrics.t;
}

let num_classes t = t.count
let closure t = t.cl
let snapshot t = Chg.Closure.graph t.cl
let find t name = Chg.Graph.find (snapshot t) name

let row t c =
  if c < 0 || c >= t.count then invalid_arg "Incremental: bad class id";
  t.rows.(c)

(* placeholder for slots beyond [count]; never read *)
let no_row =
  { r_bases = []; r_members = Hashtbl.create 1; r_verdicts = Hashtbl.create 1 }

let push_row t r =
  if t.count = Array.length t.rows then begin
    let fresh = Array.make (max 8 (2 * t.count)) no_row in
    Array.blit t.rows 0 fresh 0 t.count;
    t.rows <- fresh
  end;
  t.rows.(t.count) <- r;
  t.count <- t.count + 1

(* One Figure-8 combine for member [mname] at live row [id], reading the
   current verdicts of the row's direct bases.  Shared between the
   new-row path (fresh row, verdicts computed once) and the add_member
   path (existing rows whose column must be recomputed). *)
let recompute_member t id mname =
  let r = row t id in
  Metrics.bump t.metrics t.metrics.Metrics.incr_row_members;
  if Hashtbl.mem r.r_members mname then begin
    Metrics.bump t.metrics t.metrics.Metrics.declared_kills;
    Metrics.bump t.metrics t.metrics.Metrics.red_verdicts;
    Hashtbl.replace r.r_verdicts mname
      (Engine.Red { r_ldc = id; r_lvs = [ Omega ] })
  end
  else begin
    let incoming =
      List.filter_map
        (fun (x, kind) ->
          Metrics.bump t.metrics t.metrics.Metrics.edge_traversals;
          match Hashtbl.find_opt (row t x).r_verdicts mname with
          | None -> None
          | Some (Engine.Red red) ->
            Metrics.bump_n t.metrics t.metrics.Metrics.o_extensions
              (List.length red.r_lvs);
            Some (Engine.Red (extend_red red x kind), None)
          | Some (Engine.Blue s) ->
            Metrics.bump_n t.metrics t.metrics.Metrics.o_extensions
              (List.length s);
            Some (Engine.Blue (extend_blue s x kind), None))
        r.r_bases
    in
    match incoming with
    | [] -> Hashtbl.remove r.r_verdicts mname
    | _ ->
      (* is_static_at is only ever called with ldcs of incoming
         definitions, which are earlier (live) classes *)
      let is_static_at l =
        t.static_rule
        &&
        match Hashtbl.find_opt (row t l).r_members mname with
        | Some mem -> Chg.Graph.member_is_static_like mem
        | None -> false
      in
      let v, _ =
        Engine.combine_incoming ~metrics:t.metrics
          ~vbase:(Chg.Closure.is_virtual_base t.cl) ~is_static_at incoming
      in
      Hashtbl.replace r.r_verdicts mname v
  end

(* The row of class [t.count], whose closure row [t.cl] already holds.
   Members[C] = M[C] ∪ bases' Members; one combine per member name. *)
let add_row t =
  let g = snapshot t in
  let id = t.count in
  let members = Chg.Graph.members g id in
  let r_bases =
    List.map (fun (b : Chg.Graph.base) -> (b.b_class, b.b_kind))
      (Chg.Graph.bases g id)
  in
  let member_tbl = Hashtbl.create (max 4 (List.length members)) in
  List.iter (fun (m : Chg.Graph.member) ->
      Hashtbl.replace member_tbl m.m_name m)
    members;
  let member_names = Hashtbl.create 16 in
  List.iter (fun (m : Chg.Graph.member) ->
      Hashtbl.replace member_names m.m_name ())
    members;
  List.iter
    (fun (b, _) ->
      Hashtbl.iter
        (fun mname _ -> Hashtbl.replace member_names mname ())
        (row t b).r_verdicts)
    r_bases;
  Metrics.bump t.metrics t.metrics.Metrics.incr_rows;
  Metrics.bump_n t.metrics t.metrics.Metrics.incr_closure_bits
    (Chg.Bitset.cardinal (Chg.Closure.bases_of t.cl id)
     + Chg.Bitset.cardinal (Chg.Closure.virtual_bases_of t.cl id));
  push_row t { r_bases; r_members = member_tbl; r_verdicts = Hashtbl.create 16 };
  Hashtbl.iter (fun mname () -> recompute_member t id mname) member_names;
  id

let of_closure ?(static_rule = true) ?(metrics = Metrics.disabled) cl =
  let t = { static_rule; cl; rows = [||]; count = 0; metrics } in
  for _ = 1 to Chg.Graph.num_classes (Chg.Closure.graph cl) do
    ignore (add_row t)
  done;
  t

let create ?static_rule ?metrics () =
  of_closure ?static_rule ?metrics (Chg.Closure.compute Chg.Graph.empty)

let class_added t cl =
  if Chg.Graph.num_classes (Chg.Closure.graph cl) <> t.count + 1 then
    invalid_arg "Incremental.class_added: the closure must add one class";
  t.cl <- cl;
  add_row t

let member_added t cl c (m : Chg.Graph.member) =
  if Chg.Graph.num_classes (Chg.Closure.graph cl) <> t.count then
    invalid_arg "Incremental.member_added: the closure must keep the classes";
  t.cl <- cl;
  Hashtbl.replace (row t c).r_members m.m_name m;
  (* Only [c] and the classes derived from it can see the new
     declaration; their ids are all > c (topological id order), so one
     increasing sweep recomputes the member's column bases-first. *)
  let affected = ref 0 in
  for j = c to t.count - 1 do
    if j = c || Chg.Closure.is_base cl c j then begin
      incr affected;
      recompute_member t j m.m_name
    end
  done;
  !affected

let add_class t name ~bases ~members =
  let g, _ = Chg.Graph.extend (snapshot t) name ~bases ~members in
  class_added t (Chg.Closure.extend t.cl g)

let add_member t cls (m : Chg.Graph.member) =
  let g = Chg.Graph.with_member (snapshot t) cls m in
  member_added t (Chg.Closure.rebind t.cl g) (Chg.Graph.find g cls) m

let lookup t c m = Hashtbl.find_opt (row t c).r_verdicts m

let resolves_to t c m =
  match lookup t c m with
  | Some (Engine.Red r) -> Some r.r_ldc
  | Some (Engine.Blue _) | None -> None
