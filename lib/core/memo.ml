open Abstraction

type t = {
  g : Chg.Graph.t;
  cl : Chg.Closure.t;
  static_rule : bool;
  cache : (Chg.Graph.class_id * string, Engine.verdict option) Hashtbl.t;
  metrics : Metrics.t;
  mutable depth : int;  (* >0 while inside a recursive fill *)
}

let create ?(static_rule = true) ?(metrics = Metrics.disabled) cl =
  { g = Chg.Closure.graph cl;
    cl;
    static_rule;
    cache = Hashtbl.create 64;
    metrics;
    depth = 0 }

let rec lookup t c m =
  match Hashtbl.find_opt t.cache (c, m) with
  | Some v ->
    Metrics.bump t.metrics t.metrics.Metrics.memo_hits;
    v
  | None ->
    Metrics.bump t.metrics t.metrics.Metrics.memo_misses;
    if t.depth > 0 then
      Metrics.bump t.metrics t.metrics.Metrics.memo_recursive_fills;
    t.depth <- t.depth + 1;
    let v =
      Fun.protect ~finally:(fun () -> t.depth <- t.depth - 1) (fun () ->
          compute t c m)
    in
    Hashtbl.add t.cache (c, m) v;
    v

and compute t c m =
  if Chg.Graph.declares t.g c m then begin
    Metrics.bump t.metrics t.metrics.Metrics.declared_kills;
    Metrics.bump t.metrics t.metrics.Metrics.red_verdicts;
    Some (Engine.Red { r_ldc = c; r_lvs = [ Omega ] })
  end
  else begin
    let incoming =
      List.concat_map
        (fun (b : Chg.Graph.base) ->
          let x = b.b_class in
          Metrics.bump t.metrics t.metrics.Metrics.edge_traversals;
          match lookup t x m with
          | None -> []
          | Some (Engine.Red r) ->
            Metrics.bump_n t.metrics t.metrics.Metrics.o_extensions
              (List.length r.r_lvs);
            [ (Engine.Red (extend_red r x b.b_kind), None) ]
          | Some (Engine.Blue s) ->
            Metrics.bump_n t.metrics t.metrics.Metrics.o_extensions
              (List.length s);
            [ (Engine.Blue (extend_blue s x b.b_kind), None) ])
        (Chg.Graph.bases t.g c)
    in
    match incoming with
    | [] -> None
    | _ ->
      let is_static_at l =
        t.static_rule
        &&
        match Chg.Graph.find_member t.g l m with
        | Some mem -> Chg.Graph.member_is_static_like mem
        | None -> false
      in
      let v, _w =
        Engine.combine_incoming ~metrics:t.metrics
          ~vbase:(Chg.Closure.is_virtual_base t.cl) ~is_static_at incoming
      in
      Some v
  end

let cached_entries t = Hashtbl.length t.cache
