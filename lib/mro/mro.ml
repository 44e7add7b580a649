(* Linearized (MRO) member-lookup semantics over the CHG.  See mro.mli
   for the contract; the merge below is the C3 of Hivert & Thiéry with a
   constraint-cycle witness extracted whenever it gets stuck. *)

module G = Chg.Graph
module Engine = Lookup_core.Engine
module Abs = Lookup_core.Abstraction

type variant = C3 | Py22 | Dylan

let variant_string = function C3 -> "c3" | Py22 -> "py22" | Dylan -> "dylan"

let variant_of_string = function
  | "c3" -> Some C3
  | "py22" -> Some Py22
  | "dylan" -> Some Dylan
  | _ -> None

let variants = [ C3; Py22; Dylan ]

type semantics = Cpp | Linearized of variant

let semantics_string = function
  | Cpp -> "cpp"
  | Linearized v -> variant_string v

let semantics_of_string = function
  | "cpp" -> Some Cpp
  | s -> Option.map (fun v -> Linearized v) (variant_of_string s)

type failure = { fl_class : G.class_id; fl_cycle : G.class_id list }

type t = {
  mro_variant : variant;
  mro_graph : G.t;
  mro_lin : (G.class_id list, failure) result array;  (* by class id *)
}

(* [blocked h lists] — h appears in the tail of some input list, i.e.
   some list demands another class precede h. *)
let blocked h lists =
  List.exists
    (function [] -> false | _ :: tl -> List.mem h tl)
    lists

(* When the merge is stuck every head is blocked: each head [h] has a
   blocker — the head of a list whose tail contains [h], which the list
   demands precede [h].  Following blockers from any head must revisit a
   class (the head set is finite), and the revisited segment is a cycle
   of precedence constraints: the failure witness. *)
let stuck_cycle lists =
  let blocker h =
    List.find_map
      (function
        | [] -> None
        | h' :: tl -> if List.mem h tl then Some h' else None)
      lists
  in
  let first_head =
    match List.find_map (function [] -> None | h :: _ -> Some h) lists with
    | Some h -> h
    | None -> invalid_arg "stuck_cycle: no non-empty list"
  in
  (* [path] is most-recent-first; cut it at the revisited class to get
     the cycle in constraint order (each element's blocker follows it). *)
  let rec follow path h =
    if List.mem h path then
      let rec cut acc = function
        | [] -> acc
        | x :: rest -> if x = h then x :: acc else cut (x :: acc) rest
      in
      cut [] path
    else
      match blocker h with
      | Some b -> follow (h :: path) b
      | None -> invalid_arg "stuck_cycle: unblocked head"
  in
  follow [] first_head

let rec dedup seen = function
  | [] -> []
  | x :: rest ->
      if List.mem x seen then dedup seen rest
      else x :: dedup (x :: seen) rest

(* Dylan / CLOS tie-break: among valid heads prefer the candidate with a
   direct subclass closest to the end of the partial result ([acc] is
   most-recent-first, so smallest index wins); leftmost list order breaks
   remaining ties.  C3 always takes the leftmost valid head. *)
let dylan_pick g acc candidates =
  let score h =
    let is_direct_base d =
      List.exists (fun b -> b.G.b_class = h) (G.bases g d)
    in
    let rec idx i = function
      | [] -> max_int
      | d :: rest -> if is_direct_base d then i else idx (i + 1) rest
    in
    idx 0 acc
  in
  match candidates with
  | [] -> invalid_arg "dylan_pick: no candidate"
  | c0 :: rest ->
      fst
        (List.fold_left
           (fun (best, best_score) h ->
             let s = score h in
             if s < best_score then (h, s) else (best, best_score))
           (c0, score c0) rest)

let merge variant g ~head lists =
  let rec go acc lists =
    let lists = List.filter (fun l -> l <> []) lists in
    if lists = [] then Ok (List.rev acc)
    else
      let candidates =
        dedup []
          (List.filter_map
             (function
               | [] -> None
               | h :: _ -> if blocked h lists then None else Some h)
             lists)
      in
      match candidates with
      | [] -> Error (stuck_cycle lists)
      | c0 :: _ ->
          let chosen =
            match variant with
            | Dylan -> dylan_pick g acc candidates
            | C3 | Py22 -> c0
          in
          let lists =
            List.map
              (function h :: tl when h = chosen -> tl | l -> l)
              lists
          in
          go (chosen :: acc) lists
  in
  go [ head ] lists

(* Python 2.2's L*: leftmost depth-first concatenation with duplicates
   removed keeping the LAST occurrence.  Total, but neither monotone nor
   local-precedence-preserving — the documented defects C3 fixed. *)
let py22 lin_of c bases =
  let raw = c :: List.concat_map lin_of bases in
  let rec keep_last = function
    | [] -> []
    | x :: rest -> if List.mem x rest then keep_last rest else x :: keep_last rest
  in
  keep_last raw

let compute variant g =
  let n = G.num_classes g in
  let lin = Array.make n (Ok []) in
  for c = 0 to n - 1 do
    let bases = List.map (fun b -> b.G.b_class) (G.bases g c) in
    let r =
      match variant with
      | Py22 ->
          let lin_of b =
            match lin.(b) with Ok l -> l | Error _ -> assert false
          in
          Ok (py22 lin_of c bases)
      | C3 | Dylan -> (
          (* A failed base poisons every derived class; keep the
             originating witness rather than re-deriving a cycle. *)
          match
            List.find_map
              (fun b ->
                match lin.(b) with Error f -> Some f | Ok _ -> None)
              bases
          with
          | Some f -> Error f
          | None -> (
              let base_lins =
                List.map
                  (fun b ->
                    match lin.(b) with Ok l -> l | Error _ -> assert false)
                  bases
              in
              match merge variant g ~head:c (base_lins @ [ bases ]) with
              | Ok l -> Ok l
              | Error cycle -> Error { fl_class = c; fl_cycle = cycle }))
    in
    lin.(c) <- r
  done;
  { mro_variant = variant; mro_graph = g; mro_lin = lin }

let rebind t g =
  if G.num_classes g <> Array.length t.mro_lin
     || G.num_edges g <> G.num_edges t.mro_graph
  then invalid_arg "Mro.rebind: the class structure differs";
  { t with mro_graph = g }

let variant t = t.mro_variant
let graph t = t.mro_graph
let linearization t c = t.mro_lin.(c)

(* Containment irrespective of linearization success — used so absence
   ([None]) agrees with the Figure-8 engine even on unsolvable classes. *)
let contains g c m =
  let seen = Hashtbl.create 16 in
  let rec go c =
    if Hashtbl.mem seen c then false
    else begin
      Hashtbl.add seen c ();
      G.declares g c m
      || List.exists (fun b -> go b.G.b_class) (G.bases g c)
    end
  in
  go c

let lookup t c m =
  let g = t.mro_graph in
  match t.mro_lin.(c) with
  | Ok lin -> (
      match List.find_opt (fun l -> G.declares g l m) lin with
      | Some l -> Some (Engine.Red { Abs.r_ldc = l; r_lvs = [ Abs.Omega ] })
      | None -> None)
  | Error f ->
      if contains g c m then
        let lvs =
          List.sort_uniq Abs.lv_compare
            (List.map (fun x -> Abs.Lv x) f.fl_cycle)
        in
        Some (Engine.Blue lvs)
      else None

let resolves_to t c m =
  match lookup t c m with
  | Some (Engine.Red r) -> Some r.Abs.r_ldc
  | Some (Engine.Blue _) | None -> None

let engine cl v =
  let g = Chg.Closure.graph cl in
  let t = compute v g in
  let names = Array.of_list (G.member_names g) in
  let n = G.num_classes g in
  let columns =
    Array.map (fun m -> Array.init n (fun c -> lookup t c m)) names
  in
  Engine.of_columns cl ~names ~columns

let pp_result g ppf = function
  | Ok lin ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
        (fun ppf c -> Format.pp_print_string ppf (G.name g c))
        ppf lin
  | Error f ->
      let cycle = f.fl_cycle @ [ List.hd f.fl_cycle ] in
      Format.fprintf ppf "no linearization of %s: precedence cycle %a"
        (G.name g f.fl_class)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " < ")
           (fun ppf c -> Format.pp_print_string ppf (G.name g c)))
        cycle
