type t = {
  g : Graph.t;
  bases : Bitset.t array;  (* bases.(y) = strict bases of y, universe [0..y] *)
  vbases : Bitset.t array;  (* vbases.(y) = virtual bases of y, same universe *)
  derived : Bitset.t array option Atomic.t;
      (* derived.(x) = strict derived classes of x: the transpose, built
         on the first [derived_of].  Racing builders compute the same
         value, so a lost race only repeats work. *)
}

(* Class ids are a topological order (bases before derived), so the rows
   of every base of [y] are complete when [y]'s row is built:
     bases(y)  = U_{x direct base of y} ({x} U bases(x))
     vbases(y) = U_{x direct base of y} ({x | x -> y virtual} U vbases(x))
   The second line holds because x is a virtual base of y iff some path
   x => y starts with a virtual edge, and such a path either is that
   edge or runs through a direct base of y.  Row y lives in universe
   [0..y], so earlier rows never need to grow. *)
let row g bases vbases y =
  let b = Bitset.create (y + 1) and v = Bitset.create (y + 1) in
  List.iter
    (fun (e : Graph.base) ->
      Bitset.add b e.b_class;
      Bitset.union_prefix_into ~into:b bases.(e.b_class);
      (match e.b_kind with
      | Graph.Virtual -> Bitset.add v e.b_class
      | Graph.Non_virtual -> ());
      Bitset.union_prefix_into ~into:v vbases.(e.b_class))
    (Graph.bases g y);
  (b, v)

let compute g =
  let n = Graph.num_classes g in
  let empty = Bitset.create 0 in
  let bases = Array.make n empty and vbases = Array.make n empty in
  for y = 0 to n - 1 do
    let b, v = row g bases vbases y in
    bases.(y) <- b;
    vbases.(y) <- v
  done;
  { g; bases; vbases; derived = Atomic.make None }

let rebind t g =
  if Graph.num_classes g <> Array.length t.bases
     || Graph.num_edges g <> Graph.num_edges t.g
  then invalid_arg "Closure.rebind: the class structure differs";
  { t with g }

let extend t g =
  let y = Array.length t.bases in
  if Graph.num_classes g <> y + 1 then
    invalid_arg "Closure.extend: the graph must add exactly one class";
  let b, v = row g t.bases t.vbases y in
  { g;
    bases = Array.append t.bases [| b |];
    vbases = Array.append t.vbases [| v |];
    derived = Atomic.make None }

let graph t = t.g

let is_base t x y = Bitset.mem_or_false t.bases.(y) x
let is_base_or_self t x y = x = y || is_base t x y
let is_virtual_base t x y = Bitset.mem_or_false t.vbases.(y) x
let bases_of t y = t.bases.(y)
let virtual_bases_of t y = t.vbases.(y)

let derived_of t x =
  let d =
    match Atomic.get t.derived with
    | Some d -> d
    | None ->
      let n = Array.length t.bases in
      let d = Array.init n (fun _ -> Bitset.create n) in
      Array.iteri (fun y row -> Bitset.iter (fun x -> Bitset.add d.(x) y) row) t.bases;
      Atomic.set t.derived (Some d);
      d
  in
  d.(x)
