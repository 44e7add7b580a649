type edge_kind = Virtual | Non_virtual
type access = Public | Protected | Private
type member_kind = Data | Function | Type | Enumerator

type member = {
  m_name : string;
  m_kind : member_kind;
  m_static : bool;
  m_virtual : bool;
  m_access : access;
}

let member_is_static_like m =
  m.m_static || (match m.m_kind with
                | Type | Enumerator -> true
                | Data | Function -> false)

type base = { b_class : int; b_kind : edge_kind; b_access : access }
type class_id = int

(* Per-class member arrays and per-name declarer arrays, in chunks of
   [chunk]: replacing one entry ({!with_member}) copies the short outer
   array and one chunk, not one pointer per class or name.  The getters
   are monomorphic, so an access compiles to plain loads. *)
let chunk_bits = 5
let chunk = 1 lsl chunk_bits

type 'a chunks = 'a array array array
type chunked = member chunks

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

let chunked_get (a : chunked) i = a.(i lsr chunk_bits).(i land (chunk - 1))
let declarers_get (a : int chunks) i = a.(i lsr chunk_bits).(i land (chunk - 1))

let chunked_of_array arr =
  let n = Array.length arr in
  Array.init ((n + chunk - 1) / chunk) (fun k ->
      Array.sub arr (k * chunk) (min chunk (n - (k * chunk))))

(* [chunked_set a i v], or an append when [i] is the length *)
let chunked_set (a : 'a chunks) i v : 'a chunks =
  let k = i lsr chunk_bits and j = i land (chunk - 1) in
  if k = Array.length a then Array.append a [| [| v |] |]
  else begin
    let old = a.(k) in
    let ch = if j = Array.length old then Array.append old [| v |] else Array.copy old in
    ch.(j) <- v;
    let a = Array.copy a in
    a.(k) <- ch;
    a
  end

type t = {
  names : string array;
  ids : Symtab.t;  (* class name -> id *)
  base_edges : base array array;
  derived_edges : (int * edge_kind) list array;  (* reversed adjacency *)
  member_arrays : chunked;
  member_ids : Symtab.t;
      (* the names of the build the graph was made by, in the order they
         were first appended: ids [0, built) are this graph's; no graph
         value writes to the table *)
  built : int;
  added : int Smap.t;  (* the names [extend] and [with_member] brought: ids from [built] *)
  added_names : string Imap.t;  (* id -> name, for [added] *)
  member_count : int;
  declarers : int chunks;  (* member id -> its classes, increasing *)
  num_edges : int;
}

type error =
  | Duplicate_class of string
  | Unknown_class of string
  | Unknown_base of { cls : string; base : string }
  | Duplicate_base of { cls : string; base : string }
  | Duplicate_member of { cls : string; member : string }
  | Cyclic_hierarchy of string list

let pp_error ppf = function
  | Duplicate_class c -> Format.fprintf ppf "class %s is declared twice" c
  | Unknown_class c -> Format.fprintf ppf "class %s is not declared" c
  | Unknown_base { cls; base } ->
    Format.fprintf ppf "class %s inherits from undeclared class %s" cls base
  | Duplicate_base { cls; base } ->
    Format.fprintf ppf "class %s lists direct base %s twice" cls base
  | Duplicate_member { cls; member } ->
    Format.fprintf ppf "class %s declares member %s twice" cls member
  | Cyclic_hierarchy cycle ->
    Format.fprintf ppf "inheritance cycle: %s"
      (String.concat " -> " cycle)

let error_to_string e = Format.asprintf "%a" pp_error e

exception Error of error

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* What the checks of class appends leave behind: the member names
   seen so far, numbered; the last stamp on each member id and on each
   base id; and the ids of the members of the last class checked.
   Every append takes a fresh stamp before it checks, and a class that
   fails forgets the names it brought, so the marks of one that failed
   match no later append. *)
type marks = {
  mids : Symtab.t;
  mutable mstamp : int array;
  mutable derived : int array;
  mutable stamp : int;
  mutable last : int array;
}

let marks mids ~classes =
  { mids; mstamp = Array.make (max 8 (Symtab.count mids)) 0;
    derived = Array.make (max 1 classes) 0; stamp = 0; last = Array.make 8 0 }

(* A base id outside [0, count): [Unresolved i] at the [i]th base. *)
exception Unresolved of int

(* The four rules of a class append, in the order every build reports
   them: a fresh name, distinct members, then each base in turn
   resolved and distinct.  The classes so far are the ids [0, count),
   named by [names] and [ids].  Loops, not closures: an [open] pays
   this per class. *)
let check marks ~names ~ids ~count name ~bases ~members =
  let s = marks.stamp + 1 in
  marks.stamp <- s;
  if Symtab.find_string ids name >= 0 then raise (Error (Duplicate_class name));
  let known = Symtab.count marks.mids in
  if Array.length members > Array.length marks.last then
    marks.last <- Array.make (Array.length members) 0;
  try
    for i = 0 to Array.length members - 1 do
      let m = members.(i).m_name in
      let id = Symtab.add marks.mids m in
      if id = Array.length marks.mstamp then marks.mstamp <- grow marks.mstamp 0;
      if marks.mstamp.(id) = s then
        raise (Error (Duplicate_member { cls = name; member = m }));
      marks.mstamp.(id) <- s;
      marks.last.(i) <- id
    done;
    for i = 0 to Array.length bases - 1 do
      let b = bases.(i).b_class in
      if b < 0 || b >= count then raise (Unresolved i);
      if marks.derived.(b) = s then
        raise (Error (Duplicate_base { cls = name; base = names.(b) }));
      marks.derived.(b) <- s
    done
  with e ->
    Symtab.truncate marks.mids known;
    raise e

(* [check] on bases given by name; answers the bases as ids and the
   members as an array. *)
let check_named marks ~names ~ids ~count name ~bases ~members =
  let resolved =
    Array.of_list
      (List.map
         (fun (b, kind, acc) ->
           { b_class = Symtab.find_string ids b; b_kind = kind; b_access = acc })
         bases)
  and members = Array.of_list members in
  (match check marks ~names ~ids ~count name ~bases:resolved ~members with
  | () -> ()
  | exception Unresolved i ->
    let base, _, _ = List.nth bases i in
    raise (Error (Unknown_base { cls = name; base })));
  (resolved, members)

(* Classes in id order, the build behind every graph but {!extend}'s.
   [o_marks.derived] is as long as the other arrays; [o_decl] holds,
   per member id, the classes declaring it, latest first. *)
type ordered = {
  mutable o_names : string array;
  o_ids : Symtab.t;
  mutable o_bases : base array array;
  mutable o_members : member array array;
  o_marks : marks;
  mutable o_decl : int list array;
  mutable o_count : int;
}

let ordered n =
  let n = max n 1 in
  { o_names = Array.make n ""; o_ids = Symtab.create n;
    o_bases = Array.make n [||]; o_members = Array.make n [||];
    o_marks = marks (Symtab.create 16) ~classes:n;
    o_decl = Array.make 16 []; o_count = 0 }

(* [c] inserted into the decreasing [l] *)
let rec insert c = function
  | x :: l when x > c -> x :: insert c l
  | l -> c :: l

(* [c] as a declarer of member id [id]: at the head when [c] is the
   latest class *)
let declare o id c =
  while id >= Array.length o.o_decl do
    o.o_decl <- grow o.o_decl []
  done;
  o.o_decl.(id) <- insert c o.o_decl.(id)

(* Records a class that passed [check] as the next id. *)
let record o name ~bases ~members =
  let c = o.o_count in
  if c = Array.length o.o_names then begin
    o.o_names <- grow o.o_names "";
    o.o_bases <- grow o.o_bases [||];
    o.o_members <- grow o.o_members [||];
    o.o_marks.derived <- grow o.o_marks.derived 0
  end;
  ignore (Symtab.add o.o_ids name);
  o.o_names.(c) <- name;
  o.o_bases.(c) <- bases;
  o.o_members.(c) <- members;
  for i = 0 to Array.length members - 1 do
    declare o o.o_marks.last.(i) c
  done;
  o.o_count <- c + 1

let add_ordered o name ~bases ~members =
  (match
     check o.o_marks ~names:o.o_names ~ids:o.o_ids ~count:o.o_count name
       ~bases ~members
   with
  | () -> ()
  | exception Unresolved _ ->
    invalid_arg "Graph.add_ordered: a base must be an earlier class");
  record o name ~bases ~members

(* The graph of the classes so far, named by [ids] and [mids].  It may
   share the name and base arrays, whose entries below [o_count] are
   never written again; the members, which {!add_member} replaces, go
   into fresh chunks. *)
let graph_of o ids mids =
  let n = o.o_count in
  let fit a = if Array.length a = n then a else Array.sub a 0 n in
  let base_edges = fit o.o_bases in
  let derived_edges = Array.make n [] in
  let num_edges = ref 0 in
  (* Walk derived classes in reverse so each adjacency list ends up in
     declaration order of the derived classes. *)
  for c = n - 1 downto 0 do
    Array.iter
      (fun e ->
        incr num_edges;
        derived_edges.(e.b_class) <- (c, e.b_kind) :: derived_edges.(e.b_class))
      base_edges.(c)
  done;
  let declarers =
    Array.init (Symtab.count mids) (fun id ->
        let l = o.o_decl.(id) in
        let a = Array.make (List.length l) 0 in
        List.iteri (fun k c -> a.(Array.length a - 1 - k) <- c) l;
        a)
  in
  { names = fit o.o_names; ids; base_edges; derived_edges;
    member_arrays = chunked_of_array (fit o.o_members);
    member_ids = mids; built = Symtab.count mids; added = Smap.empty;
    added_names = Imap.empty; member_count = Symtab.count mids;
    declarers = chunked_of_array declarers; num_edges = !num_edges }

let of_ordered o = graph_of o o.o_ids o.o_marks.mids

type builder = ordered

let create_builder () = ordered 16

let add_class b name ~bases ~members =
  let bases, members =
    check_named b.o_marks ~names:b.o_names ~ids:b.o_ids ~count:b.o_count
      name ~bases ~members
  in
  record b name ~bases ~members;
  b.o_count - 1

let class_id ids cls =
  match Symtab.find_string ids cls with
  | -1 -> raise (Error (Unknown_class cls))
  | c -> c

(* [own], the members of [cls], with [m] appended *)
let append_member cls own m =
  if Array.exists (fun m' -> String.equal m'.m_name m.m_name) own then
    raise (Error (Duplicate_member { cls; member = m.m_name }));
  Array.append own [| m |]

(* [c] inserted into the increasing [a] *)
let insert_sorted c a =
  let k = ref 0 in
  while !k < Array.length a && a.(!k) < c do incr k done;
  Array.concat [ Array.sub a 0 !k; [| c |]; Array.sub a !k (Array.length a - !k) ]

let add_member b cls m =
  let c = class_id b.o_ids cls in
  b.o_members.(c) <- append_member cls b.o_members.(c) m;
  let marks = b.o_marks in
  let id = Symtab.add marks.mids m.m_name in
  if id = Array.length marks.mstamp then marks.mstamp <- grow marks.mstamp 0;
  declare b id c

let freeze b = graph_of b (Symtab.copy b.o_ids) (Symtab.copy b.o_marks.mids)

let empty = freeze (create_builder ())

(* Persistent extension: the new graph shares every inner array with [g]
   except those it replaces — [g] itself never changes.  A new class
   copies the outer per-class arrays (one pointer per class) and the
   class table; a new member copies one chunk of member arrays and one
   of declarer arrays.  A new member name goes to [added], a persistent
   map, never to the table [g] was built with, so graphs that share
   that table can be extended from any domain. *)

(* the id of member name [m] in [g], or -1 *)
let member_id g m =
  let id = Symtab.find_string g.member_ids m in
  if id >= 0 && id < g.built then id
  else match Smap.find_opt m g.added with Some id -> id | None -> -1

(* [g] with the name [m], absent from it, as the next member id *)
let add_name g m =
  let id = g.member_count in
  ( { g with added = Smap.add m id g.added;
             added_names = Imap.add id m g.added_names;
             member_count = id + 1 },
    id )

let extend g name ~bases ~members =
  let n = Array.length g.names in
  let marks = marks (Symtab.create 8) ~classes:n in
  let bases, members =
    check_named marks ~names:g.names ~ids:g.ids ~count:n name ~bases ~members
  in
  let ids = Symtab.copy g.ids in
  ignore (Symtab.add ids name);
  let derived_edges = Array.append g.derived_edges [| [] |] in
  Array.iter
    (fun e ->
      derived_edges.(e.b_class) <- derived_edges.(e.b_class) @ [ (n, e.b_kind) ])
    bases;
  let g' =
    Array.fold_left
      (fun g' m ->
        let g', id =
          match member_id g' m.m_name with -1 -> add_name g' m.m_name | id -> (g', id)
        in
        let old = if id < g.member_count then declarers_get g.declarers id else [||] in
        { g' with declarers = chunked_set g'.declarers id (Array.append old [| n |]) })
      g members
  in
  ( { g' with
      names = Array.append g.names [| name |];
      ids;
      base_edges = Array.append g.base_edges [| bases |];
      derived_edges;
      member_arrays = chunked_set g.member_arrays n members;
      num_edges = g.num_edges + Array.length bases },
    n )

let with_member g cls m =
  let c = class_id g.ids cls in
  let member_arrays =
    chunked_set g.member_arrays c
      (append_member cls (chunked_get g.member_arrays c) m)
  in
  match member_id g m.m_name with
  | -1 ->
    let g, id = add_name g m.m_name in
    { g with member_arrays; declarers = chunked_set g.declarers id [| c |] }
  | id ->
    { g with member_arrays;
             declarers =
               chunked_set g.declarers id (insert_sorted c (declarers_get g.declarers id)) }

type decl = {
  d_name : string;
  d_bases : (string * edge_kind * access) list;
  d_members : member list;
}

(* The classes appended in list order. *)
let build decls =
  let o = ordered (List.length decls) in
  List.iter
    (fun d -> ignore (add_class o d.d_name ~bases:d.d_bases ~members:d.d_members))
    decls;
  of_ordered o

(* Topologically sort the declarations (bases first) with an explicit
   DFS so we can report a cycle as a witness path, then build. *)
let of_decls_sorted decls =
  let by_name = Hashtbl.create 16 in
  let state = Hashtbl.create 16 in
  (* state: 0 = in progress, 1 = done *)
  let order = ref [] in
  (* [stack]: the classes in progress, innermost first, each a base of
     the one after it *)
  let rec visit stack name =
    match Hashtbl.find_opt state name with
    | Some 1 -> ()
    | Some _ ->
      let rec take = function
        | [] -> []
        | x :: rest -> if x = name then [ x ] else x :: take rest
      in
      raise (Error (Cyclic_hierarchy (List.rev (name :: take stack))))
    | None ->
      (match Hashtbl.find_opt by_name name with
      | None -> ()  (* unknown base: reported by the build below *)
      | Some d ->
        Hashtbl.add state name 0;
        List.iter (fun (b, _, _) -> visit (name :: stack) b) d.d_bases;
        Hashtbl.replace state name 1;
        order := d :: !order)
  in
  match
    List.iter
      (fun d ->
        if Hashtbl.mem by_name d.d_name then
          raise (Error (Duplicate_class d.d_name));
        Hashtbl.add by_name d.d_name d)
      decls;
    List.iter (fun d -> visit [] d.d_name) decls;
    build (List.rev !order)
  with
  | g -> Ok g
  | exception Error e -> Result.Error e

(* The common case in one pass: every base declared before the classes
   deriving from it, as {!Serialize} writes them.  Any error, a forward
   reference included, sends the list to the sort, which gives the
   error every list with these classes gets. *)
let of_decls decls =
  match build decls with
  | g -> Ok g
  | exception Error _ -> of_decls_sorted decls

let member ?(kind = Data) ?(static = false) ?(virtual_ = false)
    ?(access = Public) name =
  { m_name = name; m_kind = kind; m_static = static; m_virtual = virtual_;
    m_access = access }

let num_classes g = Array.length g.names
let num_edges g = g.num_edges
let name g c = g.names.(c)
let find g n = match Symtab.find_string g.ids n with -1 -> raise Not_found | c -> c
let find_opt g n = match Symtab.find_string g.ids n with -1 -> None | c -> Some c
let bases g c = Array.to_list g.base_edges.(c)
let num_bases g c = Array.length g.base_edges.(c)
let base g c i = g.base_edges.(c).(i)
let derived g c = g.derived_edges.(c)
let members g c = Array.to_list (chunked_get g.member_arrays c)

(* index of [m] among [c]'s own members, or -1: a plain loop that
   allocates nothing, since every column compile probes it once per
   class *)
let member_index g c m =
  let ms = chunked_get g.member_arrays c in
  let i = ref 0 in
  while !i < Array.length ms && not (String.equal ms.(!i).m_name m) do
    incr i
  done;
  if !i < Array.length ms then !i else -1

let find_member g c m =
  match member_index g c m with
  | -1 -> None
  | i -> Some (chunked_get g.member_arrays c).(i)

let declares g c m = member_index g c m >= 0

let num_member_names g = g.member_count
let member_name g id =
  if id < g.built then Symtab.name g.member_ids id
  else Imap.find id g.added_names

let declaring g m =
  match member_id g m with -1 -> [||] | id -> declarers_get g.declarers id

(* In class order, not the member index's: after {!with_member} the
   index numbers a new name after every other wherever it is declared,
   while the engines' tables and their snapshots number names in the
   order of the classes, and must number a mutated graph as they would
   the same graph built from scratch. *)
let member_names g =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun ms ->
      Array.iter
        (fun m ->
          if not (Hashtbl.mem seen m.m_name) then begin
            Hashtbl.add seen m.m_name ();
            out := m.m_name :: !out
          end)
        ms)
    (Array.concat (Array.to_list g.member_arrays));
  List.rev !out

let classes g = List.init (num_classes g) Fun.id

let iter_classes g f =
  for c = 0 to num_classes g - 1 do
    f c
  done

let pp ppf g =
  iter_classes g (fun c ->
      let pp_base ppf b =
        Format.fprintf ppf "%s%s"
          (match b.b_kind with Virtual -> "virtual " | Non_virtual -> "")
          g.names.(b.b_class)
      in
      let pp_member ppf m =
        Format.fprintf ppf "%s%s%s"
          (if m.m_static then "static " else "")
          (if m.m_virtual then "virtual " else "")
          m.m_name
      in
      Format.fprintf ppf "@[<h>class %s" g.names.(c);
      (match bases g c with
      | [] -> ()
      | bs ->
        Format.fprintf ppf " : %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             pp_base)
          bs);
      Format.fprintf ppf " { %a }@]@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           pp_member)
        (members g c))
