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

(* Per-class member arrays, in chunks of [chunk] classes: replacing one
   class's array ({!with_member}) copies the short outer array and one
   chunk, not one pointer per class.  Monomorphic, so an access compiles
   to plain loads. *)
let chunk_bits = 5
let chunk = 1 lsl chunk_bits

type chunked = member array array array

let chunked_get (a : chunked) i = a.(i lsr chunk_bits).(i land (chunk - 1))

let chunked_of_array arr : chunked =
  let n = Array.length arr in
  Array.init ((n + chunk - 1) / chunk) (fun k ->
      Array.sub arr (k * chunk) (min chunk (n - (k * chunk))))

(* [chunked_set a i v], or an append when [i] is the length *)
let chunked_set (a : chunked) i v : chunked =
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
  ids : (string, int) Hashtbl.t;
  base_edges : base array array;
  derived_edges : (int * edge_kind) list array;  (* reversed adjacency *)
  member_arrays : chunked;
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

type class_rec = {
  r_name : string;
  r_bases : base list;
  r_members : member list;
}

type builder = {
  mutable rev_classes : class_rec list;
  b_ids : (string, int) Hashtbl.t;
  mutable count : int;
}

let create_builder () = { rev_classes = []; b_ids = Hashtbl.create 16; count = 0 }

let check_members cls members =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.m_name then
        raise (Error (Duplicate_member { cls; member = m.m_name }));
      Hashtbl.add seen m.m_name ())
    members

(* The checks every class declaration passes, against the ids declared
   so far: a fresh name, distinct members, declared and distinct bases.
   Returns the resolved bases. *)
let resolve_class ids name ~bases ~members =
  if Hashtbl.mem ids name then raise (Error (Duplicate_class name));
  check_members name members;
  let seen_bases = Hashtbl.create 4 in
  let resolve (base_name, kind, acc) =
    match Hashtbl.find_opt ids base_name with
    | None -> raise (Error (Unknown_base { cls = name; base = base_name }))
    | Some id ->
      if Hashtbl.mem seen_bases base_name then
        raise (Error (Duplicate_base { cls = name; base = base_name }));
      Hashtbl.add seen_bases base_name ();
      { b_class = id; b_kind = kind; b_access = acc }
  in
  List.map resolve bases

let add_class b name ~bases ~members =
  let resolved = resolve_class b.b_ids name ~bases ~members in
  let id = b.count in
  Hashtbl.add b.b_ids name id;
  b.count <- b.count + 1;
  b.rev_classes <-
    { r_name = name; r_bases = resolved; r_members = members } :: b.rev_classes;
  id

let add_member b cls m =
  if not (Hashtbl.mem b.b_ids cls) then raise (Error (Unknown_class cls));
  b.rev_classes <-
    List.map
      (fun r ->
        if String.equal r.r_name cls then begin
          if List.exists (fun m' -> String.equal m'.m_name m.m_name) r.r_members
          then raise (Error (Duplicate_member { cls; member = m.m_name }));
          { r with r_members = r.r_members @ [ m ] }
        end
        else r)
      b.rev_classes

(* The graph of per-class arrays in id order; [ids] is kept as is. *)
let of_arrays names ids base_edges member_arrays =
  let n = Array.length names in
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
  { names; ids; base_edges; derived_edges;
    member_arrays = chunked_of_array member_arrays;
    num_edges = !num_edges }

let freeze b =
  let recs = Array.of_list (List.rev b.rev_classes) in
  of_arrays
    (Array.map (fun r -> r.r_name) recs)
    (Hashtbl.copy b.b_ids)
    (Array.map (fun r -> Array.of_list r.r_bases) recs)
    (Array.map (fun r -> Array.of_list r.r_members) recs)

let empty = freeze (create_builder ())

(* Persistent extension: the new graph shares every inner array with [g]
   except those it replaces — [g] itself never changes.  A new class
   copies the outer per-class arrays (one pointer per class) and the id
   table; a new member copies one chunk of member arrays. *)
let extend g name ~bases ~members =
  let resolved = resolve_class g.ids name ~bases ~members in
  let id = Array.length g.names in
  let ids = Hashtbl.copy g.ids in
  Hashtbl.add ids name id;
  let derived_edges = Array.append g.derived_edges [| [] |] in
  List.iter
    (fun e ->
      derived_edges.(e.b_class) <-
        derived_edges.(e.b_class) @ [ (id, e.b_kind) ])
    resolved;
  ( { names = Array.append g.names [| name |];
      ids;
      base_edges = Array.append g.base_edges [| Array.of_list resolved |];
      derived_edges;
      member_arrays = chunked_set g.member_arrays id (Array.of_list members);
      num_edges = g.num_edges + List.length resolved },
    id )

let with_member g cls m =
  match Hashtbl.find_opt g.ids cls with
  | None -> raise (Error (Unknown_class cls))
  | Some c ->
    let own = chunked_get g.member_arrays c in
    if Array.exists (fun m' -> String.equal m'.m_name m.m_name) own then
      raise (Error (Duplicate_member { cls; member = m.m_name }));
    { g with
      member_arrays = chunked_set g.member_arrays c (Array.append own [| m |]) }

type decl = {
  d_name : string;
  d_bases : (string * edge_kind * access) list;
  d_members : member list;
}

(* Classes in id order, bases already ids: the one-pass build behind
   {!of_ordered_decls} and the snapshot decode.  A repeated base shows
   as [last_derived] already holding the class, a repeated member as
   its name's entry in [last_declarer] already holding it. *)
type ordered = {
  mutable o_names : string array;
  o_ids : (string, int) Hashtbl.t;
  mutable o_bases : base array array;
  mutable o_members : member array array;
  mutable last_derived : int array;
  last_declarer : (string, int ref) Hashtbl.t;
  mutable o_count : int;
}

let ordered n =
  let n = max n 1 in
  { o_names = Array.make n ""; o_ids = Hashtbl.create n;
    o_bases = Array.make n [||]; o_members = Array.make n [||];
    last_derived = Array.make n (-1); last_declarer = Hashtbl.create n;
    o_count = 0 }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The checks of {!resolve_class}, in its order, against ids. *)
let add_ordered o name ~bases ~members =
  let c = o.o_count in
  if Hashtbl.mem o.o_ids name then raise (Error (Duplicate_class name));
  Array.iter
    (fun m ->
      match Hashtbl.find_opt o.last_declarer m.m_name with
      | Some last when !last = c ->
        raise (Error (Duplicate_member { cls = name; member = m.m_name }))
      | Some last -> last := c
      | None -> Hashtbl.add o.last_declarer m.m_name (ref c))
    members;
  Array.iter
    (fun b ->
      if b.b_class < 0 || b.b_class >= c then
        invalid_arg "Graph.add_ordered: a base must be an earlier class";
      if o.last_derived.(b.b_class) = c then
        raise
          (Error (Duplicate_base { cls = name; base = o.o_names.(b.b_class) }));
      o.last_derived.(b.b_class) <- c)
    bases;
  if c = Array.length o.o_names then begin
    o.o_names <- grow o.o_names "";
    o.o_bases <- grow o.o_bases [||];
    o.o_members <- grow o.o_members [||];
    o.last_derived <- grow o.last_derived (-1)
  end;
  Hashtbl.add o.o_ids name c;
  o.o_names.(c) <- name;
  o.o_bases.(c) <- bases;
  o.o_members.(c) <- members;
  o.o_count <- c + 1

let of_ordered o =
  let fit a = if Array.length a = o.o_count then a else Array.sub a 0 o.o_count in
  of_arrays (fit o.o_names) o.o_ids (fit o.o_bases) (fit o.o_members)

exception Irregular

(* The common case in one pass: every base declared before the classes
   deriving from it, as {!Serialize} writes them, so ids are list
   positions.  Raises [Irregular] at the first forward reference or
   unknown base, [Error] at a duplicate: the DFS path then sorts the
   list and reports every error. *)
let of_ordered_decls decls =
  let o = ordered (List.length decls) in
  List.iter
    (fun d ->
      let base (b, kind, acc) =
        match Hashtbl.find_opt o.o_ids b with
        | Some id -> { b_class = id; b_kind = kind; b_access = acc }
        | None -> raise Irregular
      in
      add_ordered o d.d_name
        ~bases:(Array.of_list (List.map base d.d_bases))
        ~members:(Array.of_list d.d_members))
    decls;
  of_ordered o

(* Topologically sort the declarations (bases first) with an explicit
   DFS so we can report a cycle as a witness path. *)
let of_decls_sorted decls =
  let by_name = Hashtbl.create 16 in
  match
    List.iter
      (fun d ->
        if Hashtbl.mem by_name d.d_name then
          raise (Error (Duplicate_class d.d_name));
        Hashtbl.add by_name d.d_name d)
      decls
  with
  | exception Error e -> Result.Error e
  | () ->
    let state = Hashtbl.create 16 in
    (* state: 0 = in progress, 1 = done *)
    let order = ref [] in
    let rec visit stack name =
      match Hashtbl.find_opt state name with
      | Some 1 -> ()
      | Some _ ->
        let cycle =
          let rec take = function
            | [] -> []
            | x :: rest -> if x = name then [ x ] else x :: take rest
          in
          name :: List.rev (take stack)
        in
        raise (Error (Cyclic_hierarchy cycle))
      | None ->
        (match Hashtbl.find_opt by_name name with
        | None -> ()  (* unknown base: reported by the builder below *)
        | Some d ->
          Hashtbl.add state name 0;
          List.iter (fun (b, _, _) -> visit (name :: stack) b) d.d_bases;
          Hashtbl.replace state name 1;
          order := d :: !order)
    in
    (match List.iter (fun d -> visit [] d.d_name) decls with
    | exception Error e -> Result.Error e
    | () ->
      let b = create_builder () in
      (match
         List.iter
           (fun d ->
             ignore (add_class b d.d_name ~bases:d.d_bases ~members:d.d_members))
           (List.rev !order)
       with
      | exception Error e -> Result.Error e
      | () -> Ok (freeze b)))

let of_decls decls =
  match of_ordered_decls decls with
  | g -> Ok g
  | exception (Irregular | Error _) -> of_decls_sorted decls

let member ?(kind = Data) ?(static = false) ?(virtual_ = false)
    ?(access = Public) name =
  { m_name = name; m_kind = kind; m_static = static; m_virtual = virtual_;
    m_access = access }

let num_classes g = Array.length g.names
let num_edges g = g.num_edges
let name g c = g.names.(c)
let find g n = Hashtbl.find g.ids n
let find_opt g n = Hashtbl.find_opt g.ids n
let bases g c = Array.to_list g.base_edges.(c)
let derived g c = g.derived_edges.(c)
let members g c = Array.to_list (chunked_get g.member_arrays c)

(* index of [m] among [c]'s own members, or -1: a plain loop, since
   lookups probe this once per combine *)
let member_index g c m =
  let ms = chunked_get g.member_arrays c in
  let rec go i =
    if i = Array.length ms then -1
    else if String.equal ms.(i).m_name m then i
    else go (i + 1)
  in
  go 0

let find_member g c m =
  match member_index g c m with
  | -1 -> None
  | i -> Some (chunked_get g.member_arrays c).(i)

let declares g c m = member_index g c m >= 0

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
