open Abstraction
module B = Chg.Binary

(* ---- column representation ----------------------------------------

   One member's verdicts over every class, with no boxing on the common
   path.  Entries are tagged immediate ints (low 2 bits):

     tag 0  absent      entry = 0
     tag 1  red         entry = (ldc * (n+1) + lv) << 2 | 1
                        (singleton group; lv codes Ω as n, Lv c as c)
     tag 2  red group   entry = (off << 2) | 2
                        arena[off] = ldc, arena[off+1] = len,
                        arena[off+2 ..] = len lv codes
     tag 3  blue        entry = (off << 2) | 3
                        arena[off] = len, arena[off+1 ..] = len lv codes

   Arena slices hold lv codes in the canonical verdict order
   (lv_compare: Ω first, then Lv ids increasing), so decoding is a
   straight map and two equal verdict sets always produce identical
   slices.  The arena is column-local: a column is a value, safe to
   share read-only across domains and to write byte-for-byte into a
   snapshot.

   A column's two flat int sequences live either on the OCaml heap
   ([Arr]) or as a slice of an external word buffer ([Big]) — typically
   a Bigarray mapped over a snapshot file's table-image section, so a
   restored column serves queries without ever being copied into the
   heap.  Both shapes answer through the same accessors; the mutation
   path ({!column_append}) always materializes to the heap. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type vec =
  | Arr of int array
  | Big of { vb : buf; vb_off : int; vb_len : int }

let vlen = function Arr a -> Array.length a | Big b -> b.vb_len

let vget v i =
  match v with
  | Arr a -> a.(i)
  | Big b ->
    if i < 0 || i >= b.vb_len then invalid_arg "Packed: view index out of range";
    Bigarray.Array1.unsafe_get b.vb (b.vb_off + i)

type column = {
  pc_classes : int;
  pc_entries : vec;
  pc_arena : vec;
}

let tag_absent = 0
let tag_red = 1
let tag_red_group = 2
let tag_blue = 3

let column_classes col = col.pc_classes
let column_is_view col =
  match col.pc_entries with Big _ -> true | Arr _ -> false

let column_equal (a : column) b =
  let veq x y =
    let n = vlen x in
    n = vlen y
    &&
    let rec go i = i >= n || (vget x i = vget y i && go (i + 1)) in
    go 0
  in
  a.pc_classes = b.pc_classes
  && veq a.pc_entries b.pc_entries
  && veq a.pc_arena b.pc_arena

(* Ω codes as n so that every lv of an n-class column fits [0, n] — the
   one value no class id can take. *)
let lv_code n = function
  | Omega -> n
  | Lv c ->
    if c < 0 || c >= n then invalid_arg "Packed: lv out of range";
    c

let lv_of_code n k = if k = n then Omega else Lv k

(* A growable int sequence: the arena under construction. *)
type ivec = { mutable iv : int array; mutable ilen : int }

let new_ivec () = { iv = [||]; ilen = 0 }

let ivec_push v x =
  if v.ilen = Array.length v.iv then begin
    let fresh = Array.make (max 16 (2 * v.ilen)) 0 in
    Array.blit v.iv 0 fresh 0 v.ilen;
    v.iv <- fresh
  end;
  v.iv.(v.ilen) <- x;
  v.ilen <- v.ilen + 1

let ivec_contents v =
  if v.ilen = Array.length v.iv then v.iv else Array.sub v.iv 0 v.ilen

(* The entry of verdict [v] in an n-class column; a group or blue
   verdict appends its slice to [arena]. *)
let encode_entry n arena v =
  match v with
  | None -> tag_absent
  | Some (Engine.Red { r_ldc; r_lvs = [ lv ] }) ->
    if r_ldc < 0 || r_ldc >= n then invalid_arg "Packed: ldc out of range";
    (((r_ldc * (n + 1)) + lv_code n lv) lsl 2) lor tag_red
  | Some (Engine.Red { r_ldc; r_lvs }) ->
    if r_ldc < 0 || r_ldc >= n then invalid_arg "Packed: ldc out of range";
    let off = arena.ilen in
    ivec_push arena r_ldc;
    ivec_push arena (List.length r_lvs);
    List.iter (fun lv -> ivec_push arena (lv_code n lv)) r_lvs;
    (off lsl 2) lor tag_red_group
  | Some (Engine.Blue lvs) ->
    let off = arena.ilen in
    ivec_push arena (List.length lvs);
    List.iter (fun lv -> ivec_push arena (lv_code n lv)) lvs;
    (off lsl 2) lor tag_blue

let check_classes n =
  (* (n+1)^2 must fit in an immediate int once shifted past the tag *)
  if n >= 1 lsl 30 then invalid_arg "Packed.pack_column: too many classes"

let pack_column col =
  let n = Array.length col in
  check_classes n;
  let arena = new_ivec () in
  let entries = Array.make n tag_absent in
  Array.iteri (fun c v -> entries.(c) <- encode_entry n arena v) col;
  { pc_classes = n; pc_entries = Arr entries; pc_arena = Arr (ivec_contents arena) }

(* ---- the packed sweep ----------------------------------------------

   One member's column in one increasing pass over class ids (bases
   before derived), written straight into packed entries: Figure 8 with
   the boxed verdicts, member sets and table rows of
   {!Engine.build_member} taken out.  A base's verdict is read back
   from the column under construction — its entry, and its arena slice
   for a group or a blue set — so [entries] and the arena are the only
   per-class state.  The combine step is {!Engine.combine_incoming}'s,
   over ints: incoming reds become (ldc, lv) atoms, blue sets are
   merged, the maximal atoms decide, with the same dominance probes in
   the same order (the counters match the reference's exactly).

   In the scratch buffers an lv is an int with Ω as -1, so int order is
   [lv_compare]'s; arena slices code Ω as n (see above). *)

type scratch = {
  atom_l : ivec;  (* atom ldcs *)
  atom_v : ivec;  (* atom lvs, parallel to [atom_l] *)
  maximal : ivec;  (* indices of the maximal atoms, in atom order *)
  lvs : ivec;  (* the maximal lvs, sorted and distinct *)
  mutable incoming : ivec;  (* one incoming slice, pushed through its edge *)
  mutable blues : ivec;  (* the union of incoming blue sets, sorted *)
  mutable spare : ivec;  (* the other half of the union's double buffer *)
}

let red_immediate n ldc lv =
  (((ldc * (n + 1)) + (if lv < 0 then n else lv)) lsl 2) lor tag_red

(* Push the canonical slice [src.(off) .. src.(off+len-1)] through an
   edge from base [x] into [dst] (cleared first), sorted: [o] rewrites
   only Ω, which leads a canonical slice, and over a virtual edge it
   becomes [Lv x] — one ordered insertion. *)
let extend_slice dst src off len ~n ~virt ~x =
  dst.ilen <- 0;
  if virt && len > 0 && src.(off) = n then begin
    let placed = ref false in
    for i = off + 1 to off + len - 1 do
      let v = src.(i) in
      if (not !placed) && v >= x then begin
        placed := true;
        if v > x then ivec_push dst x
      end;
      ivec_push dst v
    done;
    if not !placed then ivec_push dst x
  end
  else
    for i = off to off + len - 1 do
      let v = src.(i) in
      ivec_push dst (if v = n then -1 else v)
    done

(* [out] := the union of the sorted, distinct [a] and [b] *)
let union_into out a b =
  out.ilen <- 0;
  let i = ref 0 and j = ref 0 in
  while !i < a.ilen || !j < b.ilen do
    if !j >= b.ilen || (!i < a.ilen && a.iv.(!i) < b.iv.(!j)) then begin
      ivec_push out a.iv.(!i);
      incr i
    end
    else begin
      if !i < a.ilen && a.iv.(!i) = b.iv.(!j) then incr i;
      ivec_push out b.iv.(!j);
      incr j
    end
  done

(* [s.blues] := its union with [s.incoming] (taken over whole when
   [s.blues] is empty, the one-blue-base case) *)
let merge_blues s =
  let a = s.blues in
  if a.ilen = 0 then begin
    s.blues <- s.incoming;
    s.incoming <- a
  end
  else begin
    union_into s.spare a s.incoming;
    s.blues <- s.spare;
    s.spare <- a
  end

(* Append [set] to the arena as a slice, Ω coded as n. *)
let push_lvs arena n set =
  for k = 0 to set.ilen - 1 do
    let v = set.iv.(k) in
    ivec_push arena (if v < 0 then n else v)
  done

(* Atoms with equal (L, V), V ≠ Ω, are one subobject: kept once. *)
let add_atom s l v =
  let dup = ref false in
  if v >= 0 then
    for k = 0 to s.atom_l.ilen - 1 do
      if s.atom_l.iv.(k) = l && s.atom_v.iv.(k) = v then dup := true
    done;
  if not !dup then begin
    ivec_push s.atom_l l;
    ivec_push s.atom_v v
  end

(* [s.lvs] := the maximal atoms' lvs, sorted and distinct *)
let maximal_lvs s =
  let lvs = s.lvs in
  lvs.ilen <- 0;
  for k = 0 to s.maximal.ilen - 1 do
    let v = s.atom_v.iv.(s.maximal.iv.(k)) in
    let i = ref 0 in
    while !i < lvs.ilen && lvs.iv.(!i) < v do incr i done;
    if !i = lvs.ilen || lvs.iv.(!i) <> v then begin
      ivec_push lvs 0;
      Array.blit lvs.iv !i lvs.iv (!i + 1) (lvs.ilen - 1 - !i);
      lvs.iv.(!i) <- v
    end
  done

let compile_column ?(static_rule = true) ?(metrics = Metrics.disabled) cl m =
  let g = Chg.Closure.graph cl in
  let n = Chg.Graph.num_classes g in
  check_classes n;
  let entries = Array.make n tag_absent in
  let arena = new_ivec () in
  let s =
    { atom_l = new_ivec (); atom_v = new_ivec (); maximal = new_ivec ();
      lvs = new_ivec (); incoming = new_ivec (); blues = new_ivec ();
      spare = new_ivec () }
  in
  let bump c = Metrics.bump metrics c in
  (* the Lemma-4 probes of [Abstraction.dominates1] and
     [dominates_blue], one count each *)
  let dom1 l1 v1 v2 =
    bump metrics.Metrics.dominance_probes;
    (v2 >= 0 && Chg.Closure.is_virtual_base cl v2 l1) || (v1 = v2 && v1 >= 0)
  in
  let dom_blue l b ~lv =
    bump metrics.Metrics.dominance_probes;
    b >= 0 && (Chg.Closure.is_virtual_base cl b l || b = lv)
  in
  (* [dom_blue] against the group [l, s.lvs] *)
  let dom_blue_group l b =
    bump metrics.Metrics.dominance_probes;
    b >= 0
    && (Chg.Closure.is_virtual_base cl b l
       ||
       let found = ref false in
       for k = 0 to s.lvs.ilen - 1 do
         if s.lvs.iv.(k) = b then found := true
       done;
       !found)
  in
  let is_static_at l =
    static_rule
    &&
    match Chg.Graph.find_member g l m with
    | Some mem -> Chg.Graph.member_is_static_like mem
    | None -> false
  in
  (* the combine step for class [c], whose direct bases' verdicts are
     in [entries]: its entry, appending a group or blue slice *)
  let combine c =
    s.atom_l.ilen <- 0;
    s.atom_v.ilen <- 0;
    s.blues.ilen <- 0;
    let any_red = ref false in
    for i = 0 to Chg.Graph.num_bases g c - 1 do
      let b = Chg.Graph.base g c i in
      let x = b.Chg.Graph.b_class in
      let virt = b.Chg.Graph.b_kind = Chg.Graph.Virtual in
      bump metrics.Metrics.edge_traversals;
      let e = entries.(x) in
      match e land 3 with
      | 0 -> ()
      | 1 ->
        any_red := true;
        bump metrics.Metrics.o_extensions;
        let k = e lsr 2 in
        let l = k / (n + 1) and v = k mod (n + 1) in
        add_atom s l (if v < n then v else if virt then x else -1)
      | 2 ->
        any_red := true;
        let off = e lsr 2 in
        let l = arena.iv.(off) and len = arena.iv.(off + 1) in
        Metrics.bump_n metrics metrics.Metrics.o_extensions len;
        extend_slice s.incoming arena.iv (off + 2) len ~n ~virt ~x;
        for k = 0 to s.incoming.ilen - 1 do
          add_atom s l s.incoming.iv.(k)
        done
      | _ ->
        let off = e lsr 2 in
        let len = arena.iv.(off) in
        Metrics.bump_n metrics metrics.Metrics.o_extensions len;
        extend_slice s.incoming arena.iv (off + 1) len ~n ~virt ~x;
        merge_blues s
    done;
    (* the maximal atoms: those no other atom strictly dominates *)
    let atoms = s.atom_l.ilen in
    let al = s.atom_l.iv and av = s.atom_v.iv in
    s.maximal.ilen <- 0;
    for a = 0 to atoms - 1 do
      let dominated = ref false and k = ref 0 in
      while (not !dominated) && !k < atoms do
        if dom1 al.(!k) av.(!k) av.(a) && not (dom1 al.(a) av.(a) av.(!k))
        then dominated := true;
        incr k
      done;
      if not !dominated then ivec_push s.maximal a
    done;
    let mx = s.maximal in
    let blues = s.blues in
    let red =
      mx.ilen > 0
      &&
      let l = al.(mx.iv.(0)) in
      let same = ref true in
      for k = 1 to mx.ilen - 1 do
        if al.(mx.iv.(k)) <> l then same := false
      done;
      !same
      && (mx.ilen = 1 || is_static_at l)
      &&
      (maximal_lvs s;
       let all = ref true and k = ref 0 in
       while !all && !k < blues.ilen do
         all := dom_blue_group l blues.iv.(!k);
         incr k
       done;
       !all)
    in
    if red then begin
      bump metrics.Metrics.red_verdicts;
      let l = al.(mx.iv.(0)) and lvs = s.lvs in
      if lvs.ilen = 1 then red_immediate n l lvs.iv.(0)
      else begin
        let off = arena.ilen in
        ivec_push arena l;
        ivec_push arena lvs.ilen;
        push_lvs arena n lvs;
        (off lsl 2) lor tag_red_group
      end
    end
    else begin
      (* Blue: the maximal lvs plus the blues no maximal atom dominates
         (with no maximal atom, the blues as they are) *)
      let set =
        if mx.ilen = 0 then blues
        else begin
          maximal_lvs s;
          let kept = s.incoming in
          kept.ilen <- 0;
          for k = 0 to blues.ilen - 1 do
            let b = blues.iv.(k) in
            let dominated = ref false and j = ref 0 in
            while (not !dominated) && !j < mx.ilen do
              let a = mx.iv.(!j) in
              if dom_blue al.(a) b ~lv:av.(a) then dominated := true;
              incr j
            done;
            if not !dominated then ivec_push kept b
          done;
          union_into s.spare s.lvs kept;
          s.spare
        end
      in
      bump metrics.Metrics.blue_verdicts;
      if Metrics.enabled metrics && !any_red then
        bump metrics.Metrics.red_demotions;
      let off = arena.ilen in
      ivec_push arena set.ilen;
      push_lvs arena n set;
      (off lsl 2) lor tag_blue
    end
  in
  (* the classes declaring [m], increasing: the sweep meets them in
     order, so a cursor into the graph's member index replaces a scan
     of each class's members *)
  let declaring = Chg.Graph.declaring g m in
  let next = ref 0 in
  for c = 0 to n - 1 do
    bump metrics.Metrics.classes_visited;
    if !next < Array.length declaring && declaring.(!next) = c then begin
      incr next;
      (* Figure 8 lines [11]-[12]: a generated definition kills all *)
      bump metrics.Metrics.members_processed;
      bump metrics.Metrics.declared_kills;
      bump metrics.Metrics.red_verdicts;
      entries.(c) <- red_immediate n c (-1)
    end
    else begin
      let inherited = ref false in
      for i = 0 to Chg.Graph.num_bases g c - 1 do
        if entries.((Chg.Graph.base g c i).Chg.Graph.b_class) <> tag_absent
        then inherited := true
      done;
      if !inherited then begin
        bump metrics.Metrics.members_processed;
        entries.(c) <- combine c
      end
    end
  done;
  { pc_classes = n; pc_entries = Arr entries; pc_arena = Arr (ivec_contents arena) }

let column_get col c =
  let e = vget col.pc_entries c in
  let n = col.pc_classes in
  match e land 3 with
  | 0 -> None
  | 1 ->
    let v = e lsr 2 in
    Some
      (Engine.Red { r_ldc = v / (n + 1); r_lvs = [ lv_of_code n (v mod (n + 1)) ] })
  | 2 ->
    let off = e lsr 2 in
    let ldc = vget col.pc_arena off and len = vget col.pc_arena (off + 1) in
    Some
      (Engine.Red
         { r_ldc = ldc;
           r_lvs = List.init len (fun i -> lv_of_code n (vget col.pc_arena (off + 2 + i)))
         })
  | _ ->
    let off = e lsr 2 in
    let len = vget col.pc_arena off in
    Some
      (Engine.Blue
         (List.init len (fun i -> lv_of_code n (vget col.pc_arena (off + 1 + i)))))

let column_color col c =
  match vget col.pc_entries c land 3 with
  | 0 -> `Absent
  | 1 | 2 -> `Red
  | _ -> `Blue

let column_resolves_to col c =
  let e = vget col.pc_entries c in
  match e land 3 with
  | 1 -> Some (e lsr 2 / (col.pc_classes + 1))
  | 2 -> Some (vget col.pc_arena (e lsr 2))
  | _ -> None

(* The int-only classification the binary hot path encodes from: no
   option, no allocation.  [-1] absent, [-2] ambiguous (blue), a class
   id = the declaring class of an unambiguous lookup. *)
let column_resolve_code col c =
  let e = vget col.pc_entries c in
  match e land 3 with
  | 0 -> -1
  | 1 -> e lsr 2 / (col.pc_classes + 1)
  | 2 -> vget col.pc_arena (e lsr 2)
  | _ -> -2

let unpack_column col = Array.init col.pc_classes (column_get col)

(* Appends are the add_class mutation path.  The coding base is the
   class count, so growing the universe from n to n+1 re-bases every
   code in integers: a red immediate ldc·(n+1)+lv becomes ldc·(n+2)+lv',
   and Ω, coded as n, becomes n+1 wherever an lv code sits — in red
   immediates and in arena lv slots.  Every other arena word (ldcs,
   lengths, lv class ids) and every slice offset is copied as it is.
   One O(entries + arena) pass, no verdict is built.  A mapped view
   materializes to the heap here: mutations never write through to a
   snapshot file. *)
let column_append col v =
  let n = col.pc_classes in
  let n' = n + 1 in
  check_classes n';
  (* plain heap arrays to read from: a heap column's own (read-only
     here), a mapped view's copied out once *)
  let ints = function Arr a -> a | Big _ as b -> Array.init (vlen b) (vget b) in
  let src = ints col.pc_arena and old = ints col.pc_entries in
  let arena = Array.copy src in
  let entries = Array.make n' tag_absent in
  for c = 0 to n - 1 do
    let e = old.(c) in
    match e land 3 with
    | 0 -> ()
    | 1 ->
      let k = e lsr 2 in
      let ldc = k / (n + 1) in
      let lv = k - (ldc * (n + 1)) in
      let lv = if lv = n then n' else lv in
      entries.(c) <- (((ldc * (n' + 1)) + lv) lsl 2) lor tag_red
    | tag ->
      (* recode from the source, so a slice shared by several entries
         is recoded to the same words however often it is visited *)
      let off = e lsr 2 in
      let lvs = if tag = tag_red_group then off + 2 else off + 1 in
      for i = lvs to lvs + src.(lvs - 1) - 1 do
        if src.(i) = n then arena.(i) <- n'
      done;
      entries.(c) <- e
  done;
  let arena = { iv = arena; ilen = Array.length arena } in
  entries.(n) <- encode_entry n' arena v;
  { pc_classes = n'; pc_entries = Arr entries; pc_arena = Arr (ivec_contents arena) }

(* Budgeted size: two flat int sequences plus the record, in bytes.
   Deliberately representation-independent — a mapped view charges the
   same as its heap twin, so cache accounting (and the stats wire
   shapes) are identical whichever restore path produced the column. *)
let column_bytes col =
  8 * (4 + vlen col.pc_entries + vlen col.pc_arena)

(* What the same column costs boxed (the heap-words estimator the table
   cache budgeted with before packing): option + verdict constructor +
   list spine per entry.  Kept for packed-vs-boxed reporting. *)
let boxed_column_bytes col =
  let words = ref 0 in
  for c = 0 to vlen col.pc_entries - 1 do
    let e = vget col.pc_entries c in
    words :=
      !words
      +
      match e land 3 with
      | 0 -> 1
      | 1 -> 4 + 2
      | 2 -> 4 + (2 * vget col.pc_arena ((e lsr 2) + 1))
      | _ -> 2 + (2 * vget col.pc_arena (e lsr 2))
  done;
  8 * (2 + vlen col.pc_entries + !words)

(* ---- column codec --------------------------------------------------
   Little-endian, deterministic: u32 class count, u32 arena length,
   entries as i64 (a packed red immediate exceeds u32 past ~2^15
   classes), arena as u32. *)

let corrupt fmt = Printf.ksprintf (fun m -> raise (B.Corrupt m)) fmt

let write_column w col =
  B.Writer.u32 w col.pc_classes;
  B.Writer.u32 w (vlen col.pc_arena);
  for c = 0 to vlen col.pc_entries - 1 do
    B.Writer.i64 w (vget col.pc_entries c)
  done;
  for i = 0 to vlen col.pc_arena - 1 do
    B.Writer.u32 w (vget col.pc_arena i)
  done

(* Shared validation over the accessor layer: every tag, arena offset,
   slice bound and lv code of [col] is checked, so any column — decoded,
   image-decoded, or mapped — can be proven well-formed before it
   serves.  Raises {!Chg.Binary.Corrupt}. *)
let validate_column ?(what = "packed column") col =
  let n = col.pc_classes in
  let alen = vlen col.pc_arena in
  if vlen col.pc_entries <> n then
    corrupt "%s: %d entries for %d classes" what (vlen col.pc_entries) n;
  let check_lv where k =
    if k < 0 || k > n then corrupt "%s: bad lv code %d in %s" what k where
  in
  for c = 0 to n - 1 do
    let e = vget col.pc_entries c in
    match e land 3 with
    | 0 -> if e <> 0 then corrupt "%s: bad absent entry at %d" what c
    | 1 ->
      let v = e lsr 2 in
      if v >= (n + 1) * (n + 1) then
        corrupt "%s: red immediate out of range at %d" what c;
      check_lv "red" (v mod (n + 1))
    | tag ->
      let off = e lsr 2 in
      let header = if tag = tag_red_group then 2 else 1 in
      if off + header > alen then
        corrupt "%s: arena offset %d out of range at %d" what off c;
      let len = vget col.pc_arena (off + header - 1) in
      if len < 0 || off + header + len > alen then
        corrupt "%s: arena slice [%d..+%d] out of range at %d" what off len c;
      if tag = tag_red_group && vget col.pc_arena off >= n then
        corrupt "%s: group ldc %d out of range at %d" what
          (vget col.pc_arena off) c;
      for i = 0 to len - 1 do
        check_lv "arena slice" (vget col.pc_arena (off + header + i))
      done
  done

(* ---- the table image ------------------------------------------------

   A whole table of columns as one position-independent byte payload,
   laid out so the word area can be served in place from a memory-mapped
   snapshot file: every value is a 64-bit little-endian word holding an
   OCaml immediate int, every reference is an offset relative to the
   word area, and the word area itself starts 8-byte-aligned in the
   file (the writer pads for the file offset it is told).

   Payload layout:

     u32  names_len          byte length of the names blob
     names blob              u32 count, then count length-prefixed names
     u32  pad_len            0..7 zero bytes
     pad                     aligns the word area to 8 in the file
     word area               little-endian 64-bit words:
       w[0]                  probe constant (magic + endian/word check)
       w[1]                  m, the column (member) count
       w[2]                  n, the class count (shared by all columns)
       w[3 .. 3+m]           arena directory: arena_off[0..m], words,
                             nondecreasing, arena_off[0] = 0 and
                             arena_off[m] = total arena words
       entries               column i at word (m+4) + i*n, n words each
       arena                 column i's slice at arena_base + arena_off[i]

   The probe word is the first defense: a file written on (or read as)
   the wrong word size or endianness cannot reproduce it, and the reader
   falls back to the byte-at-a-time codec instead of mis-mapping. *)

let image_probe = 0x314C42544C5843 (* "CXLTBL1\x00", little-endian *)

let image_all_heap cols =
  (* the image shares one [n] across all columns; enforce the snapshot
     invariant rather than silently truncate *)
  match cols with
  | [] -> 0
  | (_, c0) :: rest ->
    List.iter
      (fun (m, c) ->
        if c.pc_classes <> c0.pc_classes then
          invalid_arg
            (Printf.sprintf
               "Packed.write_image: column %S has %d classes, expected %d" m
               c.pc_classes c0.pc_classes))
      rest;
    c0.pc_classes

let names_blob cols =
  let w = B.Writer.create () in
  B.Writer.u32 w (List.length cols);
  List.iter (fun (m, _) -> B.Writer.string w m) cols;
  B.Writer.contents w

let write_image w ~file_offset cols =
  let n = image_all_heap cols in
  let names = names_blob cols in
  let header_len = String.length names in
  let word_start = file_offset + 4 + header_len + 4 in
  let pad = (8 - (word_start mod 8)) mod 8 in
  B.Writer.u32 w header_len;
  B.Writer.raw w names;
  B.Writer.u32 w pad;
  B.Writer.raw w (String.make pad '\000');
  let m = List.length cols in
  B.Writer.i64 w image_probe;
  B.Writer.i64 w m;
  B.Writer.i64 w n;
  let off = ref 0 in
  List.iter
    (fun (_, c) ->
      B.Writer.i64 w !off;
      off := !off + vlen c.pc_arena)
    cols;
  B.Writer.i64 w !off;
  List.iter
    (fun (_, c) ->
      for i = 0 to n - 1 do
        B.Writer.i64 w (vget c.pc_entries i)
      done)
    cols;
  List.iter
    (fun (_, c) ->
      for i = 0 to vlen c.pc_arena - 1 do
        B.Writer.i64 w (vget c.pc_arena i)
      done)
    cols

(* Parse the byte-addressed prefix of an image payload: the member
   names and the byte offset of the word area within the payload. *)
let image_header r =
  let header_len = B.Reader.u32 r in
  let names_r = B.Reader.of_string (B.Reader.raw r header_len) in
  let count = B.Reader.u32 names_r in
  if count > header_len then corrupt "table image: %d names in %d bytes" count header_len;
  let names = Array.init count (fun _ -> B.Reader.string names_r) in
  let pad = B.Reader.u32 r in
  if pad > 7 then corrupt "table image: pad of %d bytes" pad;
  let z = B.Reader.raw r pad in
  String.iter (fun c -> if c <> '\000' then corrupt "table image: non-zero pad") z;
  (names, 4 + header_len + 4 + pad)

(* The byte-at-a-time fallback: decode the image payload into heap
   columns, fully validated — the path taken when the file cannot be
   mapped (legacy reader, unaligned section, no-mmap filesystem). *)
let read_image r =
  let names, _ = image_header r in
  if B.Reader.remaining r mod 8 <> 0 then
    corrupt "table image: word area is %d bytes, not 8-aligned"
      (B.Reader.remaining r);
  let words = B.Reader.remaining r / 8 in
  if words < 3 then corrupt "table image: word area too small (%d words)" words;
  if B.Reader.i64 r <> image_probe then
    corrupt "table image: bad probe word";
  let m = B.Reader.i64 r in
  let n = B.Reader.i64 r in
  if m <> Array.length names then
    corrupt "table image: %d columns for %d names" m (Array.length names);
  if n < 0 || m < 0 || n >= 1 lsl 30 then
    corrupt "table image: bad dimensions (%d columns, %d classes)" m n;
  if words < m + 4 then corrupt "table image: truncated directory";
  let dir = Array.init (m + 1) (fun _ -> B.Reader.i64 r) in
  Array.iteri
    (fun i o ->
      if o < 0 || (i > 0 && o < dir.(i - 1)) then
        corrupt "table image: arena directory not nondecreasing")
    dir;
  if dir.(0) <> 0 then corrupt "table image: arena directory must start at 0";
  if words <> m + 4 + (m * n) + dir.(m) then
    corrupt "table image: %d words, expected %d" words (m + 4 + (m * n) + dir.(m));
  let entries = Array.init m (fun _ -> Array.init n (fun _ -> B.Reader.i64 r)) in
  let arena = Array.init dir.(m) (fun _ -> B.Reader.i64 r) in
  List.init m (fun i ->
      let col =
        { pc_classes = n;
          pc_entries = Arr entries.(i);
          pc_arena = Arr (Array.sub arena dir.(i) (dir.(i + 1) - dir.(i))) }
      in
      validate_column ~what:(Printf.sprintf "table image column %S" names.(i)) col;
      (names.(i), col))

(* Zero-copy: build column views straight over the mapped word area.
   Validation here is O(m) — probe, dimensions, directory — not O(size):
   per-word integrity is the CRC's job (when the caller verified it) and
   the accessors' bounds checks keep even a corrupt fast-mode file from
   reading outside the mapping.  Raises {!Chg.Binary.Corrupt}. *)
let map_image buf ~names =
  let dim = Bigarray.Array1.dim buf in
  if dim < 3 then corrupt "table image: mapped area too small (%d words)" dim;
  if Bigarray.Array1.get buf 0 <> image_probe then
    corrupt "table image: bad probe word (endianness or word size mismatch)";
  let m = Bigarray.Array1.get buf 1 in
  let n = Bigarray.Array1.get buf 2 in
  if m <> Array.length names then
    corrupt "table image: %d columns for %d names" m (Array.length names);
  if n < 0 || n >= 1 lsl 30 then corrupt "table image: bad class count %d" n;
  if dim < m + 4 then corrupt "table image: truncated directory";
  let dir_at i = Bigarray.Array1.get buf (3 + i) in
  for i = 0 to m do
    let o = dir_at i in
    if o < 0 || (i > 0 && o < dir_at (i - 1)) then
      corrupt "table image: arena directory not nondecreasing"
  done;
  if m > 0 && dir_at 0 <> 0 then
    corrupt "table image: arena directory must start at 0";
  let entries_base = m + 4 in
  let arena_base = entries_base + (m * n) in
  if dim <> arena_base + dir_at m then
    corrupt "table image: %d words, expected %d" dim (arena_base + dir_at m);
  List.init m (fun i ->
      ( names.(i),
        { pc_classes = n;
          pc_entries = Big { vb = buf; vb_off = entries_base + (i * n); vb_len = n };
          pc_arena =
            Big
              { vb = buf;
                vb_off = arena_base + dir_at i;
                vb_len = dir_at (i + 1) - dir_at i } } ))

(* ---- whole tables --------------------------------------------------- *)

type t = {
  g : Chg.Graph.t;
  cl : Chg.Closure.t;
  member_ids : (string, int) Hashtbl.t;
  member_names : string array;
  columns : column array;  (* by member id *)
}

let graph t = t.g
let closure t = t.cl
let member_universe t = Array.copy t.member_names
let num_members t = Array.length t.member_names

let find_column t m =
  Option.map (fun mid -> t.columns.(mid)) (Hashtbl.find_opt t.member_ids m)

let lookup t c m =
  match Hashtbl.find_opt t.member_ids m with
  | None -> None
  | Some mid -> column_get t.columns.(mid) c

let resolves_to t c m =
  match Hashtbl.find_opt t.member_ids m with
  | None -> None
  | Some mid -> column_resolves_to t.columns.(mid) c

let columns t =
  Array.to_list (Array.mapi (fun mid col -> (t.member_names.(mid), col)) t.columns)

let bytes t = Array.fold_left (fun acc c -> acc + column_bytes c) 0 t.columns

let boxed_bytes t =
  Array.fold_left (fun acc c -> acc + boxed_column_bytes c) 0 t.columns

let ids_of_names names =
  let ids = Hashtbl.create (max 16 (Array.length names)) in
  Array.iteri (fun mid name -> Hashtbl.replace ids name mid) names;
  ids

let of_engine e =
  let names = Engine.member_universe e in
  { g = Engine.graph e;
    cl = Engine.closure e;
    member_ids = ids_of_names names;
    member_names = names;
    columns = Array.map (fun m -> pack_column (Engine.column e m)) names }

let to_engine t =
  Engine.of_columns t.cl ~names:t.member_names
    ~columns:(Array.map unpack_column t.columns)

(* The table encoding is the determinism witness: member count, then
   each name and column in member-id (first-declaration) order.  Two
   builds of the same hierarchy are byte-identical here iff they packed
   identical verdicts in identical order — regardless of how many
   domains compiled them. *)
let encode t =
  let w = B.Writer.create ~initial_size:4096 () in
  B.Writer.u32 w (Array.length t.member_names);
  Array.iteri
    (fun mid name ->
      B.Writer.string w name;
      write_column w t.columns.(mid))
    t.member_names;
  B.Writer.contents w

(* ---- parallel compilation ------------------------------------------

   Members are embarrassingly parallel: each column is one independent
   topological pass over the shared read-only CHG + closure.  A single
   atomic cursor fans member ids out to [jobs] domains; every column
   lands in its own slot of a preallocated array, so the result is
   bit-identical for any job count or schedule.  Worker domains bump
   private metrics bags, merged at join (counters only — per-domain
   event traces are not propagated). *)

let default_jobs () =
  match Sys.getenv_opt "CXXLOOKUP_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let empty_column = { pc_classes = 0; pc_entries = Arr [||]; pc_arena = Arr [||] }

let build ?(static_rule = true) ?(jobs = 1) ?(metrics = Metrics.disabled) cl =
  if jobs < 1 then invalid_arg "Packed.build: jobs must be >= 1";
  let g = Chg.Closure.graph cl in
  (* member universe in first-declaration order — the eager engine's
     interning order, so member ids line up with Engine.build *)
  let names = Array.of_list (Chg.Graph.member_names g) in
  let member_ids = Hashtbl.create 64 in
  Array.iteri (fun id m -> Hashtbl.add member_ids m id) names;
  let nm = Array.length names in
  let columns = Array.make nm empty_column in
  let compile_one bag i =
    let before = Telemetry.Counter.value bag.Metrics.edge_traversals in
    columns.(i) <- compile_column ~static_rule ~metrics:bag cl names.(i);
    (* bags are domain-private, so the counter delta is this column's
       cost alone — one histogram observation per compiled column *)
    Metrics.observe_column bag
      ~cost:(Telemetry.Counter.value bag.Metrics.edge_traversals - before)
  in
  let jobs = min jobs (max 1 nm) in
  Metrics.time_build metrics (fun () ->
      if jobs = 1 then
        for i = 0 to nm - 1 do
          compile_one metrics i
        done
      else begin
        let next = Atomic.make 0 in
        let worker bag () =
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < nm then begin
              compile_one bag i;
              loop ()
            end
          in
          loop ()
        in
        let bags =
          Array.init jobs (fun _ ->
              if Metrics.enabled metrics then Metrics.create ()
              else Metrics.disabled)
        in
        let others =
          Array.init (jobs - 1) (fun k -> Domain.spawn (worker bags.(k + 1)))
        in
        worker bags.(0) ();
        Array.iter Domain.join others;
        Array.iter (fun b -> Metrics.merge_into ~into:metrics b) bags
      end);
  { g; cl; member_ids; member_names = names; columns }
