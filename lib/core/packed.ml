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
  let arena = { iv = [||]; ilen = 0 } in
  let entries = Array.make n tag_absent in
  Array.iteri (fun c v -> entries.(c) <- encode_entry n arena v) col;
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
   classes), arena as u32.  Readers validate tags, offsets and codes so
   a corrupt snapshot section fails loud, not subtly wrong. *)

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

let read_column r =
  let n = B.Reader.u32 r in
  let alen = B.Reader.u32 r in
  if (8 * n) + (4 * alen) > B.Reader.remaining r then
    corrupt "packed column larger than its payload (%d classes, %d arena)" n
      alen;
  let entries = Array.init n (fun _ -> B.Reader.i64 r) in
  let arena = Array.init alen (fun _ -> B.Reader.u32 r) in
  let col = { pc_classes = n; pc_entries = Arr entries; pc_arena = Arr arena } in
  validate_column col;
  col

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
  let member_ids = Hashtbl.create 64 in
  let rev_names = ref [] in
  Chg.Graph.iter_classes g (fun c ->
      List.iter
        (fun (mem : Chg.Graph.member) ->
          if not (Hashtbl.mem member_ids mem.m_name) then begin
            Hashtbl.add member_ids mem.m_name (Hashtbl.length member_ids);
            rev_names := mem.m_name :: !rev_names
          end)
        (Chg.Graph.members g c));
  let names = Array.of_list (List.rev !rev_names) in
  let nm = Array.length names in
  let columns = Array.make nm empty_column in
  let compile_one bag i =
    let before = Telemetry.Counter.value bag.Metrics.edge_traversals in
    let eng = Engine.build_member ~static_rule ~metrics:bag cl names.(i) in
    columns.(i) <- pack_column (Engine.column eng names.(i));
    (* bags are domain-private, so the counter delta is this column's
       cost alone — one histogram observation per compiled column *)
    Metrics.observe_column bag
      ~cost:(Telemetry.Counter.value bag.Metrics.edge_traversals - before)
  in
  let jobs = min jobs (max 1 nm) in
  if jobs = 1 then
    for i = 0 to nm - 1 do
      compile_one metrics i
    done
  else
    Telemetry.Timer.span metrics.Metrics.build_timer (fun () ->
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
        Array.iter (fun b -> Metrics.merge_into ~into:metrics b) bags);
  { g; cl; member_ids; member_names = names; columns }
