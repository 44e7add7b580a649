exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ---- CRC-32 (IEEE 802.3, reflected 0xEDB88320) --------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 ?(crc = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Binary.crc32";
  let table = Lazy.force crc_table in
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xffl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let crc32_string s = crc32 s ~pos:0 ~len:(String.length s)

(* ---- Writer -------------------------------------------------------- *)

module Writer = struct
  type t = Buffer.t

  let create ?(initial_size = 256) () = Buffer.create initial_size
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    if v < 0 || v > 0xffffffff then invalid_arg "Binary.Writer.u32";
    Buffer.add_char b (Char.chr (v land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

  let i64 b v = Buffer.add_int64_le b (Int64.of_int v)

  let bool b v = u8 b (if v then 1 else 0)

  let string b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s
  let length = Buffer.length
  let contents = Buffer.contents
end

(* ---- Reader -------------------------------------------------------- *)

module Reader = struct
  type t = { src : string; limit : int; mutable pos : int }

  let of_string ?(pos = 0) ?len s =
    let limit =
      match len with Some l -> pos + l | None -> String.length s
    in
    if pos < 0 || limit > String.length s || pos > limit then
      invalid_arg "Binary.Reader.of_string";
    { src = s; limit; pos }

  let need r n what =
    if r.limit - r.pos < n then
      corrupt "truncated input: need %d bytes for %s at offset %d" n what r.pos

  let u8 r =
    need r 1 "u8";
    let v = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u32 r =
    need r 4 "u32";
    let b i = Char.code r.src.[r.pos + i] in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    r.pos <- r.pos + 4;
    v

  let i64 r =
    need r 8 "i64";
    let v = Int64.to_int (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad boolean byte %d" n

  let raw r n =
    need r n "raw bytes";
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let string r =
    let n = u32 r in
    need r n "string body";
    raw r n

  let pos r = r.pos
  let remaining r = r.limit - r.pos
  let at_end r = r.pos = r.limit
end

(* ---- Graph codec --------------------------------------------------- *)

let write_edge_kind w = function
  | Graph.Virtual -> Writer.u8 w 1
  | Graph.Non_virtual -> Writer.u8 w 0

let read_edge_kind r =
  match Reader.u8 r with
  | 0 -> Graph.Non_virtual
  | 1 -> Graph.Virtual
  | n -> corrupt "bad edge kind %d" n

let write_access w = function
  | Graph.Public -> Writer.u8 w 0
  | Graph.Protected -> Writer.u8 w 1
  | Graph.Private -> Writer.u8 w 2

let read_access r =
  match Reader.u8 r with
  | 0 -> Graph.Public
  | 1 -> Graph.Protected
  | 2 -> Graph.Private
  | n -> corrupt "bad access %d" n

let write_member_kind w = function
  | Graph.Data -> Writer.u8 w 0
  | Graph.Function -> Writer.u8 w 1
  | Graph.Type -> Writer.u8 w 2
  | Graph.Enumerator -> Writer.u8 w 3

let read_member_kind r =
  match Reader.u8 r with
  | 0 -> Graph.Data
  | 1 -> Graph.Function
  | 2 -> Graph.Type
  | 3 -> Graph.Enumerator
  | n -> corrupt "bad member kind %d" n

let write_member w (m : Graph.member) =
  Writer.string w m.Graph.m_name;
  write_member_kind w m.Graph.m_kind;
  Writer.bool w m.Graph.m_static;
  Writer.bool w m.Graph.m_virtual;
  write_access w m.Graph.m_access

let read_member r =
  let m_name = Reader.string r in
  let m_kind = read_member_kind r in
  let m_static = Reader.bool r in
  let m_virtual = Reader.bool r in
  let m_access = read_access r in
  { Graph.m_name; m_kind; m_static; m_virtual; m_access }

let write_graph w g =
  let n = Graph.num_classes g in
  Writer.u32 w n;
  Graph.iter_classes g (fun c ->
      Writer.string w (Graph.name g c);
      let bases = Graph.bases g c in
      Writer.u32 w (List.length bases);
      List.iter
        (fun (b : Graph.base) ->
          Writer.u32 w b.Graph.b_class;
          write_edge_kind w b.Graph.b_kind;
          write_access w b.Graph.b_access)
        bases;
      let members = Graph.members g c in
      Writer.u32 w (List.length members);
      List.iter (write_member w) members)

(* in-order list read: the reader is stateful, so element order matters *)
let read_list r f =
  let n = Reader.u32 r in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f r :: acc) in
  go n []

(* In-order array read, likewise.  Each element takes at least
   [min_bytes], so a count past what the bytes left can hold fails in an
   element's read before the array, sized by those bytes, would
   overflow. *)
let read_array r ~min_bytes f =
  let n = Reader.u32 r in
  if n = 0 then [||]
  else begin
    let x = f r in
    let a = Array.make (min n ((Reader.remaining r / min_bytes) + 1)) x in
    for k = 1 to n - 1 do
      let x = f r in
      a.(k) <- x
    done;
    a
  end

(* A class takes at least its three u32 counts (name, bases, members);
   a base an id, its kind and access; a member its name's length and
   four bytes. *)
let class_bytes = 12
let base_bytes = 6
let member_bytes = 8

let read_graph r =
  let n = Reader.u32 r in
  let o = Graph.ordered (min n ((Reader.remaining r / class_bytes) + 1)) in
  (* ids are assigned densely in declaration order, so a base id must
     refer to an earlier class *)
  (try
     for i = 0 to n - 1 do
       let name = Reader.string r in
       let bases =
         read_array r ~min_bytes:base_bytes (fun r ->
             let id = Reader.u32 r in
             if id >= i then corrupt "base id %d of class %d not earlier" id i;
             let kind = read_edge_kind r in
             let access = read_access r in
             { Graph.b_class = id; b_kind = kind; b_access = access })
       in
       let members = read_array r ~min_bytes:member_bytes read_member in
       Graph.add_ordered o name ~bases ~members
     done
   with Graph.Error e -> corrupt "graph rejected: %s" (Graph.error_to_string e));
  Graph.of_ordered o
