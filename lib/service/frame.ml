module B = Chg.Binary
module G = Chg.Graph

(* The cxxlookup-rpc/1b binary framing: the no-JSON hot path.

   Frames are length-prefixed so a reader never scans for a
   terminator, and the first byte disambiguates against JSON-lines
   (a JSON request line starts with '{' or whitespace, never 0xB1), so
   one listener serves both framings per message with no handshake:

     request   0xB1 | u8 op     | u32 payload_len | payload
     response  0xB2 | u8 status | u32 payload_len | payload

   Every request payload begins [i64 id | string session] — the id
   first so errors can echo it, the session second and
   position-independent of the op so a router can extract it without
   op-specific knowledge and forward the frame opaquely.  Classes and
   members travel as the session's dense interned ids (the [symbols]
   verb returns the tables; mutation responses carry the delta), so
   the resolved path is int-only end to end.

   Responses: status 0 is ok with an op-specific payload; status 1 is
   an error payload [i64 id | u8 code | string message] using
   {!Protocol.code_byte}.  Lookup verdicts compress to one byte —
   0 none, 1 red (followed by the declaring class id), 2 blue — with
   the JSON protocol remaining the canonical carrier for verdict
   detail strings.

   Decoders raise nothing: every malformed frame becomes [Error msg],
   which the server answers as [bad_request].  The length prefix means
   a bad payload never desynchronizes the connection — the reader
   already consumed exactly the frame. *)

let version = "cxxlookup-rpc/1b"
let request_magic = 0xB1
let response_magic = 0xB2
let header_len = 6

(* request ops; like the error-code bytes, never renumbered *)
let op_lookup = 1
let op_batch_lookup = 2
let op_add_member = 3
let op_add_class = 4
let op_symbols = 5

type req =
  | Lookup of { lk_class : int; lk_member : int }
  | Batch_lookup of (int * int) array  (* (class id, member id) pairs *)
  | Add_member of { am_class : int; am_member : G.member }
  | Add_class of {
      ac_name : string;
      ac_bases : (string * G.edge_kind * G.access) list;
      ac_members : G.member list;
    }
  | Symbols

type request = { fr_id : int; fr_session : string; fr_op : req }

(* ---- header -------------------------------------------------------- *)

(* [parse_header s] reads the 6-byte prefix of a request frame:
   (op, payload_len).  The caller has already matched the 0xB1 magic to
   choose binary framing. *)
let parse_header s =
  if String.length s < header_len then Error "truncated frame header"
  else if Char.code s.[0] <> request_magic then Error "bad frame magic"
  else
    let r = B.Reader.of_string ~pos:1 s in
    let op = B.Reader.u8 r in
    let len = B.Reader.u32 r in
    Ok (op, len)

let frame ~magic ~tag payload =
  let w = B.Writer.create ~initial_size:(header_len + String.length payload) () in
  B.Writer.u8 w magic;
  B.Writer.u8 w tag;
  B.Writer.u32 w (String.length payload);
  B.Writer.raw w payload;
  B.Writer.contents w

let payload f =
  let w = B.Writer.create () in
  f w;
  B.Writer.contents w

(* ---- requests ------------------------------------------------------- *)

let base_of_reader r =
  let name = B.Reader.string r in
  let kind = B.read_edge_kind r in
  let access = B.read_access r in
  (name, kind, access)

let write_base w (name, kind, access) =
  B.Writer.string w name;
  B.write_edge_kind w kind;
  B.write_access w access

(* [decode_request ~op body] — the typed request, or a message for a
   [bad_request] reply.  [body] is the payload alone (header already
   consumed by the reader). *)
let decode_request ~op body =
  try
    let r = B.Reader.of_string body in
    let fr_id = B.Reader.i64 r in
    let fr_session = B.Reader.string r in
    let fr_op =
      if op = op_lookup then
        let c = B.Reader.u32 r in
        let m = B.Reader.u32 r in
        Lookup { lk_class = c; lk_member = m }
      else if op = op_batch_lookup then begin
        let count = B.Reader.u32 r in
        (* 8 bytes per query: reject counts the payload cannot hold
           before allocating *)
        if count * 8 > B.Reader.remaining r then
          raise (B.Corrupt "batch count exceeds payload");
        Batch_lookup
          (Array.init count (fun _ ->
               let c = B.Reader.u32 r in
               let m = B.Reader.u32 r in
               (c, m)))
      end
      else if op = op_add_member then begin
        let c = B.Reader.u32 r in
        let m = B.read_member r in
        Add_member { am_class = c; am_member = m }
      end
      else if op = op_add_class then begin
        let name = B.Reader.string r in
        let bases = B.read_list r base_of_reader in
        let members = B.read_list r B.read_member in
        Add_class { ac_name = name; ac_bases = bases; ac_members = members }
      end
      else if op = op_symbols then Symbols
      else raise (B.Corrupt (Printf.sprintf "unknown frame op %d" op))
    in
    if not (B.Reader.at_end r) then
      raise (B.Corrupt "trailing bytes after frame payload");
    Ok { fr_id; fr_session; fr_op }
  with
  | B.Corrupt msg -> Error msg
  | Invalid_argument msg -> Error msg

let encode_request { fr_id; fr_session; fr_op } =
  let tag, body =
    match fr_op with
    | Lookup { lk_class; lk_member } ->
      ( op_lookup,
        fun w ->
          B.Writer.u32 w lk_class;
          B.Writer.u32 w lk_member )
    | Batch_lookup qs ->
      ( op_batch_lookup,
        fun w ->
          B.Writer.u32 w (Array.length qs);
          Array.iter
            (fun (c, m) ->
              B.Writer.u32 w c;
              B.Writer.u32 w m)
            qs )
    | Add_member { am_class; am_member } ->
      ( op_add_member,
        fun w ->
          B.Writer.u32 w am_class;
          B.write_member w am_member )
    | Add_class { ac_name; ac_bases; ac_members } ->
      ( op_add_class,
        fun w ->
          B.Writer.string w ac_name;
          B.Writer.u32 w (List.length ac_bases);
          List.iter (write_base w) ac_bases;
          B.Writer.u32 w (List.length ac_members);
          List.iter (B.write_member w) ac_members )
    | Symbols -> (op_symbols, fun _ -> ())
  in
  frame ~magic:request_magic ~tag
    (payload (fun w ->
         B.Writer.i64 w fr_id;
         B.Writer.string w fr_session;
         body w))

(* ---- requests in place -----------------------------------------------

   The id-addressed requests are read where they lie in the frame: the
   payload's fields sit at fixed offsets up to the session name, and
   the (class, member) pairs follow it. *)

let id_pos = header_len
let session_pos = header_len + 8  (* the session name's u32 length *)
let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xffffffff

let id_at f =
  let n = String.length f in
  if
    n < session_pos + 4
    || Char.code f.[0] <> request_magic
    || u32_at f 2 <> n - header_len
    || session_pos + 4 + u32_at f session_pos > n
  then -1
  else id_pos

let id_value f at = if at < 0 then 0 else Int64.to_int (String.get_int64_le f at)
let session_end f = session_pos + 4 + u32_at f session_pos
let session_name f = String.sub f (session_pos + 4) (u32_at f session_pos)

let id_count f =
  let n = String.length f and p = session_end f in
  if Char.code f.[1] = op_lookup then if n = p + 8 then 1 else -1
  else if p + 4 > n then -1
  else
    let count = u32_at f p in
    if n = p + 4 + (8 * count) then count else -1

let pairs_at f =
  session_end f + if Char.code f.[1] = op_batch_lookup then 4 else 0

(* ---- responses ------------------------------------------------------ *)

(* verdict tags in lookup / batch_lookup responses *)
let verdict_none = 0
let verdict_red = 1
let verdict_blue = 2

type verdict_code = int
(* the {!Lookup_core.Packed.column_resolve_code} convention:
   [-1] absent, [-2] ambiguous, [>= 0] the declaring class id *)

type resp =
  | Ok_lookup of verdict_code
  | Ok_batch of {
      ob_codes : verdict_code array;
      ob_resolved : int;
      ob_ambiguous : int;
      ob_not_found : int;
    }
  | Ok_add_member of {
      oam_member : int;  (* the member's interned id *)
      oam_rows : int;
      oam_invalidated : bool;
      oam_epoch : int;
      oam_new_symbols : (int * string) list;  (* intern-table delta *)
    }
  | Ok_add_class of {
      oac_class : int;  (* the new class id *)
      oac_classes : int;  (* class count after the mutation *)
      oac_epoch : int;
      oac_new_symbols : (int * string) list;
    }
  | Ok_symbols of {
      os_epoch : int;
      os_classes : string array;  (* class id -> name *)
      os_members : string array;  (* member id -> name *)
    }
  | Err of Protocol.error_code * string

let write_verdict w code =
  if code >= 0 then begin
    B.Writer.u8 w verdict_red;
    B.Writer.u32 w code
  end
  else if code = -2 then B.Writer.u8 w verdict_blue
  else B.Writer.u8 w verdict_none

let read_verdict r =
  match B.Reader.u8 r with
  | 0 -> -1
  | 1 -> B.Reader.u32 r
  | 2 -> -2
  | t -> raise (B.Corrupt (Printf.sprintf "unknown verdict tag %d" t))

let write_symbol_delta w delta =
  B.Writer.u32 w (List.length delta);
  List.iter
    (fun (id, name) ->
      B.Writer.u32 w id;
      B.Writer.string w name)
    delta

let read_symbol_delta r =
  B.read_list r (fun r ->
      let id = B.Reader.u32 r in
      let name = B.Reader.string r in
      (id, name))

let encode_response ~id resp =
  match resp with
  | Err (code, msg) ->
    frame ~magic:response_magic ~tag:1
      (payload (fun w ->
           B.Writer.i64 w id;
           B.Writer.u8 w (Protocol.code_byte code);
           B.Writer.string w msg))
  | ok ->
    frame ~magic:response_magic ~tag:0
      (payload (fun w ->
           B.Writer.i64 w id;
           match ok with
           | Err _ -> assert false
           | Ok_lookup code -> write_verdict w code
           | Ok_batch { ob_codes; ob_resolved; ob_ambiguous; ob_not_found } ->
             B.Writer.u32 w (Array.length ob_codes);
             Array.iter (write_verdict w) ob_codes;
             B.Writer.u32 w ob_resolved;
             B.Writer.u32 w ob_ambiguous;
             B.Writer.u32 w ob_not_found
           | Ok_add_member
               { oam_member; oam_rows; oam_invalidated; oam_epoch;
                 oam_new_symbols } ->
             B.Writer.u32 w oam_member;
             B.Writer.u32 w oam_rows;
             B.Writer.bool w oam_invalidated;
             B.Writer.i64 w oam_epoch;
             write_symbol_delta w oam_new_symbols
           | Ok_add_class { oac_class; oac_classes; oac_epoch; oac_new_symbols }
             ->
             B.Writer.u32 w oac_class;
             B.Writer.u32 w oac_classes;
             B.Writer.i64 w oac_epoch;
             write_symbol_delta w oac_new_symbols
           | Ok_symbols { os_epoch; os_classes; os_members } ->
             B.Writer.i64 w os_epoch;
             B.Writer.u32 w (Array.length os_classes);
             Array.iter (B.Writer.string w) os_classes;
             B.Writer.u32 w (Array.length os_members);
             Array.iter (B.Writer.string w) os_members))

(* ---- responses in place ---------------------------------------------- *)

let add_verdict out code =
  if code >= 0 then begin
    Outbuf.add_u8 out verdict_red;
    Outbuf.add_u32 out code
  end
  else Outbuf.add_u8 out (if code = -2 then verdict_blue else verdict_none)

(* the request's 8 id bytes at [at] over the id slot of the response
   frame at [start] *)
let patch_id out ~start request at =
  if at >= 0 then Outbuf.blit_string request at out (start + header_len) 8

let open_ok out request at =
  let start = Outbuf.length out in
  Outbuf.add_u8 out response_magic;
  Outbuf.add_u8 out 0;
  Outbuf.add_u32 out 0;
  Outbuf.add_u32 out 0;
  Outbuf.add_u32 out 0;
  patch_id out ~start request at;
  start

let close_ok out start =
  Outbuf.set_u32 out (start + 2) (Outbuf.length out - start - header_len)

let add_response out request at resp =
  let start = Outbuf.length out in
  Outbuf.add_string out (encode_response ~id:0 resp);
  patch_id out ~start request at

let echo_id ~request resp =
  match id_at request with
  | -1 -> resp
  | at ->
    let b = Bytes.of_string resp in
    Bytes.blit_string request at b header_len 8;
    Bytes.unsafe_to_string b

(* [decode_response ~op frame] — for clients.  [op] is the request op
   the response answers (the framing does not repeat it). *)
let decode_response ~op s =
  try
    if String.length s < header_len then raise (B.Corrupt "truncated frame");
    if Char.code s.[0] <> response_magic then
      raise (B.Corrupt "bad response magic");
    let status = Char.code s.[1] in
    let r = B.Reader.of_string ~pos:2 s in
    let len = B.Reader.u32 r in
    if len <> String.length s - header_len then
      raise (B.Corrupt "frame length mismatch");
    let id = B.Reader.i64 r in
    let resp =
      if status = 1 then begin
        let code_b = B.Reader.u8 r in
        let msg = B.Reader.string r in
        match Protocol.code_of_byte code_b with
        | Some code -> Err (code, msg)
        | None ->
          raise (B.Corrupt (Printf.sprintf "unknown error code %d" code_b))
      end
      else if status <> 0 then
        raise (B.Corrupt (Printf.sprintf "unknown frame status %d" status))
      else if op = op_lookup then Ok_lookup (read_verdict r)
      else if op = op_batch_lookup then begin
        let count = B.Reader.u32 r in
        if count > B.Reader.remaining r then
          raise (B.Corrupt "batch count exceeds payload");
        let codes = Array.init count (fun _ -> read_verdict r) in
        let resolved = B.Reader.u32 r in
        let ambiguous = B.Reader.u32 r in
        let not_found = B.Reader.u32 r in
        Ok_batch
          { ob_codes = codes; ob_resolved = resolved;
            ob_ambiguous = ambiguous; ob_not_found = not_found }
      end
      else if op = op_add_member then begin
        let m = B.Reader.u32 r in
        let rows = B.Reader.u32 r in
        let inv = B.Reader.bool r in
        let epoch = B.Reader.i64 r in
        let delta = read_symbol_delta r in
        Ok_add_member
          { oam_member = m; oam_rows = rows; oam_invalidated = inv;
            oam_epoch = epoch; oam_new_symbols = delta }
      end
      else if op = op_add_class then begin
        let c = B.Reader.u32 r in
        let classes = B.Reader.u32 r in
        let epoch = B.Reader.i64 r in
        let delta = read_symbol_delta r in
        Ok_add_class
          { oac_class = c; oac_classes = classes; oac_epoch = epoch;
            oac_new_symbols = delta }
      end
      else if op = op_symbols then begin
        let epoch = B.Reader.i64 r in
        let nc = B.Reader.u32 r in
        if nc > B.Reader.remaining r then
          raise (B.Corrupt "class count exceeds payload");
        let classes = Array.init nc (fun _ -> B.Reader.string r) in
        let nm = B.Reader.u32 r in
        if nm > B.Reader.remaining r then
          raise (B.Corrupt "member count exceeds payload");
        let members = Array.init nm (fun _ -> B.Reader.string r) in
        Ok_symbols { os_epoch = epoch; os_classes = classes;
                     os_members = members }
      end
      else raise (B.Corrupt (Printf.sprintf "unknown frame op %d" op))
    in
    if not (B.Reader.at_end r) then
      raise (B.Corrupt "trailing bytes after frame payload");
    Ok (id, resp)
  with
  | B.Corrupt msg -> Error msg
  | Invalid_argument msg -> Error msg
