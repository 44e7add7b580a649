module B = Chg.Binary

type t = {
  s_session : string;
  s_epoch : int;
  s_protocol : string;
  s_graph : Chg.Graph.t;
  s_columns : (string * Lookup_core.Packed.column) list;
}

let magic = "CXLSNAP0"
let format_version = 1

(* section tags; unknown tags are skipped on decode, as are the column
   sections 3 and 4 that older builds wrote (their columns are compiled
   again on a miss).  Tag 5 is the whole table as one
   position-independent image whose word area is 8-aligned in the
   file, so {!open_mapped} can serve it straight from a Bigarray
   mapping while {!decode} falls back to a byte-at-a-time read. *)
let tag_meta = 1
let tag_graph = 2
let tag_table_image = 5

let crc_int s = Int32.to_int (B.crc32_string s) land 0xffffffff

let write_section w tag payload =
  B.Writer.u8 w tag;
  B.Writer.u32 w (String.length payload);
  B.Writer.u32 w (crc_int payload);
  B.Writer.raw w payload

let section f =
  let w = B.Writer.create () in
  f w;
  B.Writer.contents w

(* container prefix: 8-byte magic + u32 version + u32 section count;
   each section adds a 9-byte header before its payload *)
let container_prefix = 16
let section_header = 9

let encode t =
  let w = B.Writer.create ~initial_size:4096 () in
  B.Writer.raw w magic;
  B.Writer.u32 w format_version;
  (* meta and graph are built first so the image payload's file offset
     is known — the image writer pads its own prefix to land the word
     area 8-aligned in the file *)
  let meta_payload =
    section (fun w ->
        B.Writer.string w t.s_session;
        B.Writer.i64 w t.s_epoch;
        B.Writer.string w t.s_protocol)
  in
  let graph_payload = section (fun w -> B.write_graph w t.s_graph) in
  let image_offset =
    container_prefix
    + section_header + String.length meta_payload
    + section_header + String.length graph_payload
    + section_header
  in
  let image_payload =
    section (fun w ->
        Lookup_core.Packed.write_image w ~file_offset:image_offset t.s_columns)
  in
  let sections =
    [ (tag_meta, meta_payload);
      (tag_graph, graph_payload);
      (tag_table_image, image_payload) ]
  in
  B.Writer.u32 w (List.length sections);
  List.iter (fun (tag, payload) -> write_section w tag payload) sections;
  B.Writer.contents w

let decode s =
  try
    let r = B.Reader.of_string s in
    if B.Reader.remaining r < String.length magic then
      raise (B.Corrupt "snapshot shorter than its magic");
    if B.Reader.raw r (String.length magic) <> magic then
      raise (B.Corrupt "bad snapshot magic");
    let version = B.Reader.u32 r in
    if version <> format_version then
      raise
        (B.Corrupt
           (Printf.sprintf "unsupported snapshot format version %d" version));
    let nsections = B.Reader.u32 r in
    let meta = ref None and graph = ref None and columns = ref [] in
    for _ = 1 to nsections do
      let tag = B.Reader.u8 r in
      let len = B.Reader.u32 r in
      let crc = B.Reader.u32 r in
      let payload = B.Reader.raw r len in
      if crc_int payload <> crc then
        raise (B.Corrupt (Printf.sprintf "section %d fails its CRC" tag));
      let pr = B.Reader.of_string payload in
      if tag = tag_meta then begin
        let session = B.Reader.string pr in
        let epoch = B.Reader.i64 pr in
        let protocol = B.Reader.string pr in
        meta := Some (session, epoch, protocol)
      end
      else if tag = tag_graph then graph := Some (B.read_graph pr)
      else if tag = tag_table_image then
        (* the mmap-able image, decoded byte-at-a-time — the path taken
           when the caller didn't (or couldn't) map the file *)
        columns := Lookup_core.Packed.read_image pr
      (* unknown tag: CRC-checked above, content ignored *)
    done;
    match (!meta, !graph) with
    | Some (s_session, s_epoch, s_protocol), Some s_graph ->
      (* a column must index exactly the snapshot's classes; anything
         else is a stale or cross-wired section *)
      let n = Chg.Graph.num_classes s_graph in
      List.iter
        (fun (m, col) ->
          let len = Lookup_core.Packed.column_classes col in
          if len <> n then
            raise
              (B.Corrupt
                 (Printf.sprintf "column %S has %d entries for %d classes" m
                    len n)))
        !columns;
      Ok { s_session; s_epoch; s_protocol; s_graph; s_columns = !columns }
    | None, _ -> Error "snapshot has no meta section"
    | _, None -> Error "snapshot has no graph section"
  with
  | B.Corrupt msg -> Error msg
  | Invalid_argument msg -> Error msg

let write_file path t =
  let data = encode t in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = Unix.write_substring fd data 0 (String.length data) in
      assert (n = String.length data);
      Unix.fsync fd);
  Sys.rename tmp path;
  (* best-effort directory sync so the rename itself is durable *)
  (try
     let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
     Fun.protect ~finally:(fun () -> Unix.close dfd) (fun () -> Unix.fsync dfd)
   with Unix.Unix_error _ -> ());
  String.length data

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> decode data
  | exception Sys_error msg -> Error msg

(* ---- zero-copy restore ---------------------------------------------

   [open_mapped] streams only the small sections (meta, graph) through
   the normal CRC-checked decode, locates the table-image section, and
   maps its word area with [Unix.map_file] — restore cost is page-in,
   independent of table size.  [~verify] additionally reads the image
   payload once to check its CRC (sequential read, still no decode);
   without it, integrity rests on the probe word, the O(m) structural
   checks, and the views' per-access bounds checks.

   Any failure — legacy snapshot with no image section, misaligned word
   area, filesystem without mmap, truncation — is an [Error], and the
   caller falls back to {!read_file}. *)

let open_mapped ?(verify = true) path =
  try
    let ic = In_channel.open_bin path in
    Fun.protect
      ~finally:(fun () -> In_channel.close ic)
      (fun () ->
        let need n =
          match In_channel.really_input_string ic n with
          | Some s -> s
          | None -> raise (B.Corrupt "snapshot truncated")
        in
        let u8 () = Char.code (need 1).[0] in
        let u32 () = B.Reader.u32 (B.Reader.of_string (need 4)) in
        if need 8 <> magic then raise (B.Corrupt "bad snapshot magic");
        let version = u32 () in
        if version <> format_version then
          raise
            (B.Corrupt
               (Printf.sprintf "unsupported snapshot format version %d" version));
        let nsections = u32 () in
        let meta = ref None and graph = ref None and image = ref None in
        for _ = 1 to nsections do
          let tag = u8 () in
          let len = u32 () in
          let crc = u32 () in
          let payload_off = Int64.to_int (In_channel.pos ic) in
          if tag = tag_meta || tag = tag_graph then begin
            let payload = need len in
            if crc_int payload <> crc then
              raise (B.Corrupt (Printf.sprintf "section %d fails its CRC" tag));
            let pr = B.Reader.of_string payload in
            if tag = tag_meta then begin
              let session = B.Reader.string pr in
              let epoch = B.Reader.i64 pr in
              let protocol = B.Reader.string pr in
              meta := Some (session, epoch, protocol)
            end
            else graph := Some (B.read_graph pr)
          end
          else if tag = tag_table_image then begin
            let names, word_off =
              if verify then begin
                let payload = need len in
                if crc_int payload <> crc then
                  raise (B.Corrupt "table image section fails its CRC");
                Lookup_core.Packed.image_header (B.Reader.of_string payload)
              end
              else begin
                (* fast mode: read only the byte-addressed prefix *)
                let names_len = u32 () in
                let blob = B.Reader.of_string (need names_len) in
                let count = B.Reader.u32 blob in
                let names =
                  Array.init count (fun _ -> B.Reader.string blob)
                in
                let pad = u32 () in
                if pad > 7 then
                  raise (B.Corrupt "table image: bad pad length");
                String.iter
                  (fun c ->
                    if c <> '\000' then
                      raise (B.Corrupt "table image: non-zero pad"))
                  (need pad);
                (names, 4 + names_len + 4 + pad)
              end
            in
            In_channel.seek ic (Int64.of_int (payload_off + len));
            image := Some (payload_off, len, word_off, names)
          end
          else In_channel.seek ic (Int64.of_int (payload_off + len))
        done;
        match (!meta, !graph, !image) with
        | None, _, _ -> Error "snapshot has no meta section"
        | _, None, _ -> Error "snapshot has no graph section"
        | _, _, None -> Error "snapshot has no table-image section"
        | ( Some (s_session, s_epoch, s_protocol),
            Some s_graph,
            Some (payload_off, len, word_off, names) ) ->
          let word_pos = payload_off + word_off in
          let word_bytes = len - word_off in
          if word_pos mod 8 <> 0 then
            raise (B.Corrupt "table image word area is not 8-aligned");
          if word_bytes < 0 || word_bytes mod 8 <> 0 then
            raise (B.Corrupt "table image word area is not whole words");
          let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
          let buf =
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Bigarray.array1_of_genarray
                  (Unix.map_file fd ~pos:(Int64.of_int word_pos) Bigarray.int
                     Bigarray.c_layout false
                     [| word_bytes / 8 |]))
          in
          let s_columns = Lookup_core.Packed.map_image buf ~names in
          let n = Chg.Graph.num_classes s_graph in
          List.iter
            (fun (m, col) ->
              let cn = Lookup_core.Packed.column_classes col in
              if cn <> n then
                raise
                  (B.Corrupt
                     (Printf.sprintf "column %S has %d entries for %d classes"
                        m cn n)))
            s_columns;
          Ok { s_session; s_epoch; s_protocol; s_graph; s_columns })
  with
  | B.Corrupt msg -> Error msg
  | Invalid_argument msg -> Error msg
  | Sys_error msg -> Error msg
  | End_of_file -> Error "snapshot truncated"
  | Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
