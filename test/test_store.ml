(* Tests for the durable store: the binary substrate (CRC-32, writer /
   reader, graph and verdict codecs), snapshot container integrity, WAL
   framing and torn-tail handling, store-level recovery, and the
   QCheck crash-recovery property — any mutation sequence, any kill
   point, the recovered session answers verdict-for-verdict like a
   from-scratch spec oracle. *)

module G = Chg.Graph
module B = Chg.Binary
module Path = Subobject.Path
module Spec = Subobject.Spec
module Engine = Lookup_core.Engine
module A = Lookup_core.Abstraction
module Vio = Lookup_core.Verdict_io
module Packed = Lookup_core.Packed
module Session = Service.Session

let graph () = Hiergen.Figures.fig3 ()

(* ---- scratch directories ------------------------------------------- *)

let temp_dir () =
  let f = Filename.temp_file "cxxstore" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let file_size path = (Unix.stat path).Unix.st_size

let corrupt_byte path off =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

(* ---- CRC-32 -------------------------------------------------------- *)

let test_crc32 () =
  Alcotest.(check int32) "check vector (gzip/PNG polynomial)" 0xCBF43926l
    (B.crc32_string "123456789");
  Alcotest.(check int32) "empty" 0l (B.crc32_string "");
  (* incremental over two halves = one shot *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let half = String.length s / 2 in
  let inc =
    B.crc32 ~crc:(B.crc32 s ~pos:0 ~len:half) s ~pos:half
      ~len:(String.length s - half)
  in
  Alcotest.(check int32) "incremental" (B.crc32_string s) inc

(* ---- writer / reader ----------------------------------------------- *)

let test_writer_reader_roundtrip () =
  let w = B.Writer.create () in
  B.Writer.u8 w 0;
  B.Writer.u8 w 255;
  B.Writer.u32 w 0;
  B.Writer.u32 w 0xFFFF_FFFF;
  B.Writer.i64 w min_int;
  B.Writer.i64 w max_int;
  B.Writer.i64 w (-42);
  B.Writer.bool w true;
  B.Writer.bool w false;
  B.Writer.string w "";
  B.Writer.string w "héllo\x00wörld";
  B.Writer.raw w "tail";
  let r = B.Reader.of_string (B.Writer.contents w) in
  Alcotest.(check int) "u8 lo" 0 (B.Reader.u8 r);
  Alcotest.(check int) "u8 hi" 255 (B.Reader.u8 r);
  Alcotest.(check int) "u32 lo" 0 (B.Reader.u32 r);
  Alcotest.(check int) "u32 hi" 0xFFFF_FFFF (B.Reader.u32 r);
  Alcotest.(check int) "i64 min" min_int (B.Reader.i64 r);
  Alcotest.(check int) "i64 max" max_int (B.Reader.i64 r);
  Alcotest.(check int) "i64 neg" (-42) (B.Reader.i64 r);
  Alcotest.(check bool) "bool t" true (B.Reader.bool r);
  Alcotest.(check bool) "bool f" false (B.Reader.bool r);
  Alcotest.(check string) "empty string" "" (B.Reader.string r);
  Alcotest.(check string) "string" "héllo\x00wörld" (B.Reader.string r);
  Alcotest.(check string) "raw" "tail" (B.Reader.raw r 4);
  Alcotest.(check bool) "consumed" true (B.Reader.at_end r)

let test_reader_truncation () =
  let w = B.Writer.create () in
  B.Writer.string w "hello";
  let s = B.Writer.contents w in
  (* every strict prefix must fail loudly, never return junk *)
  for len = 0 to String.length s - 1 do
    let r = B.Reader.of_string ~len s in
    match B.Reader.string r with
    | _ -> Alcotest.failf "prefix of %d bytes decoded" len
    | exception B.Corrupt _ -> ()
  done

(* ---- graph codec --------------------------------------------------- *)

let graphs_equal ga gb =
  G.num_classes ga = G.num_classes gb
  && G.num_edges ga = G.num_edges gb
  && List.for_all
       (fun c ->
         G.name ga c = G.name gb c
         && G.bases ga c = G.bases gb c
         && G.members ga c = G.members gb c)
       (G.classes ga)

let test_graph_codec_roundtrip () =
  let g = graph () in
  let w = B.Writer.create () in
  B.write_graph w g;
  let g' = B.read_graph (B.Reader.of_string (B.Writer.contents w)) in
  Alcotest.(check bool) "structurally equal" true (graphs_equal g g');
  (* verdicts agree end to end *)
  let e = Engine.build (Chg.Closure.compute g) in
  let e' = Engine.build (Chg.Closure.compute g') in
  G.iter_classes g (fun c ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "verdict %s::%s" (G.name g c) m)
            true
            (Engine.lookup e c m = Engine.lookup e' c m))
        (G.member_names g))

let test_graph_codec_rejects_corruption () =
  let w = B.Writer.create () in
  B.write_graph w (graph ());
  let s = B.Writer.contents w in
  (* flip one byte at a time: decode must either raise Corrupt or
     produce some graph — never crash with anything else *)
  let survived = ref 0 in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x01));
      match B.read_graph (B.Reader.of_string (Bytes.to_string b)) with
      | _ -> incr survived
      | exception B.Corrupt _ -> ())
    s;
  (* some flips (inside name bytes) legitimately decode; most must not *)
  Alcotest.(check bool) "most corruptions detected" true
    (!survived < String.length s)

(* ---- verdict column codec ------------------------------------------ *)

let test_column_roundtrip () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  List.iter
    (fun m ->
      let e = Engine.build_member cl m in
      let col =
        Array.init (G.num_classes g) (fun c -> Engine.lookup e c m)
      in
      let w = B.Writer.create () in
      Vio.write_column w col;
      let col' =
        Vio.read_column (B.Reader.of_string (B.Writer.contents w))
      in
      Alcotest.(check bool)
        (Printf.sprintf "column of %s round-trips" m)
        true (col = col'))
    (G.member_names g)

let test_column_rejects_huge_count () =
  (* a corrupt count must not trigger a giant allocation *)
  let w = B.Writer.create () in
  B.Writer.u32 w 0xFFFF_FF00;
  let r = B.Reader.of_string (B.Writer.contents w) in
  match Vio.read_column r with
  | _ -> Alcotest.fail "decoded a column from a bare huge count"
  | exception B.Corrupt _ -> ()

let test_packed_column_codec () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  List.iter
    (fun m ->
      let e = Engine.build_member cl m in
      let boxed =
        Array.init (G.num_classes g) (fun c -> Engine.lookup e c m)
      in
      let col = Packed.pack_column boxed in
      let w = B.Writer.create () in
      Packed.write_column w col;
      let col' =
        Packed.read_column (B.Reader.of_string (B.Writer.contents w))
      in
      Alcotest.(check bool)
        (Printf.sprintf "packed column of %s round-trips" m)
        true
        (Packed.column_equal col col');
      Alcotest.(check bool)
        (Printf.sprintf "decoded column of %s unpacks to the boxed one" m)
        true
        (Packed.unpack_column col' = boxed))
    (G.member_names g)

let test_packed_column_codec_rejects_corruption () =
  let g = graph () in
  let cl = Chg.Closure.compute g in
  let e = Engine.build_member cl "foo" in
  let col =
    Packed.pack_column
      (Array.init (G.num_classes g) (fun c -> Engine.lookup e c "foo"))
  in
  let w = B.Writer.create () in
  Packed.write_column w col;
  let s = B.Writer.contents w in
  (* flip one byte at a time: read_column must raise Corrupt or decode
     some valid column — never crash, never allocate wildly *)
  let survived = ref 0 in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x04));
      match Packed.read_column (B.Reader.of_string (Bytes.to_string b)) with
      | _ -> incr survived
      | exception B.Corrupt _ -> ())
    s;
  Alcotest.(check bool) "most corruptions detected" true
    (!survived < String.length s)

(* ---- snapshots ----------------------------------------------------- *)

let boxed_columns g =
  let cl = Chg.Closure.compute g in
  let e = Engine.build cl in
  List.map
    (fun m ->
      (m, Array.init (G.num_classes g) (fun c -> Engine.lookup e c m)))
    (G.member_names g)

let compiled_columns g =
  List.map (fun (m, col) -> (m, Packed.pack_column col)) (boxed_columns g)

let snap ?(epoch = 3) ?(columns = true) g =
  { Store.Snapshot.s_session = "sess/with weird name";
    s_epoch = epoch;
    s_protocol = Service.Protocol.version;
    s_graph = g;
    s_columns = (if columns then compiled_columns g else []) }

let test_snapshot_roundtrip () =
  let g = graph () in
  let s = snap g in
  match Store.Snapshot.decode (Store.Snapshot.encode s) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok s' ->
    Alcotest.(check string) "session" s.Store.Snapshot.s_session
      s'.Store.Snapshot.s_session;
    Alcotest.(check int) "epoch" s.Store.Snapshot.s_epoch
      s'.Store.Snapshot.s_epoch;
    Alcotest.(check string) "protocol" s.Store.Snapshot.s_protocol
      s'.Store.Snapshot.s_protocol;
    Alcotest.(check bool) "graph" true
      (graphs_equal s.Store.Snapshot.s_graph s'.Store.Snapshot.s_graph);
    Alcotest.(check bool) "columns" true
      (s.Store.Snapshot.s_columns = s'.Store.Snapshot.s_columns)

let test_snapshot_rejects_corruption () =
  let enc = Store.Snapshot.encode (snap (graph ())) in
  (match Store.Snapshot.decode "XXXXXXXX\x01\x00\x00\x00\x00\x00\x00\x00" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bad magic");
  (* flip every byte after the magic: a section CRC must catch each *)
  let epoch = (snap (graph ())).Store.Snapshot.s_epoch in
  String.iteri
    (fun i _ ->
      if i >= 8 then begin
        let b = Bytes.of_string enc in
        Bytes.set b i (Char.chr (Char.code enc.[i] lxor 0x10));
        match Store.Snapshot.decode (Bytes.to_string b) with
        | Error _ -> ()
        | Ok s' ->
          (* a flip in the section count/len fields can reframe the
             container, but never yield a corrupted payload silently *)
          Alcotest.(check int)
            (Printf.sprintf "byte %d: surviving decode is intact" i)
            epoch s'.Store.Snapshot.s_epoch
      end)
    enc

let test_snapshot_reads_legacy_boxed_columns () =
  (* hand-write a version-1 container whose columns use the legacy tag-3
     boxed codec, as pre-packing builds did: decode must accept it and
     pack the columns on load *)
  let g = graph () in
  let section f =
    let w = B.Writer.create () in
    f w;
    B.Writer.contents w
  in
  let crc_int s = Int32.to_int (B.crc32_string s) land 0xffffffff in
  let w = B.Writer.create () in
  B.Writer.raw w "CXLSNAP0";
  B.Writer.u32 w 1;
  let sections =
    [ ( 1,
        section (fun w ->
            B.Writer.string w "legacy";
            B.Writer.i64 w 7;
            B.Writer.string w Service.Protocol.version) );
      (2, section (fun w -> B.write_graph w g));
      ( 3,
        section (fun w ->
            let cols = boxed_columns g in
            B.Writer.u32 w (List.length cols);
            List.iter
              (fun (m, col) ->
                B.Writer.string w m;
                Vio.write_column w col)
              cols) ) ]
  in
  B.Writer.u32 w (List.length sections);
  List.iter
    (fun (tag, payload) ->
      B.Writer.u8 w tag;
      B.Writer.u32 w (String.length payload);
      B.Writer.u32 w (crc_int payload);
      B.Writer.raw w payload)
    sections;
  match Store.Snapshot.decode (B.Writer.contents w) with
  | Error e -> Alcotest.failf "legacy decode failed: %s" e
  | Ok s ->
    Alcotest.(check int) "epoch" 7 s.Store.Snapshot.s_epoch;
    Alcotest.(check bool) "columns arrive packed, verdict-identical" true
      (List.for_all2
         (fun (m, col) (m', col') ->
           m = m' && Packed.column_equal col col')
         s.Store.Snapshot.s_columns (compiled_columns g))

let test_snapshot_file_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "x.snap" in
      let s = snap (graph ()) in
      let bytes = Store.Snapshot.write_file path s in
      Alcotest.(check int) "size reported" bytes (file_size path);
      match Store.Snapshot.read_file path with
      | Ok s' ->
        Alcotest.(check int) "epoch" s.Store.Snapshot.s_epoch
          s'.Store.Snapshot.s_epoch
      | Error e -> Alcotest.failf "read_file failed: %s" e)

(* ---- WAL ----------------------------------------------------------- *)

let mutations =
  [ Store.Mutation.Add_class
      { ac_name = "Z1";
        ac_bases = [ ("H", G.Non_virtual, G.Public) ];
        ac_members = [ G.member "zap" ] };
    Store.Mutation.Add_member { am_class = "B"; am_member = G.member "zip" };
    Store.Mutation.Add_class
      { ac_name = "Z2";
        ac_bases = [ ("Z1", G.Virtual, G.Private) ];
        ac_members = [] } ]

let write_wal ?(file = "wal.log") dir records =
  let path = Filename.concat dir file in
  let w = Store.Wal.open_append ~fsync:Store.Wal.Always path in
  List.iteri (fun i m -> ignore (Store.Wal.append w ~epoch:(i + 1) m)) records;
  Store.Wal.close w;
  path

let test_wal_roundtrip () =
  with_temp_dir (fun dir ->
      let path = write_wal dir mutations in
      let tail = Store.Wal.read_file path in
      Alcotest.(check bool) "not torn" false tail.Store.Wal.tl_torn;
      Alcotest.(check int) "all records" (List.length mutations)
        (List.length tail.Store.Wal.tl_records);
      Alcotest.(check int) "valid prefix is the file" (file_size path)
        tail.Store.Wal.tl_valid_bytes;
      List.iteri
        (fun i (r : Store.Wal.record) ->
          Alcotest.(check int) "epoch" (i + 1) r.Store.Wal.rc_epoch;
          Alcotest.(check bool) "mutation" true
            (r.Store.Wal.rc_mutation = List.nth mutations i))
        tail.Store.Wal.tl_records)

let test_wal_torn_tail () =
  with_temp_dir (fun dir ->
      let path = write_wal dir mutations in
      let full = file_size path in
      let tail0 = Store.Wal.read_file path in
      let boundary = tail0.Store.Wal.tl_valid_bytes in
      Alcotest.(check int) "boundary" full boundary;
      (* cut the final record anywhere: the first two survive, torn *)
      truncate_file path (full - 3);
      let tail = Store.Wal.read_file path in
      Alcotest.(check bool) "torn detected" true tail.Store.Wal.tl_torn;
      Alcotest.(check int) "prefix survives" 2
        (List.length tail.Store.Wal.tl_records);
      (* flip a payload byte of the last record instead: same outcome *)
      let path2 = write_wal ~file:"wal2.log" dir mutations in
      corrupt_byte path2 (file_size path2 - 1);
      let tail2 = Store.Wal.read_file path2 in
      Alcotest.(check bool) "crc catches the flip" true
        tail2.Store.Wal.tl_torn;
      Alcotest.(check int) "prefix survives the flip" 2
        (List.length tail2.Store.Wal.tl_records);
      (* open_append truncates the torn tail and appends cleanly *)
      let w = Store.Wal.open_append path2 in
      ignore (Store.Wal.append w ~epoch:3 (List.nth mutations 2));
      Store.Wal.sync w;
      Store.Wal.close w;
      let tail3 = Store.Wal.read_file path2 in
      Alcotest.(check bool) "clean after reopen" false
        tail3.Store.Wal.tl_torn;
      Alcotest.(check int) "records" 3
        (List.length tail3.Store.Wal.tl_records))

let test_wal_garbage_and_reset () =
  with_temp_dir (fun dir ->
      (* not even a magic *)
      let junk = Filename.concat dir "junk.log" in
      Out_channel.with_open_bin junk (fun oc ->
          Out_channel.output_string oc "not a wal");
      let t = Store.Wal.read_file junk in
      Alcotest.(check bool) "junk torn" true t.Store.Wal.tl_torn;
      Alcotest.(check int) "junk empty" 0 (List.length t.Store.Wal.tl_records);
      (* missing file: empty, untorn *)
      let t = Store.Wal.read_file (Filename.concat dir "absent.log") in
      Alcotest.(check bool) "missing untorn" false t.Store.Wal.tl_torn;
      (* reset drops everything back to the magic *)
      let path = write_wal dir mutations in
      let w = Store.Wal.open_append path in
      Store.Wal.reset w;
      ignore (Store.Wal.append w ~epoch:9 (List.hd mutations));
      Store.Wal.close w;
      let t = Store.Wal.read_file path in
      Alcotest.(check int) "one record after reset" 1
        (List.length t.Store.Wal.tl_records);
      Alcotest.(check int) "its epoch" 9
        (List.hd t.Store.Wal.tl_records).Store.Wal.rc_epoch)

(* ---- store-level recovery ------------------------------------------ *)

let test_store_recover_cycle () =
  with_temp_dir (fun dir ->
      let st = Store.open_dir dir in
      Alcotest.(check (list string)) "empty store" [] (Store.sessions st);
      (match Store.recover st "nope" with
      | Ok None -> ()
      | _ -> Alcotest.fail "unknown session should recover to None");
      let g = graph () in
      ignore (Store.write_snapshot st (snap ~epoch:0 ~columns:false g));
      List.iteri
        (fun i m -> Store.log_mutation st ~session:"sess/with weird name"
            ~epoch:(i + 1) m)
        mutations;
      Store.close st;
      (* fresh handle, as after a restart *)
      let st = Store.open_dir dir in
      Alcotest.(check (list string)) "session listed"
        [ "sess/with weird name" ] (Store.sessions st);
      (match Store.recover st "sess/with weird name" with
      | Ok (Some rv) ->
        Alcotest.(check int) "snapshot epoch" 0
          rv.Store.rv_snapshot.Store.Snapshot.s_epoch;
        Alcotest.(check int) "replayed" 3
          (List.length rv.Store.rv_replayed);
        Alcotest.(check int) "recovered epoch" 3 (Store.recovered_epoch rv);
        Alcotest.(check bool) "untorn" false rv.Store.rv_torn
      | Ok None -> Alcotest.fail "nothing recovered"
      | Error e -> Alcotest.failf "recover failed: %s" e);
      (* compaction: snapshot at the recovered epoch resets the WAL *)
      ignore (Store.write_snapshot st (snap ~epoch:3 ~columns:false g));
      Alcotest.(check int) "wal empty after compaction" 0
        (List.length
           (Store.Wal.read_file
              (Filename.concat
                 (Filename.concat dir "sess%2Fwith%20weird%20name")
                 "wal.log"))
             .Store.Wal.tl_records);
      (match Store.recover st "sess/with weird name" with
      | Ok (Some rv) ->
        Alcotest.(check int) "compacted epoch" 3
          rv.Store.rv_snapshot.Store.Snapshot.s_epoch;
        Alcotest.(check int) "nothing to replay" 0
          (List.length rv.Store.rv_replayed)
      | _ -> Alcotest.fail "recover after compaction failed");
      Store.close st)

let test_store_stale_snapshot_fallback () =
  with_temp_dir (fun dir ->
      let st = Store.open_dir dir in
      let g = graph () in
      ignore (Store.write_snapshot st (snap ~epoch:0 ~columns:false g));
      List.iteri
        (fun i m -> Store.log_mutation st ~session:"sess/with weird name"
            ~epoch:(i + 1) m)
        mutations;
      (* simulate a crash after the compaction snapshot hit the disk but
         before the WAL reset: write the file directly *)
      let sess_dir = Filename.concat dir "sess%2Fwith%20weird%20name" in
      let newer = Filename.concat sess_dir "snap-0000000003.snap" in
      ignore (Store.Snapshot.write_file newer (snap ~epoch:3 ~columns:false g));
      Store.close st;
      let st = Store.open_dir dir in
      (* undamaged: the newer snapshot wins and the WAL records at or
         below its epoch are skipped, not replayed twice *)
      (match Store.recover st "sess/with weird name" with
      | Ok (Some rv) ->
        Alcotest.(check int) "newest snapshot wins" 3
          rv.Store.rv_snapshot.Store.Snapshot.s_epoch;
        Alcotest.(check int) "stale records skipped" 0
          (List.length rv.Store.rv_replayed)
      | _ -> Alcotest.fail "recover failed");
      (* now damage the newer snapshot: recovery falls back to epoch 0
         and the WAL still carries every mutation *)
      corrupt_byte newer (file_size newer - 2);
      (match Store.recover st "sess/with weird name" with
      | Ok (Some rv) ->
        Alcotest.(check int) "fallback snapshot" 0
          rv.Store.rv_snapshot.Store.Snapshot.s_epoch;
        Alcotest.(check int) "stale files counted" 1
          rv.Store.rv_stale_snapshots;
        Alcotest.(check int) "wal replays everything" 3
          (List.length rv.Store.rv_replayed)
      | _ -> Alcotest.fail "fallback recover failed");
      (* every snapshot damaged: recovery errors, it does not invent *)
      List.iter
        (fun f ->
          if Filename.check_suffix f ".snap" then
            corrupt_byte (Filename.concat sess_dir f) 12)
        (Array.to_list (Sys.readdir sess_dir));
      (match Store.recover st "sess/with weird name" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "recovered from all-damaged snapshots");
      Store.close st)

(* the acceptance case: a torn final WAL record is detected, skipped,
   and the surviving prefix recovers *)
let test_store_torn_final_record () =
  with_temp_dir (fun dir ->
      let st = Store.open_dir dir in
      let g = graph () in
      ignore (Store.write_snapshot st (snap ~epoch:0 ~columns:false g));
      List.iteri
        (fun i m -> Store.log_mutation st ~session:"sess/with weird name"
            ~epoch:(i + 1) m)
        mutations;
      Store.close st;
      let wal_path =
        Filename.concat
          (Filename.concat dir "sess%2Fwith%20weird%20name")
          "wal.log"
      in
      truncate_file wal_path (file_size wal_path - 1);
      let st = Store.open_dir dir in
      (match Store.recover st "sess/with weird name" with
      | Ok (Some rv) ->
        Alcotest.(check bool) "torn reported" true rv.Store.rv_torn;
        Alcotest.(check int) "prefix replayed" 2
          (List.length rv.Store.rv_replayed);
        Alcotest.(check int) "epoch stops at the tear" 2
          (Store.recovered_epoch rv)
      | _ -> Alcotest.fail "torn recover failed");
      Store.close st)

(* ---- QCheck: crash recovery against the spec oracle ---------------- *)

let qc_members = [ "m"; "n"; "p" ]

(* split a random DAG: the first half opens the session, the rest
   arrives as add_class mutations (ids are topological, so every base of
   a later class is already present), interleaved with add_member
   mutations targeting earlier classes *)
let split_instance (i : Hiergen.Families.instance) =
  let g = i.Hiergen.Families.graph in
  let n = G.num_classes g in
  let k = max 1 ((n + 1) / 2) in
  let b = G.create_builder () in
  let bases_of c =
    List.map
      (fun (bb : G.base) -> (G.name g bb.G.b_class, bb.G.b_kind, bb.G.b_access))
      (G.bases g c)
  in
  for c = 0 to k - 1 do
    ignore (G.add_class b (G.name g c) ~bases:(bases_of c) ~members:(G.members g c))
  done;
  let base = G.freeze b in
  let muts = ref [] in
  for c = k to n - 1 do
    muts :=
      Store.Mutation.Add_class
        { ac_name = G.name g c;
          ac_bases = bases_of c;
          ac_members = G.members g c }
      :: !muts;
    (* deterministic extra member mutation on an earlier class *)
    muts :=
      Store.Mutation.Add_member
        { am_class = G.name g (c mod k);
          am_member = G.member (Printf.sprintf "w%d" c) }
      :: !muts
  done;
  (base, List.rev !muts)

(* replay the surviving mutations into a fresh builder: the from-scratch
   oracle graph a correct recovery must be equivalent to *)
let oracle_graph base muts =
  let b = G.create_builder () in
  G.iter_classes base (fun c ->
      ignore
        (G.add_class b (G.name base c)
           ~bases:
             (List.map
                (fun (bb : G.base) ->
                  (G.name base bb.G.b_class, bb.G.b_kind, bb.G.b_access))
                (G.bases base c))
           ~members:(G.members base c)));
  List.iter (fun m -> Store.Mutation.apply b m) muts;
  G.freeze b

let session_matches_oracle s og =
  let gs = Session.graph s in
  G.num_classes gs = G.num_classes og
  && List.for_all
       (fun c ->
         let cls = G.name og c in
         List.for_all
           (fun m ->
             match Session.lookup s cls m with
             | Error _ -> false
             | Ok (v, _) ->
               (match (Spec.lookup_static og c m, v) with
               | Spec.Resolved p, Some (Engine.Red r) ->
                 G.name og (Path.ldc p) = G.name gs r.A.r_ldc
               | Spec.Ambiguous _, Some (Engine.Blue _) -> true
               | Spec.Undeclared, None -> true
               | _ -> false))
           (G.member_names og))
       (G.classes og)

let instance_gen =
  QCheck.Gen.(
    map
      (fun (n, max_bases, vp, dp, seed) ->
        Hiergen.Families.random_dag ~n ~max_bases
          ~virtual_prob:(float_of_int vp /. 10.)
          ~declare_prob:(float_of_int dp /. 10.)
          ~members:qc_members ~seed)
      (tup5 (int_range 2 12) (int_range 1 3) (int_range 0 10)
         (int_range 1 6) (int_range 0 10000)))

let recovery_case_gen =
  (* the kill point is a per-mille of the WAL body length, so it lands
     anywhere from "right after the magic" to "nothing lost" *)
  QCheck.Gen.(tup2 instance_gen (int_range 0 1000))

let recovery_case_arb =
  QCheck.make recovery_case_gen ~print:(fun (i, kill) ->
      Printf.sprintf "kill at %d/1000 of\n%s\n%s" kill
        i.Hiergen.Families.description
        (Format.asprintf "%a" G.pp i.Hiergen.Families.graph))

let prop_crash_recovery =
  QCheck.Test.make ~count:60
    ~name:"recovery after any kill point = spec oracle on the prefix"
    recovery_case_arb (fun (inst, kill) ->
      let base, muts = split_instance inst in
      with_temp_dir (fun dir ->
          let session = "q" in
          let st = Store.open_dir dir in
          (* the durable history: epoch-0 snapshot with a couple of
             compiled columns, then the whole mutation log *)
          ignore
            (Store.write_snapshot st
               { Store.Snapshot.s_session = session;
                 s_epoch = 0;
                 s_protocol = Service.Protocol.version;
                 s_graph = base;
                 s_columns = compiled_columns base });
          List.iteri
            (fun i m -> Store.log_mutation st ~session ~epoch:(i + 1) m)
            muts;
          Store.close st;
          (* the crash: truncate the WAL at an arbitrary byte *)
          let wal_path = Filename.concat (Filename.concat dir "q") "wal.log" in
          let size = file_size wal_path in
          let magic = 8 in
          truncate_file wal_path
            (magic + (size - magic) * kill / 1000);
          (* recover exactly like the service does *)
          let st = Store.open_dir dir in
          let result =
            match Store.recover st session with
            | Error _ | Ok None -> false
            | Ok (Some rv) ->
              let snapshot = rv.Store.rv_snapshot in
              let s =
                Session.restore ~name:session
                  ~epoch:snapshot.Store.Snapshot.s_epoch
                  ~columns:snapshot.Store.Snapshot.s_columns
                  snapshot.Store.Snapshot.s_graph
              in
              let survivors =
                List.map
                  (fun (r : Store.Wal.record) -> r.Store.Wal.rc_mutation)
                  rv.Store.rv_replayed
              in
              List.iter
                (function
                  | Store.Mutation.Add_class
                      { ac_name; ac_bases; ac_members } ->
                    ignore
                      (Session.add_class s ~cls:ac_name ~bases:ac_bases
                         ~members:ac_members)
                  | Store.Mutation.Add_member { am_class; am_member } ->
                    ignore (Session.add_member s ~cls:am_class am_member))
                survivors;
              (* the tear never invents records: survivors are a prefix *)
              List.length survivors <= List.length muts
              && survivors
                 = List.filteri
                     (fun i _ -> i < List.length survivors)
                     muts
              && Session.epoch s = List.length survivors
              && session_matches_oracle s (oracle_graph base survivors)
          in
          Store.close st;
          result))

(* ---- replay through the service's recovery path ---------------------

   Server-level recovery (startup [recover_sessions] and the [restore]
   verb) replays the WAL tail into a restored session.  A record that
   cannot apply fails the recovery with that record's own message; a
   clean tail recovers a session that answers like the oracle on the
   replayed prefix, then keeps mutating like a live one. *)

let lookup_matches_spec srv ~session og c m =
  let line =
    Printf.sprintf
      "{\"op\":\"lookup\",\"session\":%S,\"class\":%S,\"member\":%S}"
      session (G.name og c) m
  in
  let r = Service.Server.handle_line srv line in
  let field k = match Chg.Json.member k r with Ok v -> v | Error _ -> Chg.Json.Null in
  match (Spec.lookup_static og c m, field "verdict") with
  | Spec.Resolved p, Chg.Json.String "red" ->
    field "resolves_to" = Chg.Json.String (G.name og (Path.ldc p))
  | Spec.Ambiguous _, Chg.Json.String "blue" -> true
  | Spec.Undeclared, Chg.Json.String "none" -> true
  | _ -> false

let test_replay_failure_message () =
  with_temp_dir (fun dir ->
      let g = graph () in
      let st = Store.open_dir dir in
      let log session records =
        ignore
          (Store.write_snapshot st
             { (snap ~epoch:0 g) with Store.Snapshot.s_session = session });
        List.iteri
          (fun i m -> Store.log_mutation st ~session ~epoch:(i + 1) m)
          records
      in
      let unknown_member =
        Store.Mutation.Add_member { am_class = "Nope"; am_member = G.member "x" }
      and unknown_base =
        Store.Mutation.Add_class
          { ac_name = "Z9"; ac_bases = [ ("Nope", G.Virtual, G.Public) ];
            ac_members = [] }
      in
      (* the bad record is the third of four: two good records apply
         before it, one after it never does *)
      let with_bad bad = [ List.nth mutations 0; List.nth mutations 1; bad;
                           List.nth mutations 2 ] in
      log "a" (with_bad unknown_member);
      log "b" (with_bad unknown_base);
      Store.close st;
      let srv = Service.Server.create ~store:(Store.open_dir dir) () in
      let failed =
        List.map
          (function
            | Service.Server.Recovery_failed { r_session; r_error } ->
              (r_session, r_error)
            | Service.Server.Recovered { r_session; _ } -> (r_session, "recovered"))
          (Service.Server.recover_sessions srv)
      in
      Alcotest.(check (list (pair string string)))
        "each recovery fails with its bad record's message"
        [ ("a", "class Nope is not declared");
          ("b", "class Z9 inherits from undeclared class Nope") ]
        failed;
      Alcotest.(check (list (pair string int))) "no session opened" []
        (Service.Server.open_sessions srv);
      (* the restore verb reports the same message under store_error *)
      let r =
        Service.Server.handle_line srv "{\"id\":1,\"op\":\"restore\",\"session\":\"a\"}"
      in
      let field k = match Chg.Json.member k r with Ok v -> v | Error _ -> Chg.Json.Null in
      Alcotest.(check bool) "restore fails" true (field "ok" = Chg.Json.Bool false);
      Alcotest.(check string) "restore error"
        {|{"code":"store_error","message":"replay failed: class Nope is not declared"}|}
        (Chg.Json.to_string (field "error")))

let replay_then_mutate_gen =
  QCheck.Gen.(tup2 instance_gen (int_range 0 1000))

let prop_replay_then_mutate =
  QCheck.Test.make ~count:40
    ~name:"recovered WAL tail, then more mutations = spec oracle"
    (QCheck.make replay_then_mutate_gen ~print:(fun (i, cut) ->
         Printf.sprintf "replay %d/1000 of the mutations of\n%s" cut
           (Format.asprintf "%a" G.pp i.Hiergen.Families.graph)))
    (fun (inst, cut) ->
      let base, muts = split_instance inst in
      let k = List.length muts * cut / 1000 in
      let logged = List.filteri (fun i _ -> i < k) muts
      and later = List.filteri (fun i _ -> i >= k) muts in
      with_temp_dir (fun dir ->
          let session = "q" in
          let st = Store.open_dir dir in
          ignore
            (Store.write_snapshot st
               { Store.Snapshot.s_session = session;
                 s_epoch = 0;
                 s_protocol = Service.Protocol.version;
                 s_graph = base;
                 s_columns = compiled_columns base });
          List.iteri
            (fun i m -> Store.log_mutation st ~session ~epoch:(i + 1) m)
            logged;
          Store.close st;
          let st = Store.open_dir dir in
          let srv = Service.Server.create ~store:st () in
          let matches og =
            List.for_all
              (fun c ->
                List.for_all (lookup_matches_spec srv ~session og c)
                  (G.member_names og))
              (G.classes og)
          in
          let ok =
            (match Service.Server.recover_sessions srv with
            | [ Service.Server.Recovered { r_replayed; r_epoch; _ } ] ->
              r_replayed = k && r_epoch = k
            | _ -> false)
            && matches (oracle_graph base logged)
            && List.for_all
                 (fun (i, m) ->
                   Service.Server.apply_replicated srv ~session ~epoch:(k + i + 1) m
                   = Ok ())
                 (List.mapi (fun i m -> (i, m)) later)
            && matches (oracle_graph base muts)
          in
          Store.close st;
          ok))

let suite =
  [ Alcotest.test_case "crc32 vectors" `Quick test_crc32;
    Alcotest.test_case "writer/reader round-trip" `Quick
      test_writer_reader_roundtrip;
    Alcotest.test_case "reader rejects truncation" `Quick
      test_reader_truncation;
    Alcotest.test_case "graph codec round-trip" `Quick
      test_graph_codec_roundtrip;
    Alcotest.test_case "graph codec vs corruption" `Quick
      test_graph_codec_rejects_corruption;
    Alcotest.test_case "verdict column round-trip" `Quick
      test_column_roundtrip;
    Alcotest.test_case "packed column codec round-trip" `Quick
      test_packed_column_codec;
    Alcotest.test_case "packed column codec vs corruption" `Quick
      test_packed_column_codec_rejects_corruption;
    Alcotest.test_case "snapshot reads legacy boxed columns" `Quick
      test_snapshot_reads_legacy_boxed_columns;
    Alcotest.test_case "column rejects huge count" `Quick
      test_column_rejects_huge_count;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot rejects corruption" `Quick
      test_snapshot_rejects_corruption;
    Alcotest.test_case "snapshot file round-trip" `Quick
      test_snapshot_file_roundtrip;
    Alcotest.test_case "wal round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal garbage and reset" `Quick
      test_wal_garbage_and_reset;
    Alcotest.test_case "store recover cycle" `Quick test_store_recover_cycle;
    Alcotest.test_case "store stale-snapshot fallback" `Quick
      test_store_stale_snapshot_fallback;
    Alcotest.test_case "replay failure names the bad record" `Quick
      test_replay_failure_message;
    Alcotest.test_case "store torn final record" `Quick
      test_store_torn_final_record ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_crash_recovery; prop_replay_then_mutate ]
