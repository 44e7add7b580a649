module B = Chg.Binary

let magic = "CXLWAL00"

type fsync_policy = Always | Every of int | Never

let fsync_policy_to_string = function
  | Always -> "always"
  | Every n -> Printf.sprintf "every %d" n
  | Never -> "never"

type record = { rc_epoch : int; rc_mutation : Mutation.t }

type tail = {
  tl_records : record list;
  tl_torn : bool;
  tl_valid_bytes : int;  (** length of the well-formed prefix, incl. magic *)
}

let empty_tail = { tl_records = []; tl_torn = false; tl_valid_bytes = 0 }

let crc_int s = Int32.to_int (B.crc32_string s) land 0xffffffff

(* ---- scanning ------------------------------------------------------ *)

(* One record on disk is [u32 len | u32 crc | payload]; the payload is
   [i64 epoch | mutation].  The scan stops at the first frame that does
   not check out — a short header, a length past EOF, a CRC mismatch, or
   an undecodable payload — and reports everything before it.  That is
   exactly the kill-point contract: a crash can only tear the final
   append, so the valid prefix is the recovered history. *)
let scan data =
  let total = String.length data in
  let ml = String.length magic in
  if total < ml || String.sub data 0 ml <> magic then
    { empty_tail with tl_torn = total > 0 }
  else begin
    let r = B.Reader.of_string ~pos:ml data in
    let records = ref [] in
    let valid = ref ml in
    let torn = ref false in
    (try
       while not (B.Reader.at_end r) do
         if B.Reader.remaining r < 8 then raise Exit;
         let len = B.Reader.u32 r in
         let crc = B.Reader.u32 r in
         if len > B.Reader.remaining r then raise Exit;
         let payload = B.Reader.raw r len in
         if crc_int payload <> crc then raise Exit;
         let pr = B.Reader.of_string payload in
         let rc_epoch = B.Reader.i64 pr in
         let rc_mutation = Mutation.read pr in
         if not (B.Reader.at_end pr) then raise Exit;
         records := { rc_epoch; rc_mutation } :: !records;
         valid := B.Reader.pos r
       done
     with Exit | B.Corrupt _ -> torn := true);
    { tl_records = List.rev !records;
      tl_torn = !torn;
      tl_valid_bytes = !valid }
  end

let read_file path =
  if not (Sys.file_exists path) then empty_tail
  else scan (In_channel.with_open_bin path In_channel.input_all)

(* ---- the append handle --------------------------------------------- *)

type t = {
  path : string;
  fd : Unix.file_descr;
  fsync : fsync_policy;
  mutable size : int;
  mutable since_sync : int;
  mutable appends : int;
  mutable fsyncs : int;
  append_ns : Telemetry.Histogram.t option;  (* shared observability *)
  fsync_ns : Telemetry.Histogram.t option;
}

let open_append ?(fsync = Every 8) ?append_ns ?fsync_ns path =
  (match fsync with
  | Every n when n < 1 -> invalid_arg "Wal.open_append: Every must be >= 1"
  | _ -> ());
  let tail = read_file path in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let size =
    if tail.tl_valid_bytes = 0 then begin
      (* fresh file, or one whose very magic is damaged: start over *)
      Unix.ftruncate fd 0;
      ignore (Unix.write_substring fd magic 0 (String.length magic));
      String.length magic
    end
    else begin
      (* drop any torn tail so new appends extend the valid prefix *)
      Unix.ftruncate fd tail.tl_valid_bytes;
      ignore (Unix.lseek fd tail.tl_valid_bytes Unix.SEEK_SET);
      tail.tl_valid_bytes
    end
  in
  { path; fd; fsync; size; since_sync = 0; appends = 0; fsyncs = 0;
    append_ns; fsync_ns }

let observe hist since =
  match hist with
  | None -> ()
  | Some h ->
    Telemetry.Histogram.record h (Telemetry.Clock.elapsed_ns ~since)

let sync t =
  let t0 = Telemetry.Clock.now_ns () in
  Unix.fsync t.fd;
  observe t.fsync_ns t0;
  t.fsyncs <- t.fsyncs + 1;
  t.since_sync <- 0

let append t ~epoch mutation =
  let t0 = Telemetry.Clock.now_ns () in
  let pw = B.Writer.create () in
  B.Writer.i64 pw epoch;
  Mutation.write pw mutation;
  let payload = B.Writer.contents pw in
  let w = B.Writer.create ~initial_size:(String.length payload + 8) () in
  B.Writer.u32 w (String.length payload);
  B.Writer.u32 w (crc_int payload);
  B.Writer.raw w payload;
  let frame = B.Writer.contents w in
  (* one write() per record: the kernel has the whole frame even if the
     process dies right after, and a crash mid-call tears at most this
     final record — which the scan detects and drops *)
  let n = Unix.write_substring t.fd frame 0 (String.length frame) in
  assert (n = String.length frame);
  t.size <- t.size + n;
  t.appends <- t.appends + 1;
  t.since_sync <- t.since_sync + 1;
  (* append latency covers frame + write, not the policy's fsync —
     fsync cost has its own distribution *)
  observe t.append_ns t0;
  (match t.fsync with
  | Always -> sync t
  | Every k -> if t.since_sync >= k then sync t
  | Never -> ());
  n

(* ---- incremental tailing ------------------------------------------- *)

(* A poll-based reader over a WAL file someone else is appending to —
   the replication sender's view of its own leader's log.  Each [poll]
   stats the file and decodes only the bytes past the reader's offset,
   so a long-lived tail never re-scans history.

   The offset advances over complete, CRC-valid frames only.  A
   trailing frame that fails its checks is *not* skipped and *not*
   remembered as bad: the writer may simply not have finished its
   single [write] yet, so the suffix is re-validated from the same
   offset on every poll until it completes (or is truncated away).
   This is the fix for the one-shot torn-tail judgement [scan] makes:
   a scan decides "torn" once, a tail must keep re-checking.

   A file that shrinks — compaction's [reset], or a superseding
   lineage — cannot be tailed through: the reader rewinds and reports
   [Reset] so the consumer can resynchronize (for replication, resend
   the newest snapshot). *)
module Tail_reader = struct
  type poll_result =
    | Frames of record list  (** new complete records, in append order *)
    | Reset  (** the file shrank or vanished: resynchronize *)
    | Nothing  (** no complete new frame yet *)

  type reader = {
    tr_path : string;
    mutable tr_offset : int;  (* next unread byte; 0 = magic unchecked *)
  }

  let create path = { tr_path = path; tr_offset = 0 }
  let offset r = r.tr_offset

  let read_span path ~pos ~len =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd pos Unix.SEEK_SET);
        let buf = Bytes.create len in
        let got = ref 0 in
        (try
           while !got < len do
             let n = Unix.read fd buf !got (len - !got) in
             if n = 0 then raise Exit;
             got := !got + n
           done
         with Exit -> ());
        Bytes.sub_string buf 0 !got)

  (* Decode complete frames from [data]; returns them with the byte
     count consumed.  An incomplete or invalid suffix consumes
     nothing of itself. *)
  let decode_frames data =
    let r = B.Reader.of_string data in
    let records = ref [] in
    let consumed = ref 0 in
    (try
       while not (B.Reader.at_end r) do
         if B.Reader.remaining r < 8 then raise Exit;
         let len = B.Reader.u32 r in
         let crc = B.Reader.u32 r in
         if len > B.Reader.remaining r then raise Exit;
         let payload = B.Reader.raw r len in
         if crc_int payload <> crc then raise Exit;
         let pr = B.Reader.of_string payload in
         let rc_epoch = B.Reader.i64 pr in
         let rc_mutation = Mutation.read pr in
         if not (B.Reader.at_end pr) then raise Exit;
         records := { rc_epoch; rc_mutation } :: !records;
         consumed := B.Reader.pos r
       done
     with Exit | B.Corrupt _ -> ());
    (List.rev !records, !consumed)

  let poll r =
    let ml = String.length magic in
    match Unix.stat r.tr_path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      if r.tr_offset > 0 then begin
        r.tr_offset <- 0;
        Reset
      end
      else Nothing
    | st ->
      let size = st.Unix.st_size in
      if size < r.tr_offset then begin
        (* shrank below what we already consumed: a WAL reset *)
        r.tr_offset <- 0;
        Reset
      end
      else if r.tr_offset = 0 && size < ml then Nothing  (* magic pending *)
      else if size = r.tr_offset then Nothing  (* not grown: nothing to open *)
      else begin
        let start = r.tr_offset in
        let data = read_span r.tr_path ~pos:start ~len:(size - start) in
        let base, data =
          if r.tr_offset = 0 then
            if String.length data >= ml && String.sub data 0 ml = magic then
              (ml, String.sub data ml (String.length data - ml))
            else (0, "")  (* header damaged: treat as resync *)
          else (start, data)
        in
        if base = 0 then Reset
        else begin
          let records, consumed = decode_frames data in
          r.tr_offset <- base + consumed;
          if records = [] then Nothing else Frames records
        end
      end
end

let reset t =
  Unix.ftruncate t.fd (String.length magic);
  ignore (Unix.lseek t.fd (String.length magic) Unix.SEEK_SET);
  t.size <- String.length magic;
  t.since_sync <- 0

let size t = t.size
let path t = t.path
let appends t = t.appends
let fsyncs t = t.fsyncs
let close t = Unix.close t.fd
