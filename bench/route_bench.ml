(* RTE1: what the shard router spends on one large [open] line before
   forwarding it — reading the line off a socket and classifying it.

   The line is a whole cxxlookup-chg document (a 600-class random DAG
   with 24 member names, the shape the serving benchmark's workloads
   draw), carried as an [open]'s [chg].  The router never builds that
   document: it needs the verb and the session, then forwards the
   caller's bytes.  Rows, per line, in-process over a Unix socketpair
   (a writer thread on one end, the reader on the other):

   + read: the shared connection loop ([Net.Server.serve_conn]: the
     line decoded where it was read), against a per-byte channel reader (one
     [input_char] per byte — how the router read lines before it ran on
     the shared loop), each answering a one-byte reply;
   + classify: the routing decode ([Service.Server.decode_line
     ~shallow:true], the hierarchy validated but not built) against the
     full decode;
   + router path = shared-loop read + shallow decode, against the
     former path = per-byte read + full decode.

   A row's time is the exact median of its calls; its latency fields
   come from the histogram (bucket bounds, <= 12.5% error).

   The CHECKs: both decodes classify the line alike, and the router
   path beats the former path. *)

module G = Chg.Graph
module J = Chg.Json
module S = Service.Server

let header id title = Format.printf "@.---- %s: %s ----@." id title

let iterations = 40

let open_line () =
  let i =
    Hiergen.Families.random_dag ~n:600 ~max_bases:2 ~virtual_prob:0.2
      ~declare_prob:0.05
      ~members:(List.init 24 (Printf.sprintf "m%d"))
      ~seed:1
  in
  let g = i.Hiergen.Families.graph in
  ( g,
    J.to_string
      (J.Obj
         [ ("id", J.Int 1); ("op", J.String "open"); ("session", J.String "rte");
           ("chg", Chg.Serialize.to_json g) ]) )

let classify decoded =
  match decoded with
  | Ok (rq : S.request) ->
    Printf.sprintf "%s %s" (S.verb rq.S.rq_op)
      (Option.value rq.S.rq_session ~default:"-")
  | Error (_, code, _) -> Service.Protocol.code_string code

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* Per-call times, ns: the histogram for the row's latency fields and
   the exact median for its time. *)
type timings = { hist : Telemetry.Histogram.t; median_ns : int }

let timed f =
  let hist = Telemetry.Histogram.create () in
  let samples =
    Array.init iterations (fun _ ->
        let t0 = Telemetry.Clock.now_ns () in
        f ();
        let dt = Telemetry.Clock.elapsed_ns ~since:t0 in
        Telemetry.Histogram.record hist dt;
        dt)
  in
  Array.sort compare samples;
  { hist; median_ns = samples.(iterations / 2) }

(* Round trips of [line] through a reader running [serve] on the far
   end of a socketpair; the reader answers each line with one byte.
   The write blocks only while the reader drains the socket. *)
let time_reads serve line =
  let near, far = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Thread.create serve far in
  let payload = line ^ "\n" in
  let reply = Bytes.create 1 in
  let t =
    timed (fun () ->
        write_all near payload;
        if Unix.read near reply 0 1 <> 1 then failwith "RTE1: reader closed")
  in
  Unix.close near;
  Thread.join reader;
  Unix.close far;
  t

(* The shared loop, answering each complete line with [on_line s pos
   len], the line's region of the connection's buffer. *)
let shared_loop on_line fd =
  Net.Server.serve_conn ~idle_timeout:60. ~max_line:(1 lsl 20) fd
    (fun out -> function
      | Net.Server.Line (b, pos, len) ->
        on_line (Bytes.unsafe_to_string b) pos len;
        Service.Outbuf.add_char out '.'
      | _ -> failwith "RTE1: unexpected message")
    (ref false)

(* One [input_char] per byte up to the newline: the reader the router
   used before it ran on the shared loop. *)
let per_byte on_line fd =
  let ic = Unix.in_channel_of_descr fd in
  let b = Buffer.create 256 in
  try
    while true do
      Buffer.clear b;
      let rec go () =
        match input_char ic with
        | '\n' -> ()
        | c ->
          Buffer.add_char b c;
          go ()
      in
      go ();
      on_line (Buffer.contents b) 0 (Buffer.length b);
      ignore (Unix.write_substring fd "." 0 1)
    done
  with End_of_file -> ()

let time_decodes decode line =
  timed (fun () -> ignore (Sys.opaque_identity (decode line)))

let run () =
  header "RTE1" "router ingest: reading and classifying a large open line";
  let g, line = open_line () in
  let size = G.num_classes g + G.num_edges g in
  let bytes = String.length line in
  let full l = S.decode_line l and shallow l = S.decode_line ~shallow:true l in
  Fig_tables.check "shallow and full decode classify the open line alike"
    (classify (full line) = classify (shallow line)
     && classify (full line) = "open rte");
  let ignore_line _ _ _ = () in
  let route s pos len =
    ignore (Sys.opaque_identity (S.decode_line ~shallow:true ~pos ~len s))
  in
  let former s _ _ = ignore (Sys.opaque_identity (full s)) in
  let rows =
    [ ("read: shared loop", time_reads (shared_loop ignore_line) line);
      ("read: per-byte channel (former)", time_reads (per_byte ignore_line) line);
      ("classify: shallow decode", time_decodes shallow line);
      ("classify: full decode (former)", time_decodes full line);
      ("read + classify: router path", time_reads (shared_loop route) line);
      ("read + classify: former path", time_reads (per_byte former) line) ]
  in
  Format.printf "  open line: %d bytes (%d classes), %d iterations per row@."
    bytes (G.num_classes g) iterations;
  List.iter
    (fun (family, { hist; median_ns }) ->
      Format.printf "  %-34s median=%7.3f ms  p90=%7.3f ms@." family
        (float_of_int median_ns /. 1e6)
        (float_of_int (Telemetry.Histogram.quantile hist 0.9) /. 1e6);
      Scaling.record ~experiment:"RTE1" ~family ~n_plus_e:size
        ~time_ns:(float_of_int median_ns) ~latency:hist
        (Telemetry.Json.Obj [ ("line_bytes", Telemetry.Json.Int bytes) ]))
    rows;
  let median family = (List.assoc family rows).median_ns in
  Fig_tables.check "router path (shared loop + shallow decode) beats the former path"
    (median "read + classify: router path" < median "read + classify: former path")
