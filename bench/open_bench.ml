(* OPN1: what a server spends turning an [open] line into a graph, before
   it compiles anything from that graph.

   The line carries a whole cxxlookup-chg document as its [chg]: a
   600-class random DAG drawn with the serving benchmark's parameters,
   with 24 member names (~124 KB, read-json's shape) and with 256
   (~660 KB, read-1b-wide's).  Two decodes, in-process and warm:

   + in place (the server's): [Protocol.parse_request] validates the
     line and, in the same pass, [Serialize.read] reads its [chg] where
     it lies;
   + tree (the former decode): [Json.of_string] builds the whole line
     as a tree and [Serialize.of_json] walks it into declarations.

   Both end at the same [Graph.t].  The in-place decode is timed a
   second time on the same line with every object's keys reversed: the
   reader matches members, bases and class heads in the layout
   [Serialize.to_string] prints and reads anything else field by field,
   and this row prices a document it never matches.  Its ns per byte
   are per byte of that line, which is as long as the first.  Per
   decode and document: ns, minor words and major words (promoted or
   allocated there) per line byte, each as the median and quartiles
   over timed batches.

   A cold row per document: what a fresh server pays for its first
   [open], the case a benchmark's set-up meets.  Each run is a child
   process ([main.exe open-child]) that reads the line from a pipe and
   answers it on a new [Server.t]; the child reports the CPU of that
   one [handle_line] from [getrusage], and the parent the child's whole
   CPU from the rusage of its reaped children.  Median and quartiles
   over [cold_runs] children.

   A stage row per document splits that first open: other children
   ([main.exe open-stages-child]), run in turn with the first ones, take
   the same line through the service's own functions one stage at a
   time — the line read off the pipe, the decode
   ([Protocol.parse_request]), [Session.create] (closure and member
   symbols), [Session.symbols] and the first column compile (one
   lookup) — and report each stage's CPU from [getrusage].  Decode plus
   [Session.create] is what the first children's [handle_line] spends
   before it answers; the row states the gap between the two medians.

   The CHECKs: both decodes give the same graph, every cold open
   answers ok, and on the 660 KB line the in-place decode is the
   faster. *)

module G = Chg.Graph
module J = Chg.Json
module P = Service.Protocol

let open_line ~members =
  let i =
    Hiergen.Families.random_dag ~n:600 ~max_bases:2 ~virtual_prob:0.2
      ~declare_prob:0.05
      ~members:(List.init members (Printf.sprintf "m%d"))
      ~seed:1
  in
  let g = i.Hiergen.Families.graph in
  ( g,
    Printf.sprintf {|{"id":1,"op":"open","session":"opn","chg":%s}|}
      (Chg.Serialize.to_string g) )

(* [line] with every object's keys in reverse order: a document no
   writer here prints, so the reader meets none of its members, bases or
   classes in [Serialize.to_string]'s layout *)
let keys_reversed line =
  let rec rev = function
    | J.Obj fields -> J.Obj (List.rev_map (fun (k, v) -> (k, rev v)) fields)
    | J.List l -> J.List (List.map rev l)
    | j -> j
  in
  match J.of_string line with
  | Ok (J.Obj fields) ->
    J.to_string
      (J.Obj (List.map (fun (k, v) -> (k, if k = "chg" then rev v else v)) fields))
  | _ -> invalid_arg "OPN1: not an object"

let in_place line =
  match P.parse_request line with
  | Ok { P.rq_op = P.Open { o_hierarchy = P.Chg_json chg; _ }; _ } -> chg
  | _ -> Error "OPN1: not an open with a chg"

let tree line =
  Result.bind (J.of_string line) (fun j ->
      Result.bind (J.member "chg" j) Chg.Serialize.of_json)

(* median and quartiles of [xs] *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let at q = a.(int_of_float (q *. float_of_int (Array.length a - 1) +. 0.5)) in
  (at 0.5, at 0.25, at 0.75)

let per_call = 3

(* [Gc.counters]' major figure: words promoted or allocated in the
   major heap, counted as they happen *)
let major_words () =
  let _, _, w = Gc.counters () in
  w

(* [repeats] batches of [per_call] decodes after a warm-up: per batch,
   ns, minor words and major words per line byte *)
let measure ~repeats decode line =
  let bytes = float_of_int (per_call * String.length line) in
  for _ = 1 to 2 do
    ignore (Sys.opaque_identity (decode line))
  done;
  let ns = Array.make repeats 0.
  and words = Array.make repeats 0.
  and major = Array.make repeats 0. in
  for r = 0 to repeats - 1 do
    let w0 = Gc.minor_words () and m0 = major_words () in
    let t0 = Telemetry.Clock.now_ns () in
    for _ = 1 to per_call do
      ignore (Sys.opaque_identity (decode line))
    done;
    ns.(r) <- float_of_int (Telemetry.Clock.elapsed_ns ~since:t0) /. bytes;
    words.(r) <- (Gc.minor_words () -. w0) /. bytes;
    major.(r) <- (major_words () -. m0) /. bytes
  done;
  (quartiles ns, quartiles words, quartiles major)

let same_graph a b =
  match (a, b) with
  | Ok a, Ok b -> Chg.Serialize.to_string a = Chg.Serialize.to_string b
  | _ -> false

(* ---- cold: the first open of a fresh process ---- *)

let cold_runs = 9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* The child: one [open] line from stdin, answered by a new server;
   prints the CPU µs of that answer and whether it was ok. *)
let child () =
  let line = In_channel.input_all stdin in
  let c0 = cpu_s () in
  let r = Service.Server.handle_line (Service.Server.create ()) line in
  let c1 = cpu_s () in
  Printf.printf "%.0f %b\n%!" ((c1 -. c0) *. 1e6)
    (J.member "ok" r = Ok (J.Bool true));
  exit 0

(* One child: the CPU µs of its open, of its whole life, and whether
   the open answered ok. *)
let cold_run line =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let before = children_cpu_s () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "open-child" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  output_string oc line;
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let reply = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  let whole = (children_cpu_s () -. before) *. 1e6 in
  match String.split_on_char ' ' reply with
  | [ us; ok ] -> (float_of_string us, whole, ok = "true")
  | _ -> (0., whole, false)

(* The stage child: the line, then each stage of an open in turn;
   prints the CPU µs of every stage and whether the lookup was served
   from a compiled column. *)
let stages_child () =
  let c0 = cpu_s () in
  let line = In_channel.input_all stdin in
  let c1 = cpu_s () in
  let g =
    match in_place line with Ok g -> g | Error e -> failwith ("OPN1: " ^ e)
  in
  let c2 = cpu_s () in
  let s = Service.Session.create ~name:"opn" g in
  let c3 = cpu_s () in
  ignore (Sys.opaque_identity (Service.Session.symbols s));
  let c4 = cpu_s () in
  let compiled =
    match Service.Session.lookup s (G.name g (G.num_classes g - 1)) "m0" with
    | Ok (_, Service.Session.Compiled) -> true
    | _ -> false
  in
  let c5 = cpu_s () in
  let us a b = (b -. a) *. 1e6 in
  Printf.printf "%.0f %.0f %.0f %.0f %.0f %b\n%!" (us c0 c1) (us c1 c2)
    (us c2 c3) (us c3 c4) (us c4 c5) compiled;
  exit 0

let stage_names = [ "read"; "decode"; "session"; "symbols"; "column" ]

(* One stage child: the CPU µs of each stage, and whether its lookup
   was served from a column. *)
let stages_run line =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "open-stages-child" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  output_string oc line;
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let reply = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match List.rev (String.split_on_char ' ' reply) with
  | ok :: rev_us when List.length rev_us = List.length stage_names ->
    (List.rev_map float_of_string rev_us, ok = "true")
  | _ -> (List.map (fun _ -> 0.) stage_names, false)

let cold ~kb ~bytes ~size line =
  let both =
    List.init cold_runs (fun _ ->
        let whole = cold_run line in
        (whole, stages_run line))
  in
  let runs = List.map fst both and stages = List.map snd both in
  let open_ms = Array.of_list (List.map (fun (us, _, _) -> us /. 1e3) runs) in
  let whole_ms = Array.of_list (List.map (fun (_, us, _) -> us /. 1e3) runs) in
  Fig_tables.check
    (Printf.sprintf "%d KB line: every cold open answered ok" kb)
    (List.for_all (fun (_, _, ok) -> ok) runs);
  let (o, o1, o3) = quartiles open_ms and (w, w1, w3) = quartiles whole_ms in
  let family = Printf.sprintf "open decode: cold, first open, %d KB" kb in
  Format.printf
    "  %-32s %6.2f CPU ms [%6.2f, %6.2f]  child %6.2f CPU ms [%6.2f, %6.2f]@."
    family o o1 o3 w w1 w3;
  let f x = Telemetry.Json.Float x in
  Scaling.record ~experiment:"OPN1" ~family ~n_plus_e:size ~time_ns:(o *. 1e6)
    (Telemetry.Json.Obj
       [ ("line_bytes", Telemetry.Json.Int bytes);
         ("runs", Telemetry.Json.Int cold_runs);
         ("open_cpu_ms", f o); ("open_cpu_ms_q1", f o1);
         ("open_cpu_ms_q3", f o3);
         ("child_cpu_ms", f w); ("child_cpu_ms_q1", f w1);
         ("child_cpu_ms_q3", f w3) ]);
  Fig_tables.check
    (Printf.sprintf "%d KB line: every stage child compiled its column" kb)
    (List.for_all snd stages);
  let stage k =
    quartiles
      (Array.of_list (List.map (fun (us, _) -> List.nth us k /. 1e3) stages))
  in
  let rows = List.mapi (fun k name -> (name, stage k)) stage_names in
  let (d, _, _) = List.assoc "decode" rows and (c, _, _) = List.assoc "session" rows in
  let family = Printf.sprintf "open decode: cold stages, %d KB" kb in
  Format.printf "  %-32s %s@." family
    (String.concat "  "
       (List.map
          (fun (name, (m, q1, q3)) ->
            Printf.sprintf "%s %.2f [%.2f, %.2f]" name m q1 q3)
          rows));
  Format.printf
    "  %-32s decode + session %.2f CPU ms against the open's %.2f: %+.0f%%@." ""
    (d +. c) o (100. *. (d +. c -. o) /. o);
  Scaling.record ~experiment:"OPN1" ~family ~n_plus_e:size ~time_ns:((d +. c) *. 1e6)
    (Telemetry.Json.Obj
       (("line_bytes", Telemetry.Json.Int bytes)
        :: ("runs", Telemetry.Json.Int cold_runs)
        :: ("decode_plus_session_vs_open_pct",
            f (100. *. (d +. c -. o) /. o))
        :: List.concat_map
             (fun (name, (m, q1, q3)) ->
               [ (name ^ "_cpu_ms", f m); (name ^ "_cpu_ms_q1", f q1);
                 (name ^ "_cpu_ms_q3", f q3) ])
             rows))

(* [docs]: (member names, whether to CHECK that in place wins) *)
let run_with ~repeats ~cold_rows ~docs =
  Format.printf "@.---- OPN1: decoding an open line into a graph ----@.";
  List.iter
    (fun (members, check_faster) ->
      let g, line = open_line ~members in
      let bytes = String.length line in
      let kb = bytes / 1024 in
      let size = G.num_classes g + G.num_edges g in
      let reversed = keys_reversed line in
      Fig_tables.check
        (Printf.sprintf "%d KB line: in-place and tree decodes give the same graph" kb)
        (same_graph (in_place line) (tree line)
         && same_graph (in_place line) (Ok g)
         && same_graph (in_place reversed) (Ok g));
      let rows =
        [ ("in place", measure ~repeats in_place line);
          ("in place, keys reversed", measure ~repeats in_place reversed);
          ("tree (former)", measure ~repeats tree line) ]
      in
      List.iter
        (fun (decode, ((ns, ns_q1, ns_q3), (w, w_q1, w_q3), (m, m_q1, m_q3))) ->
          let family = Printf.sprintf "open decode: %s, %d KB" decode kb in
          Format.printf
            "  %-32s %6.2f ns/byte [%6.2f, %6.2f]  %5.2f minor [%5.2f, %5.2f]  %5.2f major words/byte [%5.2f, %5.2f]@."
            family ns ns_q1 ns_q3 w w_q1 w_q3 m m_q1 m_q3;
          let f x = Telemetry.Json.Float x in
          Scaling.record ~experiment:"OPN1" ~family ~n_plus_e:size
            ~time_ns:(ns *. float_of_int bytes)
            (Telemetry.Json.Obj
               [ ("line_bytes", Telemetry.Json.Int bytes);
                 ("repeats", Telemetry.Json.Int repeats);
                 ("calls_per_repeat", Telemetry.Json.Int per_call);
                 ("ns_per_byte", f ns); ("ns_per_byte_q1", f ns_q1);
                 ("ns_per_byte_q3", f ns_q3);
                 ("minor_words_per_byte", f w);
                 ("minor_words_per_byte_q1", f w_q1);
                 ("minor_words_per_byte_q3", f w_q3);
                 ("major_words_per_byte", f m);
                 ("major_words_per_byte_q1", f m_q1);
                 ("major_words_per_byte_q3", f m_q3) ]))
        rows;
      if cold_rows then cold ~kb ~bytes ~size line;
      let median decode =
        let (ns, _, _), _, _ = List.assoc decode rows in
        ns
      in
      if check_faster then
        Fig_tables.check
          (Printf.sprintf "%d KB line: the in-place decode beats the tree decode" kb)
          (median "in place" < median "tree (former)"))
    docs

let run () = run_with ~repeats:15 ~cold_rows:true ~docs:[ (24, false); (256, true) ]

(* make bench-smoke: the 660 KB line only, few repeats, no children *)
let smoke () = run_with ~repeats:5 ~cold_rows:false ~docs:[ (256, true) ]
