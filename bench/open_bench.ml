(* OPN1: what a server spends turning an [open] line into a graph, before
   it compiles anything from that graph.

   The line carries a whole cxxlookup-chg document as its [chg]: a
   600-class random DAG drawn with the serving benchmark's parameters,
   with 24 member names (~124 KB, read-json's shape) and with 256
   (~660 KB, read-1b-wide's).  Two decodes, in-process:

   + in place (the server's): [Protocol.parse_request] validates the
     line and cuts the span of its [chg], which [Serialize.of_span]
     reads where it lies;
   + tree (the former decode): [Json.of_string] builds the whole line
     as a tree and [Serialize.of_json] walks it into declarations.

   Both end at the same [Graph.t].  Per decode and document: ns per
   line byte and minor words per line byte, each as the median and
   quartiles over timed batches.  The CHECKs: both decodes give the
   same graph, and on the 660 KB line the in-place decode is the
   faster.  On the 124 KB line the in-place decode is not the faster:
   its tree dies in the minor heap, building it costs no more than
   taping the span, and [Graph.of_decls], which both decodes end in,
   is over half of either. *)

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

let in_place line =
  match P.parse_request line with
  | Ok { P.rq_op = P.Open { o_hierarchy = P.Chg_json sp; _ }; _ } ->
    Chg.Serialize.of_span sp
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

(* [repeats] batches of [per_call] decodes after a warm-up: per batch,
   ns and minor words per line byte *)
let measure ~repeats decode line =
  let bytes = float_of_int (per_call * String.length line) in
  for _ = 1 to 2 do
    ignore (Sys.opaque_identity (decode line))
  done;
  let ns = Array.make repeats 0. and words = Array.make repeats 0. in
  for r = 0 to repeats - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Telemetry.Clock.now_ns () in
    for _ = 1 to per_call do
      ignore (Sys.opaque_identity (decode line))
    done;
    ns.(r) <- float_of_int (Telemetry.Clock.elapsed_ns ~since:t0) /. bytes;
    words.(r) <- (Gc.minor_words () -. w0) /. bytes
  done;
  (quartiles ns, quartiles words)

let same_graph a b =
  match (a, b) with
  | Ok a, Ok b -> Chg.Serialize.to_string a = Chg.Serialize.to_string b
  | _ -> false

(* [docs]: (member names, whether to CHECK that in place wins) *)
let run_with ~repeats ~docs =
  Format.printf "@.---- OPN1: decoding an open line into a graph ----@.";
  List.iter
    (fun (members, check_faster) ->
      let g, line = open_line ~members in
      let bytes = String.length line in
      let kb = bytes / 1024 in
      Fig_tables.check
        (Printf.sprintf "%d KB line: in-place and tree decodes give the same graph" kb)
        (same_graph (in_place line) (tree line)
         && same_graph (in_place line) (Ok g));
      let rows =
        [ ("in place", measure ~repeats in_place line);
          ("tree (former)", measure ~repeats tree line) ]
      in
      List.iter
        (fun (decode, ((ns, ns_q1, ns_q3), (w, w_q1, w_q3))) ->
          let family = Printf.sprintf "open decode: %s, %d KB" decode kb in
          Format.printf
            "  %-32s %6.2f ns/byte [%6.2f, %6.2f]  %5.2f minor words/byte [%5.2f, %5.2f]@."
            family ns ns_q1 ns_q3 w w_q1 w_q3;
          let f x = Telemetry.Json.Float x in
          Scaling.record ~experiment:"OPN1" ~family
            ~n_plus_e:(G.num_classes g + G.num_edges g)
            ~time_ns:(ns *. float_of_int bytes)
            (Telemetry.Json.Obj
               [ ("line_bytes", Telemetry.Json.Int bytes);
                 ("repeats", Telemetry.Json.Int repeats);
                 ("calls_per_repeat", Telemetry.Json.Int per_call);
                 ("ns_per_byte", f ns); ("ns_per_byte_q1", f ns_q1);
                 ("ns_per_byte_q3", f ns_q3);
                 ("minor_words_per_byte", f w);
                 ("minor_words_per_byte_q1", f w_q1);
                 ("minor_words_per_byte_q3", f w_q3) ]))
        rows;
      let median decode =
        let (ns, _, _), _ = List.assoc decode rows in
        ns
      in
      if check_faster then
        Fig_tables.check
          (Printf.sprintf "%d KB line: the in-place decode beats the tree decode" kb)
          (median "in place" < median "tree (former)"))
    docs

let run () = run_with ~repeats:15 ~docs:[ (24, false); (256, true) ]

(* make bench-smoke: the 660 KB line only, few repeats *)
let smoke () = run_with ~repeats:5 ~docs:[ (256, true) ]
