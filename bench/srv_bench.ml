(* SRV1: networked-server latency and saturation — loadgen against the
   TCP server at 1, 2 and 4 workers on the paper's figure-9 hierarchy.

   Three runs per measurement over a loopback ephemeral port.  An
   open-loop run at a fixed aggregate rate gives the p50/p99 a client
   would see when the server keeps up (latencies measured from the
   coordinated-omission-safe schedule, so stalls are charged).  Two
   closed-loop runs — every connection sending as fast as the server
   answers, over JSON lines and over cxxlookup-rpc/1b — give the
   saturation throughput.

   One 1-s run per row cannot resolve a change, so each row is measured
   [repeats] times, each on a fresh server, with the rows interleaved
   (1, 2, 4 workers, then 4, 2, 1, ...) so drift on the host falls on
   every row alike; a row reports the median and quartiles of each
   figure, as CLU1 does.

   Worker scaling is honest, not flattering: on a single-core host the
   1/2/4-worker rows measure the cost of domain coordination, not a
   speedup; the recorded host header (ncores) says which one a given
   BENCH_lookup.json shows. *)

module G = Chg.Graph
module J = Chg.Json
module Figures = Hiergen.Figures

let header id title = Format.printf "@.---- %s: %s ----@." id title

let response_ok line =
  match J.of_string line with
  | Ok j -> J.member "ok" j = Ok (J.Bool true)
  | Error _ -> false

(* Open the bench session over the wire (sessions belong to the server,
   not the connection) and prime the table cache with one serial pass so
   the measured runs hit compiled columns, as a warm server would. *)
let open_and_warm addr ~session g queries =
  let cl = Net.Client.connect addr in
  let line =
    J.to_string
      (J.Obj
         [ ("id", J.Int 0); ("op", J.String "open");
           ("session", J.String session); ("chg", Chg.Serialize.to_json g) ])
  in
  (match Net.Client.request cl line with
  | Some r when response_ok r -> ()
  | _ -> invalid_arg "SRV1: open failed");
  Array.iter
    (fun (c, m) ->
      let q =
        J.to_string
          (J.Obj
             [ ("id", J.Int 1); ("op", J.String "lookup");
               ("session", J.String session); ("class", J.String c);
               ("member", J.String m) ])
      in
      match Net.Client.request cl q with
      | Some _ -> ()
      | None -> invalid_arg "SRV1: warmup connection lost")
    queries;
  Net.Client.close cl

let with_server ~workers f =
  let srv = Service.Server.create () in
  let config = { Net.Server.default_config with workers } in
  let net = Net.Server.create ~config srv (Net.Server.Tcp ("127.0.0.1", 0)) in
  let th = Thread.create Net.Server.run net in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop net;
      Thread.join th)
    (fun () -> f (Net.Server.bound_addr net))

let open_loop_qps = 2000.
let measure_s = 1.0
let repeats = 5

type sample = {
  fixed : Telemetry.Histogram.t;  (* the open-loop run's latencies *)
  fixed_answered : int;
  sat_qps : float;
  sat_answered : int;
  sat_b_qps : float;
  sat_b_answered : int;
  errors : int;  (* in-band errors over the three runs *)
}

(* One measurement of a row, on a fresh server. *)
let measure ~workers g queries =
  with_server ~workers @@ fun addr ->
  let session = "bench" in
  open_and_warm addr ~session g queries;
  let mix = [ ("lookup", 9); ("batch_lookup", 1) ] in
  let base =
    { Net.Loadgen.conns = 4; qps = 0.; duration = measure_s; mix;
      batch_size = 8; binary = false }
  in
  (* fixed-rate run: client-visible latency when the server keeps up *)
  let fixed =
    Net.Loadgen.run addr { base with qps = open_loop_qps } ~session ~queries
  in
  (* saturation runs, both framings: JSON lines vs cxxlookup-rpc/1b *)
  let sat = Net.Loadgen.run addr base ~session ~queries in
  let sat_b = Net.Loadgen.run addr { base with binary = true } ~session ~queries in
  { fixed = fixed.hist; fixed_answered = fixed.answered;
    sat_qps = sat.achieved_qps; sat_answered = sat.answered;
    sat_b_qps = sat_b.achieved_qps; sat_b_answered = sat_b.answered;
    errors = fixed.errors + sat.errors + sat_b.errors }

let run () =
  header "SRV1" "networked server: loadgen latency and saturation";
  let g = Figures.fig9 () in
  let size = G.num_classes g + G.num_edges g in
  let queries =
    Array.of_list
      (List.concat_map
         (fun m ->
           List.init (G.num_classes g) (fun c -> (G.name g c, m)))
         (G.member_names g))
  in
  Format.printf
    "  fig9: %d classes; %d query candidates; open loop %.0f qps, %gs per \
     run; %d runs per row, rows interleaved; median [q1, q3]@."
    (G.num_classes g) (Array.length queries) open_loop_qps measure_s repeats;
  let rows = [ 1; 2; 4 ] in
  let samples = Hashtbl.create 3 in
  for r = 0 to repeats - 1 do
    List.iter
      (fun workers -> Hashtbl.add samples workers (measure ~workers g queries))
      (if r mod 2 = 0 then rows else List.rev rows)
  done;
  List.iter
    (fun workers ->
      let ss = Hashtbl.find_all samples workers in
      let q f = Open_bench.quartiles (Array.of_list (List.map f ss)) in
      let sum f = List.fold_left (fun a s -> a + f s) 0 ss in
      let pct p s = float_of_int (Telemetry.Histogram.quantile s.fixed p) in
      let p50, p50_q1, p50_q3 = q (pct 0.50) in
      let p99, p99_q1, p99_q3 = q (pct 0.99) in
      let sat, sat_q1, sat_q3 = q (fun s -> s.sat_qps) in
      let sat_b, sat_b_q1, sat_b_q3 = q (fun s -> s.sat_b_qps) in
      let errors = sum (fun s -> s.errors) in
      Format.printf
        "  workers=%d  p50=%.0f [%.0f, %.0f] ns  p99=%.0f [%.0f, %.0f] ns  \
         saturation json=%.0f [%.0f, %.0f] req/s  binary=%.0f [%.0f, %.0f] \
         req/s@."
        workers p50 p50_q1 p50_q3 p99 p99_q1 p99_q3 sat sat_q1 sat_q3 sat_b
        sat_b_q1 sat_b_q3;
      if errors > 0 then
        Format.printf "  WARNING: %d in-band errors at %d workers@." errors
          workers;
      (* the open-loop runs' latencies, merged losslessly *)
      let fixed = Telemetry.Histogram.create () in
      List.iter (fun s -> Telemetry.Histogram.merge_into ~into:fixed s.fixed) ss;
      let i x = Telemetry.Json.Int x and f x = Telemetry.Json.Float x in
      Scaling.record ~experiment:"SRV1"
        ~family:(Printf.sprintf "fig9 tcp %d workers" workers)
        ~n_plus_e:size
        ~time_ns:(if sat = 0. then 0. else 1e9 /. sat)
        ~latency:fixed
        (Telemetry.Json.Obj
           [ ("workers", i workers);
             ("runs", i (List.length ss));
             ("open_loop_qps_target", i (int_of_float open_loop_qps));
             ("open_loop_answered", i (sum (fun s -> s.fixed_answered)));
             ("p50_ns", f p50); ("p50_ns_q1", f p50_q1); ("p50_ns_q3", f p50_q3);
             ("p99_ns", f p99); ("p99_ns_q1", f p99_q1); ("p99_ns_q3", f p99_q3);
             ("saturation_qps", f sat); ("saturation_qps_q1", f sat_q1);
             ("saturation_qps_q3", f sat_q3);
             ("saturation_answered", i (sum (fun s -> s.sat_answered)));
             ("binary_saturation_qps", f sat_b);
             ("binary_saturation_qps_q1", f sat_b_q1);
             ("binary_saturation_qps_q3", f sat_b_q3);
             ("binary_saturation_answered", i (sum (fun s -> s.sat_b_answered)));
             ("errors", i errors) ]))
    rows
