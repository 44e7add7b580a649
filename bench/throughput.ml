(* SVC1: service-layer throughput — the two ways a session answers a
   repeated-query workload.

   Before its first mutation a session compiles a member's verdict
   column on the first query and serves every repeat with one array
   read.  After a mutation it compiles nothing more: members without a
   resident column are answered from the incremental engine's rows, one
   hash probe per query.  This experiment replays the same sparse
   workload through two sessions over the same hierarchy — one mutated
   before any query (every query served by the engine rows), one never
   mutated (every repeat served by a compiled column). *)

module G = Chg.Graph
module Families = Hiergen.Families
module W = Hiergen.Workload
module Session = Service.Session
module Table_cache = Service.Table_cache

let header id title = Format.printf "@.---- %s: %s ----@." id title

let counters_json pairs =
  Telemetry.Json.Obj
    (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) pairs)

(* Replay every query through the session's read path.  Workload classes always come from the graph, so lookup can't
   fail; raise loudly if the service disagrees. *)
let replay s g ws =
  List.iter
    (fun q ->
      match Session.lookup s (G.name g q.W.q_class) q.W.q_member with
      | Ok _ -> ()
      | Error c -> invalid_arg ("service lost class " ^ c))
    ws

(* The instrumented twin of [replay]: each query individually clocked
   into [hist].  The delta against the plain replay is the price of
   per-query observability — two monotonic reads plus one O(1) record —
   which the service only ever pays once per *request*, not per query,
   so this is the worst case for the <=5% overhead budget. *)
let replay_recorded s g ws hist =
  List.iter
    (fun q ->
      let c0 = Telemetry.Clock.now_ns () in
      (match Session.lookup s (G.name g q.W.q_class) q.W.q_member with
      | Ok _ -> ()
      | Error c -> invalid_arg ("service lost class " ^ c));
      Telemetry.Histogram.record hist (Telemetry.Clock.elapsed_ns ~since:c0))
    ws

(* Queries slower than this count as slow in the recorded rows — the
   bench-side analogue of the server's --slow-ms flag, scaled to
   per-query nanoseconds. *)
let slow_query_ns = 10_000

let session g = Session.create ~name:"bench" g

let run () =
  header "SVC1" "service throughput: compiled columns vs engine rows";
  let i =
    Families.random_dag ~n:800 ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.25
      ~members:(List.init 24 (fun k -> Printf.sprintf "m%d" k))
      ~seed:11
  in
  let g = i.graph in
  let size = G.num_classes g + G.num_edges g in
  let ws = W.sparse g ~queries:4000 ~classes:64 ~seed:5 in
  Format.printf "  hierarchy: %d classes, %d member names; workload: %d
   \ queries over <=64 classes@."
    (G.num_classes g)
    (List.length (G.member_names g))
    (List.length ws);
  (* engine-row session: a mutation of a name the workload never asks
     for forces the engine before the first query, so nothing compiles *)
  let rows_s = session g in
  ignore (Session.add_member rows_s ~cls:(G.name g 0) (G.member "svc1_probe"));
  replay rows_s g ws;
  let t_rows = Timing.seconds_per_call (fun () -> replay rows_s g ws) in
  (* compiled session: the first query of a member compiles its column *)
  let table_s = session g in
  replay table_s g ws (* warm: every queried member gets compiled *);
  let t_table = Timing.seconds_per_call (fun () -> replay table_s g ws) in
  let per_query t = t *. 1e9 /. float_of_int (List.length ws) in
  Format.printf "  %-34s %a  (%6.1f ns/query)@." "engine rows per query"
    Timing.pp_time t_rows (per_query t_rows);
  Format.printf "  %-34s %a  (%6.1f ns/query)@." "compiled-table columns"
    Timing.pp_time t_table (per_query t_table);
  Format.printf "  speedup: %.2fx@." (t_rows /. t_table);
  (* recorded passes: per-query latency distributions, and the recording
     overhead itself against the plain replays above *)
  let lat_rows = Telemetry.Histogram.create () in
  let t_rows_rec =
    Timing.seconds_per_call (fun () ->
        Telemetry.Histogram.reset lat_rows;
        replay_recorded rows_s g ws lat_rows)
  in
  let lat_table = Telemetry.Histogram.create () in
  let t_table_rec =
    Timing.seconds_per_call (fun () ->
        Telemetry.Histogram.reset lat_table;
        replay_recorded table_s g ws lat_table)
  in
  let pq h q = Telemetry.Histogram.quantile h q in
  let slow h = Telemetry.Histogram.observations_above h slow_query_ns in
  let report name h =
    Format.printf
      "  %-34s p50 %4d ns  p99 %5d ns  max %6d ns  (%d of %d over %d ns)@."
      name (pq h 0.5) (pq h 0.99) (pq h 1.0) (slow h)
      (Telemetry.Histogram.count h) slow_query_ns
  in
  report "engine-row per-query latency" lat_rows;
  report "compiled-table per-query latency" lat_table;
  let overhead plain timed = (timed -. plain) /. plain *. 100.0 in
  Format.printf
    "  per-query recording overhead: rows %+.1f%%, table %+.1f%% (clock + \
     record per query; the service pays this once per request)@."
    (overhead t_rows t_rows_rec)
    (overhead t_table t_table_rec);
  let table_counters =
    Session.counters table_s
    @ Table_cache.counters (Session.cache table_s)
  in
  Scaling.record ~experiment:"SVC1" ~family:"engine rows (after a mutation)"
    ~n_plus_e:size ~time_ns:(per_query t_rows) ~latency:lat_rows
    (counters_json
       (Session.counters rows_s
        @ Table_cache.counters (Session.cache rows_s)
        @ [ ("slow_queries", slow lat_rows) ]));
  Scaling.record ~experiment:"SVC1" ~family:"compiled columns"
    ~n_plus_e:size ~time_ns:(per_query t_table) ~latency:lat_table
    (counters_json (table_counters @ [ ("slow_queries", slow lat_table) ]))
