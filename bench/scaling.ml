(* Experiments C1-C5: the paper's complexity claims.

   The paper reports no absolute timings (its evaluation is asymptotic),
   so the reproduction target is the *shape*: near-constant time per
   (|N|+|E|) in the unambiguous case, a growing per-size factor on the
   ambiguity-heavy family, exponential subobject-graph algorithms vs the
   polynomial CHG algorithm, and the whole-table bound. *)

module G = Chg.Graph
module Engine = Lookup_core.Engine
module Metrics = Lookup_core.Metrics
module Packed = Lookup_core.Packed
module Families = Hiergen.Families

let size g = G.num_classes g + G.num_edges g

let header id title = Format.printf "@.---- %s: %s ----@." id title

(* Per-point (timing, op-counts) records accumulated during the sweeps;
   main.ml writes them to BENCH_lookup.json so future sessions get a
   perf trajectory in terms of the paper's unit operations, not just
   wall-clock. *)
let bench_records : Telemetry.Json.t list ref = ref []

let record ~experiment ~family ~n_plus_e ~time_ns ?latency counters =
  let latency_fields =
    match latency with
    | None -> []
    | Some h ->
      (* the per-call latency distribution behind the mean: quantiles
         carry the histogram's documented <=12.5% bucket-bound error *)
      [ ( "latency_ns",
          Telemetry.Json.Obj
            (("calls", Telemetry.Json.Int (Telemetry.Histogram.count h))
             :: List.map
                  (fun (k, v) -> (k, Telemetry.Json.Int v))
                  (Telemetry.Histogram.percentile_fields h)) ) ]
  in
  bench_records :=
    Telemetry.Json.Obj
      ([ ("experiment", Telemetry.Json.String experiment);
         ("family", Telemetry.Json.String family);
         ("n_plus_e", Telemetry.Json.Int n_plus_e);
         ("time_ns_per_call", Telemetry.Json.Float time_ns) ]
       @ latency_fields
       @ [ ("counters", counters) ])
    :: !bench_records

(* One instrumented run alongside the timed (uninstrumented) loop: the
   counters are deterministic, so a single pass suffices. *)
let member_column_counters cl m =
  let metrics = Metrics.create () in
  ignore (Engine.build_member ~metrics cl m);
  Metrics.counters_json metrics

let full_table_counters cl =
  let metrics = Metrics.create () in
  ignore (Engine.build ~metrics cl);
  Metrics.counters_json metrics

(* The member column compiled both ways, one row each:
   [Engine.build_member] (the Figure-8 reference, boxed) and the packed
   sweep the service compiles with ([Packed.compile_column], family
   suffixed "sweep").  Both count the same unit operations.  Returns
   the sweep's ns per (|N|+|E|). *)
let column_rows ~experiment (i : Families.instance) =
  let g = i.graph in
  let cl = Chg.Closure.compute g in
  let t, latency = Timing.measure (fun () -> Engine.build_member cl "m") in
  record ~experiment ~family:i.description ~n_plus_e:(size g)
    ~time_ns:(t *. 1e9) ~latency
    (member_column_counters cl "m");
  let ts, latency = Timing.measure (fun () -> Packed.compile_column cl "m") in
  let metrics = Metrics.create () in
  ignore (Packed.compile_column ~metrics cl "m");
  record ~experiment ~family:(i.description ^ " sweep") ~n_plus_e:(size g)
    ~time_ns:(ts *. 1e9) ~latency
    (Metrics.counters_json metrics);
  let per t = t *. 1e9 /. float_of_int (size g) in
  Format.printf "  %-34s %8d %a %8.1f %a %8.1f@." i.description (size g)
    Timing.pp_time t (per t) Timing.pp_time ts (per ts);
  per ts

let column_header () =
  Format.printf "  %-34s %8s %21s %21s@." "" "" "build_member" "sweep";
  Format.printf "  %-34s %8s %12s %8s %12s %8s@." "family" "|N|+|E|" "time"
    "ns/size" "time" "ns/size"

(* The sweep's spread over one family: largest over smallest ns per
   (|N|+|E|), the paper's O(|N|+|E|) claim read as a flat line. *)
let spread name per =
  let hi = List.fold_left max neg_infinity per
  and lo = List.fold_left min infinity per in
  Format.printf "  sweep over %s: %.2fx from the cheapest to the dearest \
                 point@." name (hi /. lo)

(* C1: single-member column on unambiguous families: expect time/(N+E)
   roughly flat (the paper's O(|N|+|E|) common case). *)
let c1 () =
  header "C1" "single lookup, unambiguous case: expect ~linear in |N|+|E|";
  column_header ();
  let run = column_rows ~experiment:"C1" in
  spread "chains"
    (List.map
       (fun n -> run (Families.chain ~n ~kind:G.Non_virtual))
       [ 256; 512; 1024; 2048; 4096 ]);
  List.iter
    (fun levels ->
      ignore (run (Families.redeclared_diamond_stack ~levels ~kind:G.Virtual)))
    [ 32; 64; 128; 256 ];
  spread "wide trees"
    (List.map
       (fun depth -> run (Families.wide_tree ~fanout:4 ~depth))
       [ 3; 4; 5; 6 ])

(* C2: the ambiguity-heavy fence family: many blue definitions cross each
   edge, so per-(N+E) cost grows with the width (the O(|N|*(|N|+|E|))
   general case). *)
let c2 () =
  header "C2" "single lookup, ambiguous case: per-size cost grows with width";
  column_header ();
  let run i = ignore (column_rows ~experiment:"C2" i) in
  (* blue chains carry [width] distinct leastVirtual values down the
     chain: the per-(N+E) cost grows ~linearly with width, the general
     O(|N|*(|N|+|E|)) case. *)
  List.iter
    (fun width -> run (Families.blue_chain ~width ~depth:256))
    [ 2; 8; 32; 128 ];
  (* plain fences stay cheap per unit: their blue sets collapse to {Ω} *)
  List.iter
    (fun width -> run (Families.fence ~width ~levels:8))
    [ 4; 16; 32 ]

(* C3: non-virtual diamond stacks: the subobject graph doubles per level,
   so every subobject-graph algorithm (Rossie-Friedman, g++) blows up
   while the CHG algorithm stays polynomial. *)
let c3 () =
  header "C3"
    "exponential subobject graph vs the CHG algorithm (diamond stacks)";
  Format.printf "  %-7s %6s %11s %12s %12s %12s@." "levels" "|N|"
    "subobjects" "engine" "RF lookup" "g++ scan";
  List.iter
    (fun levels ->
      let i = Families.diamond_stack ~levels ~kind:G.Non_virtual in
      let g = i.graph in
      let probe = i.probe in
      let cl = Chg.Closure.compute g in
      let t_engine =
        Timing.seconds_per_call (fun () -> Engine.build_member cl "m")
      in
      let count = Subobject.Sgraph.count (Subobject.Sgraph.build g probe) in
      let t_rf =
        Timing.seconds_per_call (fun () ->
            Baselines.Rf_lookup.lookup g probe "m")
      in
      let t_gxx =
        Timing.seconds_per_call (fun () ->
            Baselines.Gxx.lookup ~mode:Baselines.Gxx.Buggy g probe "m")
      in
      Format.printf "  %-7d %6d %11d %a %a %a@." levels (G.num_classes g)
        count Timing.pp_time t_engine Timing.pp_time t_rf Timing.pp_time
        t_gxx)
    [ 2; 4; 6; 8; 10; 12 ];
  Format.printf
    "  (subobject count is 2^levels+...; RF/g++ follow it, the engine does \
     not)@."

(* C4: whole-table construction, the O((|M|+|N|) * (|N|+|E|)) claim for
   unambiguous programs. *)
let c4 () =
  header "C4" "whole lookup table: expect ~linear in (|M|+|N|)*(|N|+|E|)";
  Format.printf "  %-34s %9s %12s %16s@." "family" "|M|" "time"
    "ns/(M+N)(N+E)";
  List.iter
    (fun n ->
      (* the member-name pool grows with n so the (|M|+|N|) factor in the
         bound is exercised, not just |N| *)
      let i =
        Families.random_dag ~n ~max_bases:3 ~virtual_prob:0.3
          ~declare_prob:0.3
          ~members:(List.init (max 4 (n / 16)) (fun k -> Printf.sprintf "m%d" k))
          ~seed:42
      in
      let g = i.graph in
      let m = List.length (G.member_names g) in
      let cl = Chg.Closure.compute g in
      let t, latency = Timing.measure (fun () -> Engine.build cl) in
      record ~experiment:"C4" ~family:i.description ~n_plus_e:(size g)
        ~time_ns:(t *. 1e9) ~latency (full_table_counters cl);
      let denom = float_of_int ((m + n) * size g) in
      Format.printf "  %-34s %9d %a %12.4f@." i.description m Timing.pp_time
        t
        (t *. 1e9 /. denom))
    [ 64; 128; 256; 512; 1024 ]

(* C5: the Eiffel-style topological shortcut (Section 7.2) vs the real
   algorithm on a fully unambiguous program: both are valid there; the
   shortcut's simplicity is its point, ambiguity detection is the real
   algorithm's. *)
let c5 () =
  header "C5" "topological-number shortcut vs the algorithm (Section 7.2)";
  let i = Families.redeclared_diamond_stack ~levels:64 ~kind:G.Virtual in
  let g = i.graph in
  let cl = Chg.Closure.compute g in
  let topo = Baselines.Topo_lookup.prepare g in
  let t_topo =
    Timing.seconds_per_call (fun () ->
        Baselines.Topo_lookup.resolve topo i.probe "m")
  in
  let t_engine =
    Timing.seconds_per_call (fun () -> Engine.build_member cl "m")
  in
  Format.printf "  %s@." i.description;
  Format.printf "  shortcut (one query, precomputed closure): %a@."
    Timing.pp_time t_topo;
  Format.printf "  full algorithm (whole member column)     : %a@."
    Timing.pp_time t_engine;
  let eng = Engine.build_member cl "m" in
  let agree = ref true in
  G.iter_classes g (fun c ->
      match (Engine.resolves_to eng c "m", Baselines.Topo_lookup.resolve topo c "m") with
      | Some a, Some b when a = b -> ()
      | None, None -> ()
      | _ -> agree := false);
  Format.printf "  [%s] shortcut agrees on every (unambiguous) lookup@."
    (if !agree then "OK" else "MISMATCH");
  if not !agree then incr Fig_tables.checks_failed

(* C7: the lazy memoising variant vs the eager table under sparse query
   workloads — the paper: "a memoising lazy algorithm ... does not
   compute table entries that are unnecessary". *)
let c7 () =
  header "C7" "lazy memo vs eager table under sparse query workloads";
  let i =
    Families.random_dag ~n:2000 ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.2
      ~members:(List.init 50 (fun k -> Printf.sprintf "m%d" k))
      ~seed:7
  in
  let g = i.graph in
  let cl = Chg.Closure.compute g in
  Format.printf "  hierarchy: %d classes, %d member names@."
    (G.num_classes g)
    (List.length (G.member_names g));
  Format.printf "  %-28s %12s %14s@." "workload" "eager" "lazy memo";
  List.iter
    (fun (qs, touched) ->
      let ws = Hiergen.Workload.sparse g ~queries:qs ~classes:touched ~seed:3 in
      let t_eager =
        Timing.seconds_per_call (fun () ->
            let eng = Engine.build cl in
            Hiergen.Workload.run_engine eng ws)
      in
      let t_memo =
        Timing.seconds_per_call (fun () ->
            let memo = Lookup_core.Memo.create cl in
            Hiergen.Workload.run_memo memo ws)
      in
      Format.printf "  %4d queries over %3d classes %a %a@." qs touched
        Timing.pp_time t_eager Timing.pp_time t_memo)
    [ (10, 5); (100, 20); (1000, 100) ];
  Format.printf
    "  (the eager column pays the full-table cost once per workload; the
    \   lazy variant touches only queried classes and their bases)@."

let run () =
  Format.printf "@.==== Complexity experiments (C1-C5, C7) ====@.";
  c1 ();
  c2 ();
  c3 ();
  c4 ();
  c5 ();
  c7 ()
