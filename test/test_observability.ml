(* Observability-layer tests: the log-bucketed histogram's merge and
   quantile contracts (unit + QCheck), the flight recorder, the
   metric registry, the Prometheus renderer against the project's own
   exposition checker, the checker's reject paths, and the determinism
   contract that per-domain column-cost histograms merged from any
   --jobs schedule compare equal. *)

module H = Telemetry.Histogram
module Request_log = Service.Request_log
module Registry = Telemetry.Registry
module Prometheus = Telemetry.Prometheus
module Expocheck = Telemetry.Expocheck
module Counter = Telemetry.Counter
module G = Chg.Graph
module Metrics = Lookup_core.Metrics
module Packed = Lookup_core.Packed
module Families = Hiergen.Families

(* ---- histogram unit tests ------------------------------------------ *)

let test_histogram_basics () =
  let h = H.create () in
  Alcotest.(check bool) "fresh is empty" true (H.is_empty h);
  Alcotest.(check int) "empty quantile" 0 (H.quantile h 0.5);
  List.iter (H.record h) [ 3; 7; 7; 100; 5000; 0; -4 ];
  Alcotest.(check int) "count" 7 (H.count h);
  Alcotest.(check int) "negative clamps to 0" 0 (H.min_value h);
  Alcotest.(check int) "exact max" 5000 (H.max_value h);
  Alcotest.(check int) "q=0 is the exact min" 0 (H.quantile h 0.);
  Alcotest.(check int) "q=1 is the exact max" 5000 (H.quantile h 1.);
  (* values below 16 land in exact buckets *)
  let small = H.create () in
  List.iter (H.record small) [ 3; 3; 3; 9 ];
  Alcotest.(check int) "small values quantize exactly" 3
    (H.quantile small 0.5);
  H.reset h;
  Alcotest.(check bool) "reset empties" true (H.is_empty h);
  Alcotest.(check int) "reset zeroes the sum" 0 (H.sum h)

let test_histogram_percentile_fields () =
  let h = H.create () in
  for i = 1 to 1000 do
    H.record h i
  done;
  let fields = H.percentile_fields h in
  Alcotest.(check (list string)) "field names"
    [ "p50"; "p90"; "p99"; "p999"; "max" ]
    (List.map fst fields);
  let get k = List.assoc k fields in
  Alcotest.(check int) "max is exact" 1000 (get "max");
  (* each percentile is an upper bucket bound: >= the true value and
     within the documented 12.5% relative error *)
  List.iter
    (fun (k, truth) ->
      let est = get k in
      Alcotest.(check bool)
        (Printf.sprintf "%s bound holds (%d vs true %d)" k est truth)
        true
        (est >= truth && float_of_int est <= float_of_int truth *. 1.125))
    [ ("p50", 500); ("p90", 900); ("p99", 990) ];
  Alcotest.(check int) "observations_above counts the tail" 0
    (H.observations_above h 1024);
  (* may undercount by at most the threshold's own bucket (width 64 at
     512), never overcount *)
  let above = H.observations_above h 512 in
  Alcotest.(check bool) "observations_above a mid boundary" true
    (above >= 1000 - 512 - 64 && above <= 1000 - 512)

let test_histogram_merge_lossless () =
  let a = H.create () and b = H.create () and all = H.create () in
  List.iter
    (fun v -> H.record a v; H.record all v)
    [ 1; 17; 300; 300; 9_000_000 ];
  List.iter (fun v -> H.record b v; H.record all v) [ 0; 2; 65_536 ];
  let m = H.merge a b in
  Alcotest.(check bool) "merge = concatenated stream" true (H.equal m all);
  Alcotest.(check int) "merged count" (H.count a + H.count b) (H.count m);
  Alcotest.(check int) "merged sum" (H.sum a + H.sum b) (H.sum m);
  Alcotest.(check int) "merged min" 0 (H.min_value m);
  Alcotest.(check int) "merged max" 9_000_000 (H.max_value m);
  (* merging an empty histogram is the identity *)
  let e = H.create () in
  Alcotest.(check bool) "empty is right identity" true
    (H.equal (H.merge a e) a);
  Alcotest.(check bool) "empty is left identity" true
    (H.equal (H.merge e a) a)

(* ---- histogram QCheck properties ----------------------------------- *)

let obs_gen =
  (* spans exact buckets, several octaves, and the clamp *)
  QCheck.Gen.(
    list_size (int_range 0 200)
      (oneof
         [ int_range (-2) 20; int_range 0 5000; int_range 0 10_000_000 ]))

let obs_arb = QCheck.make obs_gen ~print:QCheck.Print.(list int)

let of_list vs =
  let h = H.create () in
  List.iter (H.record h) vs;
  h

let prop_merge_commutative =
  QCheck.Test.make ~count:300 ~name:"histogram merge is commutative"
    (QCheck.pair obs_arb obs_arb) (fun (xs, ys) ->
      let a = of_list xs and b = of_list ys in
      H.equal (H.merge a b) (H.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~count:300 ~name:"histogram merge is associative"
    (QCheck.triple obs_arb obs_arb obs_arb) (fun (xs, ys, zs) ->
      let a = of_list xs and b = of_list ys and c = of_list zs in
      H.equal (H.merge (H.merge a b) c) (H.merge a (H.merge b c)))

let prop_merge_is_concatenation =
  QCheck.Test.make ~count:300
    ~name:"merge equals the concatenated record stream"
    (QCheck.pair obs_arb obs_arb) (fun (xs, ys) ->
      H.equal (H.merge (of_list xs) (of_list ys)) (of_list (xs @ ys)))

let prop_quantile_within_bounds =
  (* the true q-quantile of the recorded stream lies inside
     [quantile_bounds], and [quantile] answers that bucket's upper
     bound *)
  QCheck.Test.make ~count:300 ~name:"quantile brackets the true value"
    (QCheck.pair obs_arb (QCheck.float_range 0. 1.))
    (fun (xs, q) ->
      QCheck.assume (xs <> []);
      let clamp v = max 0 v in
      let sorted = List.sort compare (List.map clamp xs) in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let truth = List.nth sorted (rank - 1) in
      let h = of_list xs in
      let lo, hi = H.quantile_bounds h q in
      (* quantile answers within the same bucket (clamped to the exact
         extremes, so it may sit below the bucket's upper bound) *)
      let est = H.quantile h q in
      lo <= truth && truth <= hi && lo <= est && est <= hi)

(* the --jobs determinism contract, end to end: per-domain histograms
   merged under any schedule compare equal, because the recorded unit is
   the deterministic per-column edge-traversal cost *)
let prop_jobs_merge_deterministic =
  let gen =
    QCheck.Gen.(
      map
        (fun (n, seed) ->
          Families.random_dag ~n ~max_bases:3 ~virtual_prob:0.3
            ~declare_prob:0.4
            ~members:[ "m"; "n"; "p"; "q" ]
            ~seed)
        (pair (int_range 4 40) (int_range 0 1000)))
  in
  let arb =
    QCheck.make gen ~print:(fun i -> i.Families.description)
  in
  QCheck.Test.make ~count:25
    ~name:"column-cost histograms identical for jobs=1/2/4/7" arb
    (fun { Families.graph = g; _ } ->
      let cl = Chg.Closure.compute g in
      let cost jobs =
        let m = Metrics.create () in
        ignore (Packed.build ~jobs ~metrics:m cl);
        m.Metrics.column_cost
      in
      let reference = cost 1 in
      List.for_all (fun jobs -> H.equal (cost jobs) reference) [ 2; 4; 7 ])

(* ---- the flight recorder ------------------------------------------- *)

(* push number [k], every field derived from it *)
let push_k r k =
  Request_log.push r ~seq:k ~conn:(Some k) ~verb:"lookup" ~session:(Some "s")
    ~id:(Chg.Json.Int k) ~outcome:"ok" ~latency_ns:k ~bytes:k ~via:(Some "table")
    ~slow:false

let seqs r = List.map (fun e -> e.Request_log.e_seq) (Request_log.entries r)

let test_ring () =
  let r = Request_log.recorder 3 in
  Alcotest.(check (list int)) "fresh is empty" [] (seqs r);
  push_k r 1;
  push_k r 2;
  Alcotest.(check (list int)) "partial fill keeps order" [ 1; 2 ] (seqs r);
  List.iter (push_k r) [ 3; 4; 5 ];
  Alcotest.(check (list int)) "length capped, oldest evicted first" [ 3; 4; 5 ]
    (seqs r);
  Alcotest.(check int) "total pushes tracked" 5 (Request_log.pushed r);
  (* the optional fields and a non-int id come back as pushed *)
  let e =
    { Request_log.e_seq = 6; e_conn = None; e_verb = "invalid"; e_session = None;
      e_id = Chg.Json.String "x"; e_outcome = "parse_error"; e_latency_ns = 9;
      e_bytes = 0; e_via = None; e_slow = true }
  in
  Request_log.push r ~seq:e.e_seq ~conn:e.e_conn ~verb:e.e_verb
    ~session:e.e_session ~id:e.e_id ~outcome:e.e_outcome
    ~latency_ns:e.e_latency_ns ~bytes:e.e_bytes ~via:e.e_via ~slow:e.e_slow;
  Alcotest.(check bool) "absent fields stay absent" true
    (List.nth (Request_log.entries r) 2 = e);
  Alcotest.check_raises "capacity must be >= 1"
    (Invalid_argument "Request_log.recorder: capacity must be >= 1") (fun () ->
      ignore (Request_log.recorder 0))

(* A dump that runs beside a push skips the slot being written: every
   entry read while another domain pushes is one whole push, and they
   come oldest first. *)
let test_recorder_reads_whole_entries () =
  let r = Request_log.recorder 4 and stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let k = ref 0 in
        while not (Atomic.get stop) do
          incr k;
          push_k r !k
        done)
  in
  let mixed = ref 0 and unordered = ref 0 in
  for _ = 1 to 20_000 do
    let es = Request_log.entries r in
    List.iter
      (fun (e : Request_log.entry) ->
        let k = e.e_seq in
        if e.e_conn <> Some k || e.e_id <> Chg.Json.Int k || e.e_latency_ns <> k
           || e.e_bytes <> k
        then incr mixed)
      es;
    let ks = List.map (fun (e : Request_log.entry) -> e.e_seq) es in
    if List.sort_uniq compare ks <> ks then incr unordered
  done;
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check int) "entries mixing two pushes" 0 !mixed;
  Alcotest.(check int) "dumps out of order" 0 !unordered;
  let n = Request_log.pushed r in
  Alcotest.(check (list int)) "the last pushes survive"
    [ n - 3; n - 2; n - 1; n ] (seqs r)

(* ---- registry + renderer ------------------------------------------- *)

let test_registry_and_render () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"requests" "cxxlookup_test_total" in
  Counter.add c 3;
  (* find-or-create: same key yields the same instrument *)
  Counter.incr (Registry.counter r "cxxlookup_test_total");
  Alcotest.(check int) "one series behind both handles" 4
    (Counter.value c);
  let h =
    Registry.histogram r
      ~labels:[ ("verb", "lookup") ]
      "cxxlookup_test_ns"
  in
  Telemetry.Histogram.record h 100;
  Registry.gauge r "cxxlookup_test_gauge" (fun () -> 7);
  let body = Prometheus.render r in
  (match Expocheck.check body with
  | Ok n ->
    (* counter + gauge + the histogram's bucket/sum/count series *)
    Alcotest.(check bool) "sample count plausible" true (n >= 5)
  | Error e -> Alcotest.failf "renderer output rejected: %s" e);
  Alcotest.(check string) "render is deterministic" body
    (Prometheus.render r);
  (* attach under a live key replaces the series (reopened session) *)
  let fresh = Counter.make "fresh" in
  Counter.add fresh 42;
  Registry.attach_counter r "cxxlookup_test_total" fresh;
  (match Registry.find_values r "cxxlookup_test_total" with
  | [ ([], v) ] -> Alcotest.(check int) "replacement visible" 42 v
  | _ -> Alcotest.fail "expected one unlabelled series");
  (* label values with quotes, backslashes and newlines survive the
     round trip through the renderer and the checker *)
  let tricky = Registry.create () in
  Counter.incr
    (Registry.counter tricky
       ~labels:[ ("path", "a\\b\"c\nd") ]
       "cxxlookup_tricky_total");
  match Expocheck.check (Prometheus.render tricky) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "escaped labels rejected: %s" e

(* A registry hit builds no instrument: a histogram is hundreds of words
   of buckets, straight onto the major heap. *)
let test_registry_hit_allocates_nothing () =
  let r = Registry.create () in
  let register () =
    Registry.histogram r ~labels:[ ("verb", "lookup") ] "cxxlookup_test_ns"
  in
  let h = register () in
  let _, _, major0 = Gc.counters () in
  let again = register () in
  let _, _, major1 = Gc.counters () in
  Alcotest.(check bool) "same handle" true (h == again);
  Alcotest.(check (float 0.)) "no major words" 0. (major1 -. major0)

let test_registry_name_validation () =
  Alcotest.(check bool) "valid name" true
    (Registry.valid_name "cxxlookup_server_requests_total");
  Alcotest.(check bool) "leading digit invalid" false
    (Registry.valid_name "9lives");
  Alcotest.(check bool) "hyphen invalid" false
    (Registry.valid_name "cxxlookup-total");
  Alcotest.(check bool) "colon valid in metric names" true
    (Registry.valid_name "job:rate");
  Alcotest.(check bool) "colon invalid in label names" false
    (Registry.valid_label_name "job:rate")

(* ---- expocheck reject paths ---------------------------------------- *)

let test_expocheck_rejects () =
  let reject what text =
    match Expocheck.check text with
    | Ok _ -> Alcotest.failf "checker accepted %s" what
    | Error _ -> ()
  in
  (match Expocheck.check "# TYPE a_total counter\na_total 3\n" with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 sample, got %d" n
  | Error e -> Alcotest.failf "minimal scrape rejected: %s" e);
  reject "a bad metric name" "9lives 3\n";
  reject "an unquoted label value" "a_total{x=3} 1\n";
  reject "a non-numeric value" "a_total three\n";
  reject "a negative counter" "# TYPE a_total counter\na_total -1\n";
  reject "a duplicate sample" "a_total 1\na_total 2\n";
  reject "TYPE after samples" "a_total 1\n# TYPE a_total counter\n";
  reject "an unknown TYPE" "# TYPE a_total meter\na_total 1\n";
  reject "non-cumulative buckets"
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 5\n\
     h_bucket{le=\"2\"} 3\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_count 5\nh_sum 9\n";
  reject "a missing +Inf bucket"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\nh_sum 9\n";
  reject "+Inf disagreeing with _count"
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 5\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_count 6\nh_sum 9\n";
  (* monotonicity across scrapes *)
  let prev = "# TYPE a_total counter\na_total 5\n" in
  let next = "# TYPE a_total counter\na_total 4\n" in
  (match Expocheck.check_monotone ~prev ~next with
  | Ok () -> Alcotest.fail "checker accepted a counter going backwards"
  | Error _ -> ());
  match Expocheck.check_monotone ~prev:next ~next:prev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "monotone increase rejected: %s" e

let suite =
  [ Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram percentile fields" `Quick
      test_histogram_percentile_fields;
    Alcotest.test_case "histogram merge is lossless" `Quick
      test_histogram_merge_lossless;
    Alcotest.test_case "ring buffer" `Quick test_ring;
    Alcotest.test_case "flight recorder reads whole entries" `Quick
      test_recorder_reads_whole_entries;
    Alcotest.test_case "registry + Prometheus renderer" `Quick
      test_registry_and_render;
    Alcotest.test_case "registry hit allocates no instrument" `Quick
      test_registry_hit_allocates_nothing;
    Alcotest.test_case "metric name validation" `Quick
      test_registry_name_validation;
    Alcotest.test_case "expocheck rejects malformed scrapes" `Quick
      test_expocheck_rejects ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_merge_commutative; prop_merge_associative;
        prop_merge_is_concatenation; prop_quantile_within_bounds;
        prop_jobs_merge_deterministic ]
