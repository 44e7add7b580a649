(* Experiments PAR1 and PAK1: the packed-column table.

   PAR1: whole-table column compilation fanned over OCaml 5 domains.
   Columns are independent, so the build should scale with --jobs up to
   the core count; whatever the schedule, the packed table must encode
   byte-identically (the determinism contract in DESIGN.md), and equal
   the table packed from Engine.build_member's columns.

   PAK1: the packed representation against the boxed engine table on the
   C4 random-DAG family: resident bytes (packed must be well under the
   boxed estimate; the ISSUE floor is 4x) and per-query latency (packed
   decoding must not lose what the flat layout wins). *)

module G = Chg.Graph
module Engine = Lookup_core.Engine
module Metrics = Lookup_core.Metrics
module Packed = Lookup_core.Packed
module Families = Hiergen.Families

let header id title = Format.printf "@.---- %s: %s ----@." id title
let size g = G.num_classes g + G.num_edges g

(* The C4 family: member pool grows with n, so columns are plentiful
   enough for the work queue to matter. *)
let family ~n =
  Families.random_dag ~n ~max_bases:3 ~virtual_prob:0.3 ~declare_prob:0.3
    ~members:(List.init (max 4 (n / 16)) (fun k -> Printf.sprintf "m%d" k))
    ~seed:42

(* The same table packed from Engine.build_member's boxed columns: the
   reference every parallel build must encode byte-identically to. *)
let reference_encoding g cl =
  let names = Array.of_list (G.member_names g) in
  Packed.encode
    (Packed.of_engine
       (Engine.of_columns cl ~names
          ~columns:
            (Array.map
               (fun m -> Engine.column (Engine.build_member cl m) m)
               names)))

let repeats = 5

let par1 ~n () =
  header "PAR1" "parallel column compilation: scaling and determinism";
  let i = family ~n in
  let g = i.Families.graph in
  let cl = Chg.Closure.compute g in
  Format.printf "  hierarchy: %d classes, %d member names (ncores %d)@."
    (G.num_classes g)
    (List.length (G.member_names g))
    (Domain.recommended_domain_count ());
  let jobs_list = [ 1; 2; 4 ] in
  (* one warm-up call per jobs value (a first multi-domain call pays the
     domains' start-up), then [repeats] rounds over every jobs value in
     turn, so drift on the host spreads over all rows alike *)
  List.iter (fun jobs -> ignore (Packed.build ~jobs cl)) jobs_list;
  let times = Array.make_matrix (List.length jobs_list) repeats 0.0 in
  for r = 0 to repeats - 1 do
    List.iteri
      (fun k jobs ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (Packed.build ~jobs cl));
        times.(k).(r) <- Unix.gettimeofday () -. t0)
      jobs_list
  done;
  Format.printf "  %-8s %12s %24s %10s@." "jobs" "build" "[q1, q3]" "speedup";
  let reference = reference_encoding g cl in
  let deterministic = ref true in
  let t1 = ref 0.0 in
  List.iteri
    (fun k jobs ->
      let t, q1, q3 = Open_bench.quartiles times.(k) in
      if jobs = 1 then t1 := t;
      let metrics = Metrics.create () in
      let table = Packed.build ~jobs ~metrics cl in
      if not (String.equal (Packed.encode table) reference) then
        deterministic := false;
      Scaling.record ~experiment:"PAR1"
        ~family:(Printf.sprintf "%s jobs=%d" i.Families.description jobs)
        ~n_plus_e:(size g) ~time_ns:(t *. 1e9)
        (match Metrics.counters_json metrics with
        | Telemetry.Json.Obj fields ->
          Telemetry.Json.Obj
            (fields
            @ [ ("time_ns_q1", Telemetry.Json.Float (q1 *. 1e9));
                ("time_ns_q3", Telemetry.Json.Float (q3 *. 1e9));
                ("repeats", Telemetry.Json.Int repeats) ])
        | j -> j);
      Format.printf "  %-8d %a [%a, %a] %9.2fx@." jobs Timing.pp_time t
        Timing.pp_time q1 Timing.pp_time q3 (!t1 /. t))
    jobs_list;
  Format.printf
    "  [%s] packed tables byte-identical for jobs=1/2/4 and to the \
     build_member table@."
    (if !deterministic then "OK" else "MISMATCH");
  if not !deterministic then incr Fig_tables.checks_failed

(* One family through both representations: resident bytes and the
   serving fast path (resolves_to — what the service answers queries
   with; no verdict allocation on either side). *)
let pak1_point ~check i =
  let g = i.Families.graph in
  let cl = Chg.Closure.compute g in
  let eng = Engine.build cl in
  let packed = Packed.of_engine eng in
  let pb = Packed.bytes packed and bb = Packed.boxed_bytes packed in
  let ratio = float_of_int bb /. float_of_int (max 1 pb) in
  Format.printf "  %s:@.    %d columns, %d bytes packed, %d boxed (%.1fx \
                 smaller)@."
    i.Families.description (Packed.num_members packed) pb bb ratio;
  (* every (class, member-universe) pair once per timed call *)
  let members = Packed.member_universe packed in
  let nc = G.num_classes g in
  let probe resolves table =
    let acc = ref 0 in
    for c = 0 to nc - 1 do
      Array.iter
        (fun m -> if resolves table c m <> None then incr acc)
        members
    done;
    !acc
  in
  (* each side's time is the median of [repeats] probes, taken in
     alternating order, so one slow stretch of a shared host lands on
     one probe of one side, not on the whole comparison; the latency
     distribution is the last packed probe's *)
  let boxed_s = Array.make repeats 0.0 and packed_s = Array.make repeats 0.0 in
  let lat_packed = ref (Telemetry.Histogram.create ()) in
  for r = 0 to repeats - 1 do
    let boxed () =
      boxed_s.(r) <-
        Timing.seconds_per_call (fun () -> probe Engine.resolves_to eng)
    and packed () =
      let t, lat = Timing.measure (fun () -> probe Packed.resolves_to packed) in
      packed_s.(r) <- t;
      lat_packed := lat
    in
    if r mod 2 = 0 then (boxed (); packed ()) else (packed (); boxed ())
  done;
  let median xs = let m, _, _ = Open_bench.quartiles xs in m in
  let t_boxed = median boxed_s and t_packed = median packed_s in
  let lat_packed = !lat_packed in
  let queries = float_of_int (nc * max 1 (Array.length members)) in
  let boxed_ns = t_boxed *. 1e9 /. queries
  and packed_ns = t_packed *. 1e9 /. queries in
  Format.printf "    full-table probe: boxed %a, packed %a (%.1f vs %.1f \
                 ns/query)@."
    Timing.pp_time t_boxed Timing.pp_time t_packed boxed_ns packed_ns;
  Scaling.record ~experiment:"PAK1" ~family:i.Families.description
    ~n_plus_e:(size g) ~time_ns:packed_ns ~latency:lat_packed
    (Telemetry.Json.Obj
       [ ("packed_bytes", Telemetry.Json.Int pb);
         ("boxed_bytes", Telemetry.Json.Int bb);
         ("boxed_over_packed", Telemetry.Json.Float ratio);
         ("boxed_ns_per_query", Telemetry.Json.Float boxed_ns);
         ("packed_ns_per_query", Telemetry.Json.Float packed_ns) ]);
  if check then begin
    let size_ok = ratio >= 4.0 in
    Format.printf "    [%s] packed at least 4x smaller than boxed@."
      (if size_ok then "OK" else "MISMATCH");
    if not size_ok then incr Fig_tables.checks_failed;
    (* wall-clock with slack: flag only a clear regression *)
    let latency_ok = t_packed <= t_boxed *. 1.5 in
    Format.printf "    [%s] packed query latency no worse than boxed@."
      (if latency_ok then "OK" else "MISMATCH");
    if not latency_ok then incr Fig_tables.checks_failed
  end

let pak1 ~n () =
  header "PAK1" "packed vs boxed: resident bytes and query latency";
  (* the checked point is the serving case: a column promoted because it
     is being queried, i.e. resolved over (nearly) every class — here
     every class redeclares or inherits "m", all-red columns *)
  pak1_point ~check:true
    (Families.redeclared_diamond_stack ~levels:(max 1 ((n - 1) / 3))
       ~kind:G.Virtual);
  (* informational: a sparse random DAG, where absent entries (one word
     boxed, still one entry word packed) dilute the win *)
  pak1_point ~check:false (family ~n)

let run () =
  Format.printf "@.==== Packed-table experiments (PAR1, PAK1) ====@.";
  par1 ~n:1024 ();
  pak1 ~n:1024 ()

(* make bench-smoke: the same checks on a small family, seconds not
   minutes — determinism and the size floor, not publishable timings. *)
let smoke () =
  Format.printf "@.==== Packed-table smoke (PAR1, PAK1, small) ====@.";
  par1 ~n:192 ();
  pak1 ~n:192 ()
