(* Benchmark harness: regenerates every figure of the paper (F1-F9),
   runs the complexity experiments (C1-C5), the engine matchup (C6), and
   Bechamel microbenchmarks.  See DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured notes.

   Run with: dune exec bench/main.exe *)

(* Ops counts alongside timings for every sweep point, so perf can be
   tracked across sessions in the paper's own unit operations.  The host
   header records where the wall-clock numbers came from — parallel
   (PAR1) speedups are meaningless without the core count. *)
let host_json () =
  Telemetry.Json.Obj
    [ ("hostname", Telemetry.Json.String (Unix.gethostname ()));
      ("ncores", Telemetry.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Telemetry.Json.String Sys.ocaml_version) ]

let write_metrics ?entries () =
  let entries =
    match entries with
    | Some e -> e
    | None -> List.rev !Scaling.bench_records
  in
  let doc =
    Telemetry.Json.Obj
      [ ("schema", Telemetry.Json.String "cxxlookup-bench/1");
        ("host", host_json ());
        ("entries", Telemetry.Json.List entries) ]
  in
  Out_channel.with_open_text "BENCH_lookup.json" (fun oc ->
      Telemetry.Json.output oc doc);
  Format.printf "@.wrote BENCH_lookup.json (%d sweep points)@."
    (List.length entries)

(* A quick mode reruns some experiments but keeps every other
   experiment's rows: the existing file's entries minus those
   experiments' stale ones, plus the fresh records.  A missing or
   unparseable file degrades to the fresh rows alone. *)
let merge_entries ~experiments fresh =
  let what = String.concat "/" experiments in
  let kept =
    match
      In_channel.with_open_text "BENCH_lookup.json" In_channel.input_all
    with
    | exception Sys_error _ -> []
    | text ->
      (match Telemetry.Json.of_string text with
      | exception Telemetry.Json.Parse_error msg ->
        Format.printf
          "  note: BENCH_lookup.json unparseable (%s); keeping %s rows \
           only@."
          msg what;
        []
      | Telemetry.Json.Obj fields ->
        (match List.assoc_opt "entries" fields with
        | Some (Telemetry.Json.List l) ->
          List.filter
            (function
              | Telemetry.Json.Obj fs ->
                (match List.assoc_opt "experiment" fs with
                | Some (Telemetry.Json.String e) -> not (List.mem e experiments)
                | _ -> true)
              | _ -> true)
            l
        | _ -> [])
      | _ -> [])
  in
  kept @ fresh

(* Run some experiments, merge their rows into BENCH_lookup.json in
   place and exit with their checks' verdict. *)
let quick_mode ~experiments run =
  run ();
  write_metrics
    ~entries:(merge_entries ~experiments (List.rev !Scaling.bench_records)) ();
  Format.printf "@.%s@."
    (if !Fig_tables.checks_failed = 0 then
       String.concat "/" experiments ^ " checks passed."
     else
       Printf.sprintf "%d CHECKS FAILED — see MISMATCH lines above."
         !Fig_tables.checks_failed);
  exit (if !Fig_tables.checks_failed = 0 then 0 else 1)

let () =
  (* FLR1's echo server, in the child process FLR1 starts *)
  if Array.exists (String.equal "floor-child") Sys.argv then Floor_bench.child ();
  (* OPN1's cold open, in the children OPN1 starts *)
  if Array.exists (String.equal "open-child") Sys.argv then Open_bench.child ();
  if Array.exists (String.equal "open-stages-child") Sys.argv then
    Open_bench.stages_child ();
  Format.printf "cxxlookup benchmark harness — ";
  Format.printf "A Member Lookup Algorithm for C++ (PLDI 1997)@.";
  (* `smoke` (make bench-smoke, CI) runs only the packed-table checks on
     a small family (determinism and the size floor), the MRO figures,
     the open-decode checks on one document and a short large-line echo
     through the connection loop, in seconds.  The full
     run regenerates every figure and BENCH_lookup.json. *)
  if Array.exists (String.equal "smoke") Sys.argv then begin
    Packed_bench.smoke ();
    Mro_bench.smoke ();
    Open_bench.smoke ();
    Floor_bench.smoke ();
    Format.printf "@.%s@."
      (if !Fig_tables.checks_failed = 0 then "Smoke checks passed."
       else
         Printf.sprintf "%d CHECKS FAILED — see MISMATCH lines above."
           !Fig_tables.checks_failed);
    exit (if !Fig_tables.checks_failed = 0 then 0 else 1)
  end;
  (* The quick modes each rerun one experiment (or a few) and merge
     their rows into BENCH_lookup.json in place (other experiments'
     entries are kept): `svc` the session read path, `srv` the networked
     server, for iterating on the server; `clu` the cluster (router +
     replicas); `raw` the raw speed floor, where rows mmap cannot engage
     are reported as skipped, not failed; `rte` the router's
     read-and-classify cost on a large open line; `opn` the server's
     decode of an open line into a graph; `flr` the serving floor, an
     echo on the connection loop; `cpl` member-column compilation (C1,
     C2 and PAR1); `sto` the durable store's session open (STO1).  The full run below includes them all and
     regenerates the file. *)
  List.iter
    (fun (mode, experiments, run) ->
      if Array.exists (String.equal mode) Sys.argv then
        quick_mode ~experiments run)
    [ ("svc", [ "SVC1" ], Throughput.run);
      ("srv", [ "SRV1" ], Srv_bench.run);
      ("clu", [ "CLU1" ], Cluster_bench.run);
      ("raw", [ "RAW1" ], Raw_bench.run);
      ("rte", [ "RTE1" ], Route_bench.run);
      ("opn", [ "OPN1" ], Open_bench.run);
      ("flr", [ "FLR1" ], Floor_bench.run);
      ("sto", [ "STO1" ], Store_bench.run);
      ("cpl", [ "C1"; "C2"; "PAR1" ], fun () ->
          Scaling.c1 ();
          Scaling.c2 ();
          Packed_bench.par1 ~n:1024 ()) ];
  Fig_tables.run ();
  Scaling.run ();
  Ablation.run ();
  Matchup.run ();
  Throughput.run ();
  Lint_bench.run ();
  Mro_bench.run ();
  Store_bench.run ();
  Packed_bench.run ();
  Raw_bench.run ();
  Srv_bench.run ();
  Cluster_bench.run ();
  Route_bench.run ();
  Open_bench.run ();
  Floor_bench.run ();
  Becha.run ();
  write_metrics ();
  Format.printf "@.%s@."
    (if !Fig_tables.checks_failed = 0 then
       "All figure/experiment checks passed."
     else
       Printf.sprintf "%d CHECKS FAILED — see MISMATCH lines above."
         !Fig_tables.checks_failed);
  exit (if !Fig_tables.checks_failed = 0 then 0 else 1)
