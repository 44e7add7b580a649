(* cxxbench — the cxxlookup serving benchmark.

     cxxbench.exe --workload W --seed N --seconds S --trace 0|1 [--commit ID]
     cxxbench.exe selftest

   With --trace 0 it drives the real binaries and reports the
   end-to-end metrics; with --trace 1 it replays the same seeded stream
   in-process through each layer's public functions and reports the
   per-layer metrics.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  A wrong
   verdict anywhere, or a failed or lost answer outside the ladder's
   overload rungs, makes the run fail (exit 1). *)

let usage () =
  prerr_endline
    "usage: cxxbench.exe --workload read-json|read-1b-wide|edit-durable|routed-read \
     --seed N --seconds S --trace 0|1 [--commit ID]\n\
    \       cxxbench.exe selftest";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed (metrics : E2e.metric list) =
  List.iter
    (fun (x : E2e.metric) ->
      if not (Float.is_finite x.E2e.value) then
        failwith (Printf.sprintf "metric %s was not measured" x.E2e.name))
    metrics;
  List.iter
    (fun (x : E2e.metric) ->
      Printf.printf "metric %-34s %16.6f %s\n" x.E2e.name x.E2e.value x.E2e.unit_)
    metrics;
  let ms =
    List.map
      (fun (x : E2e.metric) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Inputs.json_string x.E2e.name) (json_number x.E2e.value)
          (Inputs.json_string x.E2e.unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let context ~commit (t : Inputs.t) ~trace =
  Printf.printf "cxxbench workload=%s seed=%d trace=%d\n"
    (Inputs.workload_name t.Inputs.workload) t.Inputs.seed trace;
  Printf.printf "context: commit=%s nproc=%d ocaml=%s host=%s\n" commit
    (Domain.recommended_domain_count ()) Sys.ocaml_version (Unix.gethostname ());
  Printf.printf "server flags: %s (all other flags at their defaults: --workers 1, \
                 --table-entries 64, --promote-threshold 3, --fsync 8)\n"
    (E2e.server_flags t.Inputs.workload);
  let s = t.Inputs.shape in
  Printf.printf
    "hierarchy: random_dag classes=%d edges=%d member_names=%d max_subobjects=%d \
     (max_bases %d, virtual_prob %.2f, declare_prob %.2f; draws to pass the \
     subobject gate: %d)\n"
    s.Inputs.classes s.Inputs.edges s.Inputs.member_names s.Inputs.max_subobjects
    Inputs.max_bases Inputs.virtual_prob Inputs.declare_prob t.Inputs.hier_draws;
  let red = Array.fold_left (fun a e -> if e >= 0 then a + 1 else a) 0 t.Inputs.expected in
  let blue = Array.fold_left (fun a e -> if e = -2 then a + 1 else a) 0 t.Inputs.expected in
  Printf.printf "sample: %d oracle-checked pairs (%d resolve, %d ambiguous, %d absent); \
                 stream of %d requests; inputs digest %s\n%!"
    (Array.length t.Inputs.pairs) red blue
    (Array.length t.Inputs.pairs - red - blue)
    (Array.length t.Inputs.stream) (Inputs.fingerprint t)

(* The benchmark's own tests: one seed gives byte-identical inputs, two
   seeds give different ones, for every workload. *)
let selftest () =
  let ok = ref true in
  List.iter
    (fun w ->
      let a = Inputs.fingerprint (Inputs.make w 1)
      and a' = Inputs.fingerprint (Inputs.make w 1)
      and b = Inputs.fingerprint (Inputs.make w 2) in
      let same = a = a' and differ = a <> b in
      Printf.printf "%-13s seed 1 twice: %s; seeds 1 and 2: %s\n%!"
        (Inputs.workload_name w)
        (if same then "identical" else "DIFFERENT")
        (if differ then "differ" else "IDENTICAL");
      if not (same && differ) then ok := false)
    Inputs.workloads;
  if !ok then print_endline "selftest: ok"
  else begin
    print_endline "selftest: FAILED";
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "selftest" ] then (selftest (); exit 0);
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = List.assoc_opt k kv in
  let int k = match Option.bind (get k) int_of_string_opt with Some n -> n | None -> usage () in
  let workload =
    match Option.bind (get "workload") Inputs.workload_of_name with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (* run from the root of the checkout, after run.py's build *)
  let bin = "_build/default/bin/cxxlookup.exe" and work = ".perfbench" in
  let commit = Option.value (get "commit") ~default:"unknown" in
  let dir = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Proc.mkdir_p dir;
  let cleanup () =
    Proc.kill_all ();
    Proc.rm_rf dir
  in
  (* an interrupted run still stops the servers it started *)
  List.iter
    (fun signal ->
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> cleanup (); exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let code =
    try
      let t = Inputs.make workload seed in
      context ~commit t ~trace;
      let env = { E2e.bin; dir; spawned = 0 } in
      let metrics, valid =
        if trace = 0 then begin
          let gated, info, valid = E2e.run ~env ~seconds t in
          let attempted = max 1 E2e.tally.E2e.attempted in
          Printf.printf "metric %-34s %16.6f failed/attempted (%d/%d) [not gated]\n" "error_rate"
            (float_of_int E2e.tally.E2e.failed /. float_of_int attempted)
            E2e.tally.E2e.failed attempted;
          List.iter
            (fun (x : E2e.metric) ->
              Printf.printf "metric %-34s %16.6f %s [not gated]\n" x.E2e.name x.E2e.value
                x.E2e.unit_)
            info;
          (gated, valid)
        end
        else (Traced.run ~env ~seconds ~work t, true)
      in
      List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev E2e.tally.E2e.problems);
      (* a late generator invalidates the open-loop figures (printed as
         such), not the verdict checks or the gated metrics *)
      if not valid then
        print_endline "open-loop figures INVALID: the generator fell behind its schedule";
      let correct = E2e.tally.E2e.wrong = 0 && E2e.tally.E2e.fatal = 0 in
      print_result ~correct ~attempted:(max 1 E2e.tally.E2e.attempted)
        ~failed:E2e.tally.E2e.failed metrics;
      if correct then 0 else 1
    with
    | Wire.Setup_failed e ->
      Printf.eprintf "cxxbench: set-up failed: %s\n%!" e;
      1
    | Proc.Died e ->
      Printf.eprintf "cxxbench: %s\n%!" e;
      1
    | e ->
      Printf.eprintf "cxxbench: %s\n%!" (Printexc.to_string e);
      1
  in
  cleanup ();
  exit code
