(* CLU1: the cluster under load — a shard router fronting one leader
   and 1, 2 or 3 WAL-shipping read replicas, all in-process on
   loopback, driven by the load generator on the paper's figure-9
   hierarchy.

   Four sessions run concurrently (one loadgen per session) because the
   router's rendezvous hashing gives each session a single preferred
   backend: one session would measure one replica plus routing
   overhead, never the spread.  An open-loop run gives the p50/p99 a
   client of the router sees; a closed-loop run gives the saturation
   throughput.  Read the rows against SRV1: the delta at one replica is
   the price of the extra hop, the slope over replicas is what sharding
   buys once sessions spread.

   A final short mixed run adds a [mutate] share, exercising the
   at-most-once leader-forwarding path under concurrent reads; it must
   finish with zero in-band errors.

   Replication is asynchronous, so replica reads may trail the leader —
   a latency/throughput experiment is indifferent to that, which is
   exactly why the mutating run can share the cluster with the read
   load.

   One 1-s run per row cannot resolve a change: on an unchanged tree,
   JSON saturation at 3 replicas spread over 9.2k-16.5k req/s across
   six runs.  So every row is measured [repeats] times, each time on a
   fresh cluster, with the rows interleaved (1, 2, 3 replicas, then 3,
   2, 1, ...) so drift on the host falls on every row alike; a row
   reports the median and quartiles of each figure, as OPN1 does.  Each
   front end serves on a domain of its own, as separate processes
   would: a server's worker 0 runs on the domain that calls
   [Net.Server.run]. *)

module G = Chg.Graph
module J = Chg.Json
module Figures = Hiergen.Figures

let header id title = Format.printf "@.---- %s: %s ----@." id title

let response_ok line =
  match J.of_string line with
  | Ok j -> J.member "ok" j = Ok (J.Bool true)
  | Error _ -> false

let sessions = [ "bench0"; "bench1"; "bench2"; "bench3" ]

let temp_dir () =
  let f = Filename.temp_file "clu1" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Leader (durable store + replication listener), [replicas] followers,
   and a router over all the front ends, torn down in reverse. *)
let with_cluster ~replicas k =
  let dir = temp_dir () in
  let store =
    Store.open_dir
      ~config:{ Store.default_config with Store.fsync = Store.Wal.Never }
      dir
  in
  let leader = Service.Server.create ~store () in
  let front srv =
    let config = { Net.Server.default_config with workers = 1 } in
    let net = Net.Server.create ~config srv (Net.Server.Tcp ("127.0.0.1", 0)) in
    (net, Domain.spawn (fun () -> Net.Server.run net))
  in
  let lnet, lth = front leader in
  let repl = Cluster.Repl.create leader (Net.Server.Tcp ("127.0.0.1", 0)) in
  let repl_th = Thread.create Cluster.Repl.run repl in
  let followers =
    List.init replicas (fun _ ->
        let srv = Service.Server.create ~role:Service.Server.Follower () in
        let rep =
          Cluster.Replica.create ~backoff_ms:20 srv (Cluster.Repl.bound_addr repl)
        in
        let rep_th = Thread.create Cluster.Replica.run rep in
        let net, th = front srv in
        (srv, rep, rep_th, net, th))
  in
  let backends =
    Net.Server.bound_addr lnet
    :: List.map (fun (_, _, _, net, _) -> Net.Server.bound_addr net) followers
  in
  let router =
    Cluster.Router.create ~leader:0 backends (Net.Server.Tcp ("127.0.0.1", 0))
  in
  let router_th = Thread.create Cluster.Router.run router in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Router.stop router;
      Thread.join router_th;
      List.iter
        (fun (_, rep, rep_th, net, th) ->
          Cluster.Replica.stop rep;
          Thread.join rep_th;
          Net.Server.stop net;
          Domain.join th)
        followers;
      Cluster.Repl.stop repl;
      Thread.join repl_th;
      Net.Server.stop lnet;
      Domain.join lth;
      Store.close store;
      rm_rf dir)
    (fun () ->
      k ~leader
        ~follower_srvs:(List.map (fun (srv, _, _, _, _) -> srv) followers)
        ~router_addr:(Cluster.Router.bound_addr router))

(* Sessions are opened through the router (a mutation, so it forwards
   to the leader) and warmed through the router, so the measured runs
   hit compiled columns on whichever backend rendezvous picks. *)
let open_and_warm router_addr g queries =
  List.iter
    (fun session ->
      let cl = Net.Client.connect router_addr in
      let line =
        J.to_string
          (J.Obj
             [ ("id", J.Int 0); ("op", J.String "open");
               ("session", J.String session); ("chg", Chg.Serialize.to_json g)
             ])
      in
      (match Net.Client.request cl line with
      | Some r when response_ok r -> ()
      | _ -> invalid_arg "CLU1: open failed");
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
          | None -> invalid_arg "CLU1: warmup connection lost")
        queries;
      Net.Client.close cl)
    sessions

let await ?(timeout = 10.) pred what =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      invalid_arg (Printf.sprintf "CLU1: timed out waiting for %s" what)
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let replicas_caught_up ~leader ~follower_srvs () =
  let want = List.sort compare (Service.Server.open_sessions leader) in
  List.for_all
    (fun srv ->
      List.sort compare (Service.Server.open_sessions srv) = want)
    follower_srvs

(* One loadgen per session, concurrently; reports merged losslessly. *)
let run_sessions router_addr cfg ~queries =
  let results = Array.make (List.length sessions) None in
  let threads =
    List.mapi
      (fun i session ->
        Thread.create
          (fun () ->
            results.(i) <- Some (Net.Loadgen.run router_addr cfg ~session ~queries))
          ())
      sessions
  in
  List.iter Thread.join threads;
  let reports = List.filter_map Fun.id (Array.to_list results) in
  let hist = Telemetry.Histogram.create () in
  List.iter
    (fun (r : Net.Loadgen.report) ->
      Telemetry.Histogram.merge_into ~into:hist r.hist)
    reports;
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  ( hist,
    sum (fun (r : Net.Loadgen.report) -> r.answered),
    sum (fun (r : Net.Loadgen.report) -> r.errors),
    List.fold_left
      (fun a (r : Net.Loadgen.report) -> a +. r.achieved_qps)
      0. reports,
    List.fold_left
      (fun a (r : Net.Loadgen.report) -> Float.max a r.elapsed)
      0. reports )

let open_loop_qps = 2000.
let measure_s = 1.0
let repeats = 5

type sample = {
  fixed : Telemetry.Histogram.t;  (* the open-loop run's latencies *)
  fixed_answered : int;
  sat_qps : float;
  sat_b_qps : float;
  mut_answered : int;
  errors : int;  (* in-band errors over all four runs *)
}

(* One measurement of a row, on a fresh cluster. *)
let measure ~replicas g queries =
  with_cluster ~replicas @@ fun ~leader ~follower_srvs ~router_addr ->
  open_and_warm router_addr g queries;
  await (replicas_caught_up ~leader ~follower_srvs) "replica catch-up";
  let per_session q =
    { Net.Loadgen.conns = 1; qps = q; duration = measure_s;
      mix = [ ("lookup", 9); ("batch_lookup", 1) ]; batch_size = 8;
      binary = false }
  in
  let fixed, fixed_answered, fixed_errors, _, _ =
    run_sessions router_addr
      (per_session (open_loop_qps /. float_of_int (List.length sessions)))
      ~queries
  in
  let _, _, sat_errors, sat_qps, _ =
    run_sessions router_addr (per_session 0.) ~queries
  in
  (* same saturation mix over the cxxlookup-rpc/1b framing — the
     router forwards frames whole, so this measures the binary
     pass-through path end to end *)
  let _, _, sat_b_errors, sat_b_qps, _ =
    run_sessions router_addr { (per_session 0.) with binary = true } ~queries
  in
  (* the mutating mix: reads keep flowing while every tenth request
     is a mutation the router must forward to the leader exactly
     once; any in-band error here is a routing bug, not load *)
  let _, mut_answered, mut_errors, _, _ =
    run_sessions router_addr
      { (per_session 0.) with
        duration = 0.3;
        mix = [ ("lookup", 8); ("batch_lookup", 1); ("mutate", 1) ] }
      ~queries
  in
  { fixed; fixed_answered; sat_qps; sat_b_qps; mut_answered;
    errors = fixed_errors + sat_errors + sat_b_errors + mut_errors }

let run () =
  header "CLU1" "shard router over WAL-shipping replicas: latency and scaling";
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
    "  fig9 via router: %d sessions; open loop %.0f qps aggregate, %gs per \
     run; %d runs per row, rows interleaved; median [q1, q3]@."
    (List.length sessions) open_loop_qps measure_s repeats;
  let rows = [ 1; 2; 3 ] in
  let samples = Hashtbl.create 3 in
  for r = 0 to repeats - 1 do
    List.iter
      (fun replicas ->
        Hashtbl.add samples replicas (measure ~replicas g queries))
      (if r mod 2 = 0 then rows else List.rev rows)
  done;
  List.iter
    (fun replicas ->
      let ss = Hashtbl.find_all samples replicas in
      let q f = Open_bench.quartiles (Array.of_list (List.map f ss)) in
      let sum f = List.fold_left (fun a s -> a + f s) 0 ss in
      let pct p s = float_of_int (Telemetry.Histogram.quantile s.fixed p) in
      let p50, p50_q1, p50_q3 = q (pct 0.50) in
      let p99, p99_q1, p99_q3 = q (pct 0.99) in
      let sat, sat_q1, sat_q3 = q (fun s -> s.sat_qps) in
      let sat_b, sat_b_q1, sat_b_q3 = q (fun s -> s.sat_b_qps) in
      let errors = sum (fun s -> s.errors) in
      Format.printf
        "  replicas=%d  p50=%.0f [%.0f, %.0f] ns  p99=%.0f [%.0f, %.0f] ns  \
         saturation json=%.0f [%.0f, %.0f] req/s  binary=%.0f [%.0f, %.0f] \
         req/s  mutating mix: %d answered; %d in-band errors@."
        replicas p50 p50_q1 p50_q3 p99 p99_q1 p99_q3 sat sat_q1 sat_q3 sat_b
        sat_b_q1 sat_b_q3 (sum (fun s -> s.mut_answered)) errors;
      if errors > 0 then
        Format.printf "  WARNING: %d in-band errors at %d replicas@." errors
          replicas;
      (* the open-loop runs' latencies, merged losslessly *)
      let fixed = Telemetry.Histogram.create () in
      List.iter (fun s -> Telemetry.Histogram.merge_into ~into:fixed s.fixed) ss;
      let i x = Telemetry.Json.Int x and f x = Telemetry.Json.Float x in
      Scaling.record ~experiment:"CLU1"
        ~family:(Printf.sprintf "fig9 router %d replicas" replicas)
        ~n_plus_e:size
        ~time_ns:(if sat = 0. then 0. else 1e9 /. sat)
        ~latency:fixed
        (Telemetry.Json.Obj
           [ ("replicas", i replicas);
             ("sessions", i (List.length sessions));
             ("runs", i (List.length ss));
             ("open_loop_qps_target", i (int_of_float open_loop_qps));
             ("open_loop_answered", i (sum (fun s -> s.fixed_answered)));
             ("p50_ns", f p50); ("p50_ns_q1", f p50_q1); ("p50_ns_q3", f p50_q3);
             ("p99_ns", f p99); ("p99_ns_q1", f p99_q1); ("p99_ns_q3", f p99_q3);
             ("saturation_qps", f sat); ("saturation_qps_q1", f sat_q1);
             ("saturation_qps_q3", f sat_q3);
             ("binary_saturation_qps", f sat_b);
             ("binary_saturation_qps_q1", f sat_b_q1);
             ("binary_saturation_qps_q3", f sat_b_q3);
             ("mutating_answered", i (sum (fun s -> s.mut_answered)));
             ("errors", i errors) ]))
    rows
