(* The untraced run: the real binaries, driven from outside, with the
   program's default flags (only addresses and store paths are set). *)

open Inputs

(* ---- fixed constants ------------------------------------------------- *)

(* Rates are constants, not measurements: the fixed rate sits well
   below the knee, and each ladder climbs past today's goodput so a
   later gain can show.  The latency limit applies to read p99. *)
type plan = {
  fixed_rate : float;  (** reads/s for read_p50_us / read_p99_us *)
  ladder : float list;  (** reads/s, ascending *)
  limit_us : int;  (** read p99 limit a ladder rung must meet *)
  write_rate : float;  (** edit-durable: writes/s on the second connection *)
}

let plan = function
  | Read_json | Read_1b_wide ->
    { fixed_rate = 1500.;
      ladder = [ 1000.; 1500.; 2000.; 3000.; 4000.; 5000.; 6000.; 8000.; 10000.;
                 12000.; 14000.; 17000.; 20000. ];
      limit_us = 25_000; write_rate = 0. }
  | (Edit_durable | Routed_read) as w ->
    { fixed_rate = 1000.;
      ladder = [ 500.; 1000.; 1500.; 2000.; 3000.; 4000.; 5000.; 6000.; 8000.;
                 10000.; 12000. ];
      limit_us = 25_000;
      write_rate = (if w = Edit_durable then 25. else 0.) }

(* An open-loop run whose generator was this late at p99 did not offer
   the scheduled rate: the run (or rung) is invalid. *)
let late_limit_ns = 2_000_000

(* measured set-ups per run; one more is kept to serve the run *)
let setup_repeats = function Routed_read -> 5 | _ -> 9
let recover_repeats = 3

let server_flags = function
  | Read_json | Read_1b_wide -> "serve --listen 127.0.0.1:0"
  | Edit_durable -> "serve --listen 127.0.0.1:0 --store DIR"
  | Routed_read ->
    "serve --listen 127.0.0.1:0 --store DIR --replicate-listen 127.0.0.1:0; \
     replica --follow LEADER --store DIR2 --listen 127.0.0.1:0; \
     router --backend LEADER --backend REPLICA --listen 127.0.0.1:0"

(* ---- small statistics ------------------------------------------------ *)

let percentile a p =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let b = Array.copy a in
    Array.sort compare b;
    b.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1 |> max 0))
  end

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let us ns = float_of_int ns /. 1e3

(* ---- run-wide bookkeeping -------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable fatal : int;  (** failures outside the ladder: they fail the run *)
  mutable problems : string list;
}

let tally = { attempted = 0; failed = 0; wrong = 0; fatal = 0; problems = [] }

let problem e =
  if List.length tally.problems < 5 then tally.problems <- e :: tally.problems

(* One checked answer into the run's tally; [true] when it was bad.
   Only a ladder rung past the knee may fail an answer (an [overloaded]
   shed, say) without failing the run; a wrong verdict always does. *)
let note ?(ladder = false) = function
  | Gen.Good ->
    tally.attempted <- tally.attempted + 1;
    false
  | Gen.Failed e ->
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    if not ladder then tally.fatal <- tally.fatal + 1;
    problem e;
    true
  | Gen.Wrong e ->
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    tally.wrong <- tally.wrong + 1;
    problem e;
    true

(* Check a phase's answers off the clock; returns how many were bad
   (lost ones included). *)
let account ?(ladder = false) (r : Gen.result) =
  let lost = r.Gen.lost in
  tally.attempted <- tally.attempted + lost;
  tally.failed <- tally.failed + lost;
  if not ladder then tally.fatal <- tally.fatal + lost;
  if lost > 0 then problem "connection lost";
  let bad =
    List.fold_left
      (fun n (m, resp) -> if note ~ladder (m.Gen.check resp) then n + 1 else n)
      lost r.Gen.answers
  in
  r.Gen.answers <- [];
  bad

(* ---- deployments ----------------------------------------------------- *)

type deployment = {
  procs : Proc.t list;  (** the serving processes, front end first *)
  front : string * int;  (** what the generator connects to *)
  sessions : string array;
  member_id : int array option;  (** 1b ids, for the binary workload *)
  store : string option;  (** edit-durable's store directory *)
  backends : (string * int) list;  (** behind a router: leader, replica *)
}

let framing = function Read_1b_wide -> Gen.Frame | _ -> Gen.Json

(* The [i]-th read of the stream; sessions take turns. *)
let read_msg t dep i =
  let r = t.stream.(i mod Array.length t.stream) in
  let session = dep.sessions.(i mod Array.length dep.sessions) in
  match dep.member_id with
  | Some member_id -> Wire.frame_msg t ~session ~member_id r
  | None -> Wire.json_msg t ~session r

let first_lookup t member_id session =
  match member_id with
  | Some member_id -> Wire.frame_msg t ~session ~member_id (Lookup 0)
  | None -> Wire.json_msg t ~session (Lookup 0)

type env = { bin : string; dir : string; mutable spawned : int }

let fresh env what =
  env.spawned <- env.spawned + 1;
  Filename.concat env.dir (Printf.sprintf "%s-%d" what env.spawned)

let spawn env what args = Proc.spawn ~bin:env.bin ~log:(fresh env what ^ ".log") args

(* A single server, optionally over a store; returns it once the first
   read of the workload answers correctly, with the time that took. *)
let setup_single env t ?store () =
  let t0 = Gen.now () in
  let args =
    [ "serve"; "--listen"; "127.0.0.1:0" ]
    @ match store with Some d -> [ "--store"; d ] | None -> []
  in
  let p = spawn env "serve" args in
  let addr = Proc.announced p "listening on " in
  let c = Gen.connect addr in
  let session = "w" in
  Wire.open_session c t ~session;
  let member_id =
    match t.workload with
    | Read_1b_wide -> Some (Wire.member_ids c t ~session)
    | _ -> None
  in
  let c =
    if member_id = None then c
    else begin
      Gen.close c;
      Gen.connect ~framing:Gen.Frame addr
    end
  in
  Wire.first_correct c (first_lookup t member_id session);
  let dt = Gen.now () - t0 in
  Gen.close c;
  ({ procs = [ p ]; front = addr; sessions = [| session |]; member_id; store;
     backends = [] },
   dt)

(* Rendezvous placement, as the router computes it: the backend with the
   highest crc32(session|address) serves a session. *)
let score session (h, p) =
  Int32.to_int (Chg.Binary.crc32_string (Printf.sprintf "%s|%s:%d" session h p))
  land 0xffffffff

(* Four sessions, two placed on each backend, so both serve. *)
let spread_sessions leader replica =
  let rec pick i on_l on_r =
    if List.length on_l = 2 && List.length on_r = 2 then
      Array.of_list (List.rev_append on_l (List.rev on_r))
    else begin
      let s = Printf.sprintf "r%d" i in
      if score s leader >= score s replica then
        if List.length on_l < 2 then pick (i + 1) (s :: on_l) on_r
        else pick (i + 1) on_l on_r
      else if List.length on_r < 2 then pick (i + 1) on_l (s :: on_r)
      else pick (i + 1) on_l on_r
    end
  in
  pick 0 [] []

(* Requests each backend has answered for the router so far: the count
   of its per-backend round-trip histogram, from the router's metrics. *)
let backend_counts front backends =
  let c = Gen.connect front in
  let resp = Wire.must c (Wire.plain_msg "{\"id\":0,\"op\":\"metrics\"}" Wire.ok_check) in
  Gen.close c;
  let body =
    match Chg.Json.of_string resp with
    | Ok j ->
      (match Chg.Json.member "body" j with
      | Ok (Chg.Json.String b) -> b
      | _ -> "")
    | Error _ -> ""
  in
  let lines = String.split_on_char '\n' body in
  List.map
    (fun (h, p) ->
      let key = Printf.sprintf "cxxlookup_router_backend_rtt_ns_count{backend=\"%s:%d\"} " h p in
      match
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:key l then
              float_of_string_opt (String.sub l (String.length key) (String.length l - String.length key))
            else None)
          lines
      with
      | Some n -> int_of_float n
      | None -> raise (Wire.Setup_failed ("router metrics lack " ^ String.trim key)))
    backends

let setup_routed env t () =
  let t0 = Gen.now () in
  let ldir = fresh env "leader-store" and rdir = fresh env "replica-store" in
  let leader =
    spawn env "leader"
      [ "serve"; "--listen"; "127.0.0.1:0"; "--store"; ldir;
        "--replicate-listen"; "127.0.0.1:0" ]
  in
  let laddr = Proc.announced leader "listening on " in
  let (rh, rp) = Proc.announced leader "replicating on " in
  let replica =
    spawn env "replica"
      [ "replica"; "--follow"; Printf.sprintf "%s:%d" rh rp; "--store"; rdir;
        "--listen"; "127.0.0.1:0" ]
  in
  let raddr = Proc.announced replica "replica listening on " in
  let router =
    spawn env "router"
      [ "router"; "--backend"; Printf.sprintf "%s:%d" (fst laddr) (snd laddr);
        "--backend"; Printf.sprintf "%s:%d" (fst raddr) (snd raddr);
        "--listen"; "127.0.0.1:0" ]
  in
  let front = Proc.announced router "routing on " in
  let sessions = spread_sessions laddr raddr in
  let c = Gen.connect front in
  Array.iter (fun session -> Wire.open_session c t ~session) sessions;
  let direct = Gen.connect raddr in
  Array.iter
    (fun session ->
      Wire.first_correct c (first_lookup t None session);
      Wire.first_correct direct (first_lookup t None session))
    sessions;
  let dt = Gen.now () - t0 in
  Gen.close c;
  Gen.close direct;
  ({ procs = [ router; leader; replica ]; front; sessions; member_id = None;
     store = None; backends = [ laddr; raddr ] },
   dt)

(* [setup_repeats] measured set-ups, each SIGKILLed and reaped as soon
   as it has answered correctly, so the CPU its processes used over their
   whole life is the set-up's CPU; then one more that serves the run.
   Returns the kept deployment and the (CPU seconds, wall seconds) of
   each measured set-up. *)
let setup env t =
  let once () =
    match t.workload with
    | Read_json | Read_1b_wide -> setup_single env t ()
    | Edit_durable -> setup_single env t ~store:(fresh env "store") ()
    | Routed_read -> setup_routed env t ()
  in
  let measured =
    List.init (setup_repeats t.workload) (fun _ ->
        let cpu0 = Proc.reaped_cpu_s () in
        let dep, dt = once () in
        List.iter (fun p -> Proc.kill ~signal:Sys.sigkill p) dep.procs;
        (Proc.reaped_cpu_s () -. cpu0, float_of_int dt /. 1e9))
  in
  (fst (once ()), measured)

let connect_pair t dep =
  let f = framing t.workload in
  (Gen.connect ~framing:f dep.front, Gen.connect ~framing:f dep.front)

(* ---- phases ----------------------------------------------------------- *)

type lat_report = {
  p50_us : float;
  p99_us : float;  (** median over 1-s windows of the window's p99 *)
  pooled_p99_us : float;
  windows : int;
  samples : int;
  late_p99_us : float;
  late_max_us : float;
  valid : bool;
}

let window_ns = 1_000_000_000

let lat_report (r : Gen.result) tag =
  let l = Gen.Vec.to_array r.Gen.lat.(tag) in
  let late = Gen.Vec.to_array r.Gen.late in
  let lp99 = percentile late 0.99 in
  let ws =
    Gen.lat_windows r tag ~window_ns
    |> Array.to_list
    |> List.filter (fun w -> Array.length w >= 100)
  in
  let wp99 = median_f (List.map (fun w -> us (percentile w 0.99)) ws) in
  { p50_us = us (percentile l 0.50);
    p99_us = (if ws = [] then us (percentile l 0.99) else wp99);
    pooled_p99_us = us (percentile l 0.99);
    windows = List.length ws;
    samples = Array.length l; late_p99_us = us lp99;
    late_max_us = us (Array.fold_left max 0 late);
    valid = lp99 <= late_limit_ns }

(* A cursor over the stream shared by every phase, so phases never
   replay the exact same prefix. *)
let cursor = ref 0

let take () =
  let i = !cursor in
  incr cursor;
  i

let read_sources t dep (c0, c1) ~rate =
  [ { Gen.conn = c0; rate = rate /. 2.; next = (fun _ -> [ read_msg t dep (take ()) ]) };
    { Gen.conn = c1; rate = rate /. 2.; next = (fun _ -> [ read_msg t dep (take ()) ]) } ]

(* edit-durable's writer: a write, then the lookup of what it added,
   pipelined on the second connection (tags 1 and 2).  Every name is
   fresh, so the writer falls silent rather than repeat a write. *)
let write_source t dep c ~rate ws =
  let session = dep.sessions.(0) in
  let next k =
    if k >= Array.length ws then []
    else begin
      let w = ws.(k) in
      let cls, member = write_pair t w in
      [ Wire.plain_msg ~tag:1 (write_line ~session t w) Wire.ok_check;
        Wire.plain_msg ~tag:2 (named_lookup_line ~session (cls, member))
          (Wire.resolves_check ~cls) ]
    end
  in
  { Gen.conn = c; rate; next }

let warm t dep conns ~seconds =
  let c0, c1 = conns in
  let r =
    Gen.closed_loop
      [ (c0, fun _ -> read_msg t dep (take ())); (c1, fun _ -> read_msg t dep (take ())) ]
      ~duration:seconds
  in
  ignore (account r)

type rung = { rate : float; rep : lat_report; ok : bool; why : string }

(* [load rate] gives the sources of one open-loop run at [rate] reads/s. *)
let ladder ~plan ~rung_s load =
  let limit_ns = plan.limit_us * 1000 in
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
      let r =
        Gen.open_loop ~abort_ns:(4 * limit_ns)
          ~abort_backlog:(max 64 (int_of_float (rate *. float_of_int plan.limit_us /. 1e6)))
          (load rate) ~duration:rung_s
      in
      let rep = lat_report r 0 in
      let bad = account ~ladder:true r in
      let ok, why =
        if bad > 0 then (false, "failures")
        else if not rep.valid then (false, "generator late")
        else if r.Gen.aborted then (false, "backlog")
        else if rep.p99_us > float_of_int plan.limit_us then (false, "p99 over limit")
        else (true, "")
      in
      let acc = { rate; rep; ok; why } :: acc in
      if ok then climb acc rest else List.rev acc
  in
  climb [] plan.ladder

(* ---- the run ---------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Closed-loop requests kept in flight per connection: enough that the
   server, not wake-up latency between two requests, sets the pace. *)
let closed_depth = 8

let cpu_ticks procs = List.fold_left (fun a p -> a + Proc.cpu_ticks p) 0 procs

let say fmt = Printf.printf (fmt ^^ "\n%!")

let secs ns = float_of_int ns /. 1e9

(* edit-durable's end: SIGKILL the server and restart it over the same
   store, [recover_repeats] times; the median restart-to-first-correct-
   answer time is recover_s.  The last recovered server must then serve
   the mutated hierarchy as the oracle computes it. *)
let crash_and_recover env t dep ~store ~applied =
  let times = ref [] in
  let procs = ref dep.procs in
  let addr = ref dep.front in
  for _ = 1 to recover_repeats do
    List.iter (fun p -> Proc.kill ~signal:Sys.sigkill p) !procs;
    let t0 = Gen.now () in
    let p = spawn env "recover" [ "serve"; "--listen"; "127.0.0.1:0"; "--store"; store ] in
    addr := Proc.announced p "listening on ";
    let c = Gen.connect !addr in
    Wire.first_correct c (first_lookup t None dep.sessions.(0));
    times := secs (Gen.now () - t0) :: !times;
    Gen.close c;
    procs := [ p ]
  done;
  let g' = mutated_graph t applied in
  let recent = List.filteri (fun i _ -> i >= List.length applied - 32) applied in
  let written =
    List.map
      (fun w ->
        let cls, member = write_pair t w in
        let want =
          match Subobject.Spec.lookup g' (Chg.Graph.find g' cls) member with
          | Subobject.Spec.Resolved p -> Chg.Graph.name g' (Subobject.Path.ldc p)
          | _ -> "(not resolved)"
        in
        Wire.plain_msg (named_lookup_line ~session:dep.sessions.(0) (cls, member))
          (Wire.resolves_check ~cls:want))
      recent
  in
  let original =
    List.init (Array.length t.pairs) (fun i -> Wire.json_msg t ~session:dep.sessions.(0) (Lookup i))
  in
  let all = Array.of_list (written @ original) in
  let c = Gen.connect !addr in
  let r = Gen.closed_loop [ (c, fun k -> all.(k mod Array.length all)) ] ~duration:0.2 in
  ignore (account r);
  Gen.close c;
  List.iter (fun p -> Proc.kill p) !procs;
  say "recovery after SIGKILL: %s (median of %d); %d writes replayed, checked against the oracle"
    (String.concat " " (List.map (Printf.sprintf "%.4fs") (List.rev !times)))
    recover_repeats (List.length applied);
  median_f !times

(* [run] returns (gated metrics, informational metrics, generator
   valid).  Gated metrics are the ones BENCHMARK.json bounds; the
   wall-clock latency and throughput figures are printed alongside. *)
let run ~env ~seconds t =
  let p = plan t.workload in
  let dep, setups = setup env t in
  let setup_s = median_f (List.map fst setups) in
  let setup_wall_s = median_f (List.map snd setups) in
  say "setup, server CPU: %s (median of %d)"
    (String.concat " " (List.map (fun (c, _) -> Printf.sprintf "%.4fs" c) setups))
    (List.length setups);
  say "setup, wall clock: %s"
    (String.concat " " (List.map (fun (_, w) -> Printf.sprintf "%.4fs" w) setups));
  let conns = connect_pair t dep in
  let total = float_of_int seconds in
  warm t dep conns ~seconds:(0.05 *. total);
  (* the gated CPU figure comes from the fixed-rate phase, so it gets
     the largest share of the run *)
  let fixed_s = 0.5 *. total
  and ladder_s = 0.2 *. total
  and closed_s = 0.2 *. total in
  (* edit-durable writes only during the fixed-rate phase, so every run
     applies (and later replays) the same number of writes *)
  let ws = Array.of_list (writes t (int_of_float (p.write_rate *. fixed_s))) in
  let applied = ref 0 in
  let sources =
    if p.write_rate > 0. then
      let w = write_source t dep (snd conns) ~rate:p.write_rate ws in
      [ { (List.hd (read_sources t dep conns ~rate:p.fixed_rate)) with Gen.rate = p.fixed_rate };
        { w with Gen.next = (fun k -> applied := max !applied (min (k + 1) (Array.length ws)); w.Gen.next k) } ]
    else read_sources t dep conns ~rate:p.fixed_rate
  in
  (* fixed rate, open loop; with a writer, reads keep the first
     connection to themselves *)
  let routed0 = if dep.backends = [] then [] else backend_counts dep.front dep.backends in
  let cpu0 = cpu_ticks dep.procs in
  let fixed = Gen.open_loop sources ~duration:fixed_s in
  let fixed_cpu = cpu_ticks dep.procs - cpu0 in
  (* routed-read: the router must really have spread the reads over
     both backends, or the workload does not measure replica serving *)
  if dep.backends <> [] then begin
    let served = List.map2 ( - ) (backend_counts dep.front dep.backends) routed0 in
    let total = List.fold_left ( + ) 0 served in
    say "reads per backend at the fixed rate (leader, replica): %s"
      (String.concat ", " (List.map string_of_int served));
    if List.exists (fun n -> 4 * n < total) served then
      raise (Wire.Setup_failed "the router did not spread the sessions over both backends")
  end;
  let rep = lat_report fixed 0 in
  let wrep = lat_report fixed 1 and prep = lat_report fixed 2 in
  let fixed_queries = fixed.Gen.queries in
  ignore (account fixed);
  say "fixed rate %.0f reads/s for %.1fs: p50 %.1fus p99 %.1fus (median of %d 1-s windows; pooled p99 %.1fus, n=%d); generator lateness p99 %.1fus max %.1fus -> %s"
    p.fixed_rate fixed_s rep.p50_us rep.p99_us rep.windows rep.pooled_p99_us
    rep.samples rep.late_p99_us rep.late_max_us
    (if rep.valid then "valid" else "INVALID");
  if p.write_rate > 0. then
    say "writes at %.0f/s: mutate p50 %.1fus p99 %.1fus (n=%d); post-write lookup p50 %.1fus p99 %.1fus"
      p.write_rate wrep.p50_us wrep.pooled_p99_us wrep.samples prep.p50_us prep.pooled_p99_us;
  (* the ladder *)
  let rung_s = Float.max 0.3 (ladder_s /. 8.) in
  let rungs = ladder ~plan:p ~rung_s (fun rate -> read_sources t dep conns ~rate) in
  List.iter
    (fun r ->
      say "  rung %6.0f/s: p50 %8.1fus p99 %9.1fus (n=%d) late p99 %.1fus %s"
        r.rate r.rep.p50_us r.rep.pooled_p99_us r.rep.samples r.rep.late_p99_us
        (if r.ok then "ok" else "FAIL: " ^ r.why))
    rungs;
  let goodput = List.fold_left (fun a r -> if r.ok then r.rate else a) 0. rungs in
  say "goodput: %.0f reads/s (p99 limit %dus, rungs of %.2fs)" goodput p.limit_us rung_s;
  (* closed loop, in 1-s windows *)
  let c0, c1 = conns in
  let nwin = max 3 (int_of_float (Float.round closed_s)) in
  let rates =
    List.init nwin (fun _ ->
        let r =
          Gen.closed_loop ~depth:closed_depth
            [ (c0, fun _ -> read_msg t dep (take ())); (c1, fun _ -> read_msg t dep (take ())) ]
            ~duration:(closed_s /. float_of_int nwin)
        in
        ignore (account r);
        float_of_int r.Gen.queries /. secs r.Gen.elapsed_ns)
  in
  let lookups_per_s = median_f rates in
  say "closed loop, 2 connections x %d in flight, %d windows of %.2fs: queries/s %s"
    closed_depth nwin (closed_s /. float_of_int nwin)
    (String.concat " " (List.map (Printf.sprintf "%.0f") rates));
  let server_cpu =
    float_of_int fixed_cpu /. Proc.ticks_per_s *. 1e6 /. float_of_int (max 1 fixed_queries)
  in
  say "server cpu at the fixed rate: %d ticks, %.2f us/query" fixed_cpu server_cpu;
  Gen.close c0;
  Gen.close c1;
  (* VmHWM is in KiB; report 10^6-byte MB *)
  let rss_mb =
    float_of_int (List.fold_left (fun a p -> a + Proc.peak_rss_kb p) 0 dep.procs) *. 1024. /. 1e6
  in
  let gated =
    [ m "setup_s" "s" setup_s;
      m "server_cpu_us_per_query" "us" server_cpu;
      m "server_rss_mb" "MB" rss_mb ]
  in
  let info =
    [ m "read_p50_us" "us" rep.p50_us;
      m "read_p99_us" "us" rep.p99_us;
      m "goodput_rps" "req/s" goodput;
      m "lookups_per_s" "queries/s" lookups_per_s;
      m "setup_wall_s" "s" setup_wall_s ]
  in
  let extra =
    match dep.store with
    | Some store ->
      let applied = Array.to_list (Array.sub ws 0 !applied) in
      let recover_s = crash_and_recover env t dep ~store ~applied in
      [ m "mutate_p50_us" "us" wrep.p50_us;
        m "mutate_p99_us" "us" wrep.pooled_p99_us;
        m "recover_s" "s" recover_s ]
    | None ->
      List.iter (fun p -> Proc.kill p) dep.procs;
      []
  in
  (gated, info @ extra, rep.valid)
