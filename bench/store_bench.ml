(* STO1: durable-store start-up — cold session build vs warm snapshot
   restore.

   A cold open builds the session from the in-memory hierarchy and then
   compiles every queried member's verdict column through the memo
   engine.  A warm open reads the newest snapshot back off disk and
   installs the persisted columns directly into the table cache, so the
   serving state is ready without recomputation.  The third family adds
   a WAL tail to the warm path: recovery replays the logged mutations
   through the session's incremental engine, which is the real restart
   cost once a store has been running between compactions.

   Each row is the median and quartiles over [repeats] rounds; a round
   times the three families in turn (each a calibrated mean over at
   least 20 ms of calls), so a drift of the machine lands on all three
   alike.  [dune exec bench/main.exe -- sto] reruns STO1 alone. *)

module G = Chg.Graph
module Families = Hiergen.Families
module Session = Service.Session

let header id title = Format.printf "@.---- %s: %s ----@." id title

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* One lookup per member from the root class compiles every column,
   which is exactly the state a snapshot persists. *)
let compile_columns s g =
  let root = G.name g 0 in
  List.iter
    (fun m ->
      match Session.lookup s root m with
      | Ok _ -> ()
      | Error c -> invalid_arg ("bench session lost class " ^ c))
    (G.member_names g)

let wal_tail = 48
let repeats = 9

let run () =
  header "STO1" "session open: cold build vs snapshot restore";
  let i =
    Families.random_dag ~n:600 ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.25
      ~members:(List.init 24 (fun k -> Printf.sprintf "m%d" k))
      ~seed:23
  in
  let g = i.graph in
  let size = G.num_classes g + G.num_edges g in
  let members = G.member_names g in
  (* Durable state: a donor session with every column compiled,
     snapshotted into a scratch store.  The second lineage carries the
     same snapshot plus a WAL tail of add_member mutations. *)
  let dir = Filename.temp_file "cxxlookup-bench" ".store" in
  Sys.remove dir;
  let store = Store.open_dir dir in
  let donor = Session.create ~name:"donor" g in
  compile_columns donor g;
  let snapshot_of name =
    { Store.Snapshot.s_session = name;
      s_epoch = 0;
      s_protocol = Service.Protocol.version;
      s_graph = g;
      s_columns = Session.compiled_columns donor }
  in
  let snapshot_bytes = Store.write_snapshot store (snapshot_of "plain") in
  ignore (Store.write_snapshot store (snapshot_of "tail"));
  for k = 1 to wal_tail do
    Store.log_mutation store ~session:"tail" ~epoch:k
      (Store.Mutation.Add_member
         { am_class = G.name g (k mod G.num_classes g);
           am_member = G.member (Printf.sprintf "w%d" k) })
  done;
  Store.sync store;
  Format.printf
    "  hierarchy: %d classes, %d member names; snapshot: %d bytes, WAL \
     tail: %d records@."
    (G.num_classes g) (List.length members) snapshot_bytes wal_tail;
  let cold_open () =
    let s = Session.create ~name:"cold" g in
    compile_columns s g;
    s
  in
  let warm_open name =
    match Store.recover store name with
    | Ok (Some rv) ->
      let snap = rv.Store.rv_snapshot in
      let s =
        Session.restore ~name ~epoch:snap.Store.Snapshot.s_epoch
          ~columns:snap.Store.Snapshot.s_columns
          snap.Store.Snapshot.s_graph
      in
      List.iter
        (fun r ->
          match r.Store.Wal.rc_mutation with
          | Store.Mutation.Add_class { ac_name; ac_bases; ac_members } ->
            ignore
              (Session.add_class s ~cls:ac_name ~bases:ac_bases
                 ~members:ac_members)
          | Store.Mutation.Add_member { am_class; am_member } ->
            ignore (Session.add_member s ~cls:am_class am_member))
        rv.Store.rv_replayed;
      s
    | Ok None | Error _ -> invalid_arg "bench store lost its snapshot"
  in
  ignore (cold_open ());
  ignore (warm_open "plain");
  ignore (warm_open "tail") (* warm the page cache for all three *);
  let families =
    [ ("cold open (build + compile columns)", (fun () -> ignore (cold_open ())), 0);
      ("warm open (snapshot restore)", (fun () -> ignore (warm_open "plain")), 0);
      ( Printf.sprintf "warm open + %d-record WAL replay" wal_tail,
        (fun () -> ignore (warm_open "tail")),
        wal_tail ) ]
  in
  let times = List.map (fun _ -> Array.make repeats 0.) families in
  let latency = Array.make (List.length families) None in
  for r = 0 to repeats - 1 do
    List.iteri
      (fun k ((_, f, _), t) ->
        let mean, hist = Timing.measure f in
        t.(r) <- mean;
        latency.(k) <- Some hist)
      (List.combine families times)
  done;
  let medians =
    List.mapi
      (fun k ((family, _, records), t) ->
        let m, q1, q3 = Open_bench.quartiles t in
        Format.printf "  %-38s %a [%a, %a]@." family Timing.pp_time m
          Timing.pp_time q1 Timing.pp_time q3;
        let f x = Telemetry.Json.Float x and i x = Telemetry.Json.Int x in
        Scaling.record ~experiment:"STO1" ~family ~n_plus_e:size
          ~time_ns:(m *. 1e9) ?latency:latency.(k)
          (Telemetry.Json.Obj
             [ ("classes", i (G.num_classes g));
               ("member_names", i (List.length members));
               ("snapshot_bytes", i snapshot_bytes);
               ("wal_records", i records);
               ("repeats", i repeats);
               ("time_ns_q1", f (q1 *. 1e9));
               ("time_ns_q3", f (q3 *. 1e9)) ]);
        m)
      (List.combine families times)
  in
  (match medians with
  | t_cold :: t_warm :: _ ->
    Format.printf "  warm speedup over cold: %.2fx (medians)@." (t_cold /. t_warm)
  | _ -> ());
  Store.close store;
  rm_rf dir
