(* RAW1: the raw speed floor — what the serialization tax costs.

   Two sweeps, both in-process (no socket), so the deltas are pure
   encode/decode cost, not kernel scheduling:

   + batch QPS: the same batch_lookup stream dispatched as JSON lines
     ([Server.handle_line]) vs cxxlookup-rpc/1b frames with interned
     ids ([Server.handle_frame]).  The CHECK enforces the issue's
     floor: binary+interned >= 5x the JSON baseline.

   + restore latency: [Store.recover] over the same snapshot with the
     table image decoded ([`Off]), mapped after a streaming CRC pass
     ([`Verify]), and mapped with structural checks only ([`Fast]),
     across snapshot sizes.  Decode is linear in the image; the mapped
     modes should flatten.  On a filesystem where mapping fails the
     store falls back to decode silently — those rows are reported
     with a [skipped] marker instead of failing (the
     [store_mmap_restores] counter says whether the zero-copy path
     actually engaged). *)

module G = Chg.Graph
module J = Chg.Json
module Families = Hiergen.Families
module Session = Service.Session
module Server = Service.Server
module Frame = Service.Frame

let header id title = Format.printf "@.---- %s: %s ----@." id title

let counters_json pairs =
  Telemetry.Json.Obj
    (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) pairs)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let response_ok j = J.member "ok" j = Ok (J.Bool true)

let batch_size = 64

(* ---- batch QPS: JSON lines vs 1b frames ---------------------------- *)

let qps () =
  let i =
    Families.random_dag ~n:300 ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.25
      ~members:(List.init 16 (fun k -> Printf.sprintf "m%d" k))
      ~seed:41
  in
  let g = i.graph in
  let size = G.num_classes g + G.num_edges g in
  let members = G.member_names g in
  let srv = Server.create () in
  let session = "raw" in
  let expect what j =
    if not (response_ok j) then
      invalid_arg (Printf.sprintf "RAW1: %s failed: %s" what (J.to_string j))
  in
  expect "open"
    (Server.handle_line srv
       (J.to_string
          (J.Obj
             [ ("id", J.Int 0); ("op", J.String "open");
               ("session", J.String session);
               ("chg", Chg.Serialize.to_json g) ])));
  let queries =
    Array.of_list
      (List.concat_map
         (fun m -> List.init (G.num_classes g) (fun c -> (G.name g c, m)))
         members)
  in
  let q k = queries.(k mod Array.length queries) in
  (* the same 64-query batch in both framings, pre-encoded: the timed
     loop is dispatch + lookup + response encode, nothing else *)
  let json_line =
    J.to_string
      (J.Obj
         [ ("id", J.Int 1); ("op", J.String "batch_lookup");
           ("session", J.String session);
           ( "queries",
             J.List
               (List.init batch_size (fun k ->
                    let c, m = q (k * 13) in
                    J.Obj [ ("class", J.String c); ("member", J.String m) ]))
           ) ])
  in
  let symbols = Server.handle_line srv
      (J.to_string
         (J.Obj
            [ ("id", J.Int 2); ("op", J.String "symbols");
              ("session", J.String session) ]))
  in
  expect "symbols" symbols;
  let table field =
    match J.member field symbols with
    | Ok (J.List l) ->
      let h = Hashtbl.create (List.length l) in
      List.iteri
        (fun i n ->
          match n with
          | J.String n -> Hashtbl.replace h n i
          | _ -> invalid_arg "RAW1: non-string symbol")
        l;
      h
    | _ -> invalid_arg ("RAW1: symbols response lacks " ^ field)
  in
  let class_ids = table "classes" and member_ids = table "members" in
  let frame =
    Frame.encode_request
      { Frame.fr_id = 1; fr_session = session;
        fr_op =
          Frame.Batch_lookup
            (Array.init batch_size (fun k ->
                 let c, m = q (k * 13) in
                 (Hashtbl.find class_ids c, Hashtbl.find member_ids m))) }
  in
  (* warm: the first pass compiles every queried column, so both timed
     loops run against packed tables *)
  expect "warmup batch" (Server.handle_line srv json_line);
  let fresp = Server.handle_frame srv frame in
  (match Frame.decode_response ~op:Frame.op_batch_lookup fresp with
  | Ok (_, Frame.Ok_batch { ob_resolved; ob_ambiguous; ob_not_found; _ }) ->
    (* the two framings must agree on every verdict before we compare
       their speed *)
    let jresp = Server.handle_line srv json_line in
    let field f =
      match J.member f jresp with
      | Ok (J.Int n) -> n
      | _ -> invalid_arg ("RAW1: batch response lacks " ^ f)
    in
    Fig_tables.check "RAW1: binary batch verdicts = JSON verdicts"
      (ob_resolved = field "resolved"
      && ob_ambiguous = field "ambiguous"
      && ob_not_found = field "not_found")
  | Ok _ | Error _ -> invalid_arg "RAW1: binary warmup batch failed");
  let t_json, lat_json =
    Timing.measure (fun () -> Server.handle_line srv json_line)
  in
  let t_bin, lat_bin =
    Timing.measure (fun () -> Server.handle_frame srv frame)
  in
  let qps t = float_of_int batch_size /. t in
  let speedup = t_json /. t_bin in
  Format.printf
    "  batch_lookup x%d, %d classes: json %a/batch (%.0f q/s)  binary %a\
     /batch (%.0f q/s)  speedup %.1fx@."
    batch_size (G.num_classes g) Timing.pp_time t_json (qps t_json)
    Timing.pp_time t_bin (qps t_bin) speedup;
  Fig_tables.check "RAW1: binary+interned batch QPS >= 5x JSON baseline"
    (speedup >= 5.);
  let shape extra =
    counters_json
      ([ ("batch_size", batch_size);
         ("classes", G.num_classes g);
         ("member_names", List.length members) ]
       @ extra)
  in
  Scaling.record ~experiment:"RAW1" ~family:"batch_lookup json lines"
    ~n_plus_e:size ~time_ns:(t_json *. 1e9) ~latency:lat_json
    (shape [ ("qps", int_of_float (qps t_json)) ]);
  Scaling.record ~experiment:"RAW1" ~family:"batch_lookup 1b frames"
    ~n_plus_e:size ~time_ns:(t_bin *. 1e9) ~latency:lat_bin
    (shape
       [ ("qps", int_of_float (qps t_bin));
         ("speedup_over_json_x10", int_of_float (speedup *. 10.)) ])

(* ---- restore latency: decode vs mmap across sizes ------------------ *)

let compile_columns s g =
  let root = G.name g 0 in
  List.iter
    (fun m ->
      match Session.lookup s root m with
      | Ok _ -> ()
      | Error c -> invalid_arg ("RAW1: bench session lost class " ^ c))
    (G.member_names g)

let restore_modes =
  [ ("decode", `Off); ("mmap-verify", `Verify); ("mmap-fast", `Fast) ]

(* One measured [recover] per (size, mode); returns the timing plus
   whether the zero-copy path actually engaged, from the store's own
   counter. *)
let measure_recover dir mode =
  let config = { Store.default_config with mmap_restore = mode } in
  let st = Store.open_dir ~config dir in
  let recover () =
    match Store.recover st "raw" with
    | Ok (Some rv) -> rv
    | Ok None | Error _ -> invalid_arg "RAW1: store lost its snapshot"
  in
  ignore (recover ()) (* page-cache warmup *);
  let t, lat = Timing.measure (fun () -> recover ()) in
  let engaged =
    match List.assoc_opt "store_mmap_restores" (Store.counters st) with
    | Some n -> n > 0
    | None -> false
  in
  Store.close st;
  (t, lat, engaged)

(* The sweep grows the *table image* over one pinned hierarchy: both
   restore paths decode the graph section (O(|N|+|E|), and the graph
   carries the member declarations), so growing the hierarchy would
   hide the mapped image behind a linear term the paths share.
   Instead, one donor session's compiled columns are replicated under
   fresh member names — the regime where the compiled member universe
   dwarfs the hierarchy, which is where restore cost lives.  Decode
   stays linear in the image; the mapped modes flatten — that
   flattening is the zero-copy claim. *)
let restore_classes = 600
let column_multipliers = [ 1; 8; 64 ]

let restore () =
  Format.printf
    "  restore: decode vs mmap (verify / fast), %d classes, growing \
     table image@."
    restore_classes;
  let i =
    Families.random_dag ~n:restore_classes ~max_bases:3 ~virtual_prob:0.2
      ~declare_prob:0.25
      ~members:(List.init 24 (fun k -> Printf.sprintf "m%d" k))
      ~seed:29
  in
  let g = i.graph in
  let size = G.num_classes g + G.num_edges g in
  let donor = Session.create ~name:"donor" g in
  compile_columns donor g;
  let base_columns = Session.compiled_columns donor in
  (* (mode_name, multiplier) -> (time, skipped) for the sweep check *)
  let results = Hashtbl.create 16 in
  List.iter
    (fun mult ->
      let s_columns =
        List.concat
          (List.init mult (fun r ->
               List.map
                 (fun (m, c) ->
                   ((if r = 0 then m else Printf.sprintf "%s__v%d" m r), c))
                 base_columns))
      in
      let dir = Filename.temp_file "cxxlookup-raw" ".store" in
      Sys.remove dir;
      let store = Store.open_dir dir in
      let snapshot_bytes =
        Store.write_snapshot store
          { Store.Snapshot.s_session = "raw";
            s_epoch = 0;
            s_protocol = Service.Protocol.version;
            s_graph = g;
            s_columns }
      in
      Store.close store;
      List.iter
        (fun (mode_name, mode) ->
          let t, lat, engaged = measure_recover dir mode in
          let skipped = mode <> `Off && not engaged in
          Hashtbl.replace results (mode_name, mult) (t, skipped);
          Format.printf "  columns=%-5d %-12s %a  (%d snapshot bytes)%s@."
            (List.length s_columns) mode_name Timing.pp_time t snapshot_bytes
            (if skipped then "  SKIPPED: mmap unavailable, fell back to \
                              decode"
             else "");
          Scaling.record ~experiment:"RAW1"
            ~family:("restore " ^ mode_name ^ (if skipped then " (skipped)"
                                               else ""))
            ~n_plus_e:size ~time_ns:(t *. 1e9) ~latency:lat
            (counters_json
               [ ("classes", G.num_classes g);
                 ("columns", List.length s_columns);
                 ("snapshot_bytes", snapshot_bytes);
                 ("mmap_engaged", if engaged then 1 else 0);
                 ("skipped", if skipped then 1 else 0) ]))
        restore_modes;
      rm_rf dir)
    column_multipliers;
  (* growth over the sweep, per mode: mapped restore should stay
     near-flat while decode grows with the image.  Only meaningful when
     the zero-copy path engaged at every size. *)
  let lo = List.hd column_multipliers
  and hi = List.nth column_multipliers (List.length column_multipliers - 1) in
  let growth mode_name =
    match
      (Hashtbl.find_opt results (mode_name, lo),
       Hashtbl.find_opt results (mode_name, hi))
    with
    | Some (t0, false), Some (t1, false) when t0 > 0. -> Some (t1 /. t0)
    | _ -> None
  in
  match (growth "decode", growth "mmap-fast") with
  | Some gd, Some gf ->
    Format.printf
      "  growth over %dx image: decode %.1fx, mmap-fast %.1fx@."
      (hi / lo) gd gf;
    Fig_tables.check "RAW1: mmap-fast restore near-constant vs linear decode"
      (gf < gd /. 4.)
  | _ ->
    Format.printf
      "  growth check skipped: mmap did not engage at every size@."

let run () =
  header "RAW1" "raw speed floor: binary framing QPS and mmap restore";
  qps ();
  restore ()
