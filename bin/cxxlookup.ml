(* Command-line driver: compile a C++-subset translation unit and query
   member lookups, layouts, vtables, graphs and slices.

   Examples:
     cxxlookup check file.cpp
     cxxlookup lookup file.cpp E m
     cxxlookup table file.cpp
     cxxlookup dot file.cpp            # CHG in Graphviz syntax
     cxxlookup dot file.cpp --subobjects E
     cxxlookup layout file.cpp E
     cxxlookup vtable file.cpp E
     cxxlookup slice file.cpp E::m D::n
     cxxlookup stats file.cpp [--stats-json]   # hierarchy + op counters
     cxxlookup stats file.cpp E m              # one member column
     cxxlookup trace file.cpp E m [--json]     # Figure-8 replay *)

module G = Chg.Graph
module Engine = Lookup_core.Engine
module Memo = Lookup_core.Memo
module Incremental = Lookup_core.Incremental
module Metrics = Lookup_core.Metrics
module Packed = Lookup_core.Packed
module Tjson = Telemetry.Json

let read_file path =
  if path = "-" then In_channel.input_all stdin
  else In_channel.with_open_text path In_channel.input_all

(* Load and analyze, failing the command on parse/sema errors unless
   [tolerant]. *)
let load ?(tolerant = false) path =
  let r = Frontend.Sema.analyze_source (read_file path) in
  List.iter
    (fun d -> prerr_endline (Frontend.Diagnostic.to_string d))
    r.diagnostics;
  if (not tolerant) && not (Frontend.Sema.ok r) then exit 1;
  r

let find_class g name =
  match G.find_opt g name with
  | Some c -> c
  | None ->
    Printf.eprintf "error: unknown class '%s'\n" name;
    exit 1

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Input translation unit ('-' for stdin).")

let class_arg n =
  Arg.(required & pos n (some string) None & info [] ~docv:"CLASS")

let member_arg n =
  Arg.(required & pos n (some string) None & info [] ~docv:"MEMBER")

(* Which lookup semantics to evaluate: the paper's C++ rules (default)
   or one of the linearized MROs layered over the same hierarchy. *)
let semantics_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("cpp", Mro.Cpp);
             ("c3", Mro.Linearized Mro.C3);
             ("py22", Mro.Linearized Mro.Py22);
             ("dylan", Mro.Linearized Mro.Dylan) ])
        Mro.Cpp
    & info [ "semantics" ] ~docv:"SEM"
        ~doc:
          "Lookup semantics: the paper's C++ subobject rules ($(b,cpp), \
           the default) or a linearized MRO — $(b,c3), $(b,py22) \
           (leftmost depth-first, duplicates keep the last occurrence), \
           or $(b,dylan).")

let check_cmd =
  let run file =
    let r = load ~tolerant:true file in
    List.iter
      (fun res ->
        Format.printf "%a@." (Frontend.Sema.pp_resolution r.graph) res)
      r.resolutions;
    if Frontend.Sema.ok r then print_endline "ok" else exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Compile FILE and statically resolve every member access.")
    Term.(const run $ file_arg)

let lookup_cmd =
  let run file cls member semantics =
    let r = load file in
    let c = find_class r.graph cls in
    match semantics with
    | Mro.Cpp -> (
      match Engine.lookup r.engine c member with
      | None ->
        Format.printf "no member '%s' in any subobject of '%s'@." member cls
      | Some v ->
        Format.printf "lookup(%s, %s) = %a@." cls member
          (Engine.pp_verdict r.graph) v;
        (match Engine.witness r.engine c member with
        | Some p ->
          Format.printf "definition path: %a@." (Subobject.Path.pp r.graph) p
        | None -> ()))
    | Mro.Linearized v -> (
      let t = Mro.compute v r.graph in
      match Mro.lookup t c member with
      | None ->
        Format.printf "no member '%s' in any superclass of '%s' (%s)@."
          member cls (Mro.variant_string v)
      | Some verdict ->
        Format.printf "lookup(%s, %s) = %a  [%s]@." cls member
          (Engine.pp_verdict r.graph) verdict (Mro.variant_string v))
  in
  Cmd.v
    (Cmd.info "lookup"
       ~doc:
         "Resolve MEMBER in the context of CLASS (under $(b,--semantics), \
          via an MRO instead of the C++ subobject rules).")
    Term.(const run $ file_arg $ class_arg 1 $ member_arg 2 $ semantics_arg)

let table_cmd =
  let run file =
    let r = load file in
    let g = r.graph in
    G.iter_classes g (fun c ->
        List.iter
          (fun m ->
            match Engine.lookup r.engine c m with
            | None -> ()
            | Some v ->
              Format.printf "%-14s %-10s %a@." (G.name g c) m
                (Engine.pp_verdict g) v)
          (G.member_names g))
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:"Print the whole lookup table (every class x member).")
    Term.(const run $ file_arg)

let dot_cmd =
  let sub =
    Arg.(
      value
      & opt (some string) None
      & info [ "subobjects" ] ~docv:"CLASS"
          ~doc:"Emit the subobject graph of CLASS instead of the CHG.")
  in
  let run file sub =
    let r = load file in
    match sub with
    | None -> print_string (Chg.Dot.to_dot r.graph)
    | Some cls ->
      let c = find_class r.graph cls in
      print_string (Subobject.Sgraph.to_dot (Subobject.Sgraph.build r.graph c))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for the class hierarchy graph.")
    Term.(const run $ file_arg $ sub)

let layout_cmd =
  let run file cls =
    let r = load file in
    let c = find_class r.graph cls in
    Format.printf "%a@." Layout.Object_layout.pp
      (Layout.Object_layout.of_class r.graph c)
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Print the object layout of CLASS.")
    Term.(const run $ file_arg $ class_arg 1)

let vtable_cmd =
  let run file cls =
    let r = load file in
    let c = find_class r.graph cls in
    Format.printf "%a@." (Layout.Vtable.pp r.graph)
      (Layout.Vtable.build r.engine c)
  in
  Cmd.v
    (Cmd.info "vtable" ~doc:"Print the virtual function table of CLASS.")
    Term.(const run $ file_arg $ class_arg 1)

let slice_cmd =
  let seeds_arg =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"CLASS::MEMBER" ~doc:"Seed lookups.")
  in
  let run file seeds =
    let r = load file in
    let parse_seed s =
      match String.index_opt s ':' with
      | Some i
        when i + 1 < String.length s
             && s.[i + 1] = ':' ->
        let cls = String.sub s 0 i in
        let m = String.sub s (i + 2) (String.length s - i - 2) in
        { Slicing.sd_class = find_class r.graph cls; sd_member = m }
      | _ ->
        Printf.eprintf "error: seed '%s' is not of the form CLASS::MEMBER\n" s;
        exit 1
    in
    let s = Slicing.slice r.graph (List.map parse_seed seeds) in
    Format.printf "%a@." Slicing.pp_stats s;
    Format.printf "%a" G.pp s.Slicing.sliced
  in
  Cmd.v
    (Cmd.info "slice"
       ~doc:"Slice the hierarchy to the classes relevant to the given lookups.")
    Term.(const run $ file_arg $ seeds_arg)

let export_cmd =
  let pretty =
    Arg.(value & flag & info [ "pretty" ] ~doc:"Indent the output.")
  in
  let run file pretty =
    let r = load file in
    print_endline (Chg.Serialize.to_string ~pretty r.graph)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Emit the class hierarchy graph as JSON (cxxlookup-chg v1).")
    Term.(const run $ file_arg $ pretty)

let import_cmd =
  let cpp =
    Arg.(
      value & flag
      & info [ "cpp" ] ~doc:"Emit C++ source instead of the lookup table.")
  in
  let run file cpp =
    match Chg.Serialize.of_string (read_file file) with
    | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok g ->
      if cpp then print_string (Frontend.Emit.to_source g)
      else begin
        let engine = Engine.build (Chg.Closure.compute g) in
        G.iter_classes g (fun c ->
            List.iter
              (fun m ->
                match Engine.lookup engine c m with
                | None -> ()
                | Some v ->
                  Format.printf "%-14s %-10s %a@." (G.name g c) m
                    (Engine.pp_verdict g) v)
              (G.member_names g))
      end
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Read a JSON hierarchy (as produced by export) and print its \
          lookup table (or --cpp source).")
    Term.(const run $ file_arg $ cpp)

let run_cmd =
  let entry =
    Arg.(
      value & opt string "main"
      & info [ "entry" ] ~docv:"FUNC" ~doc:"Entry function.")
  in
  let run file entry =
    let o = Runtime.run_source ~entry (read_file file) in
    List.iter
      (fun e -> Format.printf "%a@." Runtime.pp_event e)
      o.Runtime.trace;
    if o.Runtime.runtime_errors <> [] then begin
      List.iter
        (fun d -> prerr_endline (Frontend.Diagnostic.to_string d))
        o.Runtime.runtime_errors;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the program with the staged-lookup runtime and print           the trace (allocations, member reads/writes, dispatches).")
    Term.(const run $ file_arg $ entry)

let audit_cmd =
  let run file =
    let r = load file in
    let g = r.graph in
    let found = ref 0 in
    G.iter_classes g (fun c ->
        List.iter
          (fun m ->
            match Engine.lookup r.engine c m with
            | Some (Engine.Blue _) ->
              incr found;
              Format.printf "%s::%s is ambiguous@." (G.name g c) m
            | Some (Engine.Red _) | None -> ())
          (G.member_names g));
    if !found = 0 then print_endline "no ambiguous lookups"
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "List every (class, member) pair whose lookup is ambiguous —           latent errors a use would trigger.")
    Term.(const run $ file_arg)

let count_cmd =
  let run file =
    let r = load file in
    let g = r.graph in
    let cl = Chg.Closure.compute g in
    G.iter_classes g (fun c ->
        Format.printf "%-20s %d subobjects@." (G.name g c)
          (Subobject.Count.subobjects cl c))
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:
         "Print the number of subobjects of each class (closed form, no           exponential construction).")
    Term.(const run $ file_arg)

(* -- telemetry-driven subcommands: stats & trace -------------------- *)

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for whole-table column compilation (default: \
           $(b,CXXLOOKUP_JOBS) if set, else the machine's recommended \
           domain count; $(b,1) runs sequentially on the calling domain).")

let resolve_jobs = function
  | Some n when n >= 1 -> n
  | Some n ->
    Printf.eprintf "error: --jobs must be >= 1 (got %d)\n" n;
    exit 2
  | None -> Packed.default_jobs ()

let count_virtual_edges g =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc (b : G.base) ->
          match b.b_kind with G.Virtual -> acc + 1 | G.Non_virtual -> acc)
        acc (G.bases g c))
    0 (G.classes g)

(* Run the three engines over the program with one metrics bag each, so
   the costs are attributed per engine: the eager build (whole table, or
   one member's column), a two-pass lazy-memo replay of every query (the
   second pass is all cache hits), and a declaration-by-declaration
   incremental replay. *)
let run_instrumented g cl ~member =
  let em = Metrics.create () in
  let engine =
    match member with
    | Some m -> Engine.build_member ~metrics:em cl m
    | None -> Engine.build ~metrics:em cl
  in
  let mm = Metrics.create () in
  let memo = Memo.create ~metrics:mm cl in
  let names = match member with Some m -> [ m ] | None -> G.member_names g in
  for _pass = 1 to 2 do
    G.iter_classes g (fun c ->
        List.iter (fun m -> ignore (Memo.lookup memo c m)) names)
  done;
  let im = Metrics.create () in
  ignore (Incremental.of_closure ~metrics:im cl);
  (engine, em, memo, mm, im)

let verdict_json g = function
  | None -> Tjson.Null
  | Some v -> Tjson.String (Engine.verdict_string g v)

let stats_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:"Emit the telemetry report as JSON (cxxlookup-stats/1).")
  in
  let class_opt = Arg.(value & pos 1 (some string) None & info [] ~docv:"CLASS") in
  let member_opt =
    Arg.(value & pos 2 (some string) None & info [] ~docv:"MEMBER")
  in
  let run file cls member json jobs =
    (match (cls, member) with
    | Some _, None ->
      prerr_endline "error: stats takes FILE, or FILE CLASS MEMBER";
      exit 1
    | _ -> ());
    let jobs = resolve_jobs jobs in
    let r = load file in
    let g = r.graph in
    let cl = Chg.Closure.compute g in
    let engine, em, memo, mm, im = run_instrumented g cl ~member in
    (* the packed query-serving table, compiled on [jobs] domains, and
       its size against the boxed representation it replaces *)
    let packed = Packed.build ~jobs cl in
    let packed_bytes = Packed.bytes packed in
    let boxed_bytes = Packed.boxed_bytes packed in
    let query =
      match (cls, member) with
      | Some cls, Some m ->
        let c = find_class g cls in
        Some (cls, m, Engine.lookup engine c m)
      | _ -> None
    in
    if json then
      Tjson.output stdout
        (Tjson.Obj
           ([ ("schema", Tjson.String "cxxlookup-stats/1");
              ("file", Tjson.String file);
              ( "graph",
                Tjson.Obj
                  [ ("classes", Tjson.Int (G.num_classes g));
                    ("edges", Tjson.Int (G.num_edges g));
                    ("virtual_edges", Tjson.Int (count_virtual_edges g));
                    ("members", Tjson.Int (List.length (G.member_names g)))
                  ] );
              ( "engine",
                Tjson.Obj
                  [ ( "mode",
                      Tjson.String
                        (match member with
                        | Some m -> "member-column:" ^ m
                        | None -> "full-table") );
                    ("counters", Metrics.counters_json em);
                    ("timers", Metrics.timers_json em) ] );
              ( "memo",
                Tjson.Obj
                  [ ("counters", Metrics.counters_json mm);
                    ("cached_entries", Tjson.Int (Memo.cached_entries memo))
                  ] );
              ("incremental",
               Tjson.Obj [ ("counters", Metrics.counters_json im) ]);
              ( "packed",
                Tjson.Obj
                  [ ("domains", Tjson.Int jobs);
                    ("bytes", Tjson.Int packed_bytes);
                    ("boxed_bytes", Tjson.Int boxed_bytes);
                    ( "columns",
                      Tjson.List
                        (List.map
                           (fun (m, col) ->
                             Tjson.Obj
                               [ ("member", Tjson.String m);
                                 ("bytes", Tjson.Int (Packed.column_bytes col));
                                 ( "boxed_bytes",
                                   Tjson.Int (Packed.boxed_column_bytes col) )
                               ])
                           (Packed.columns packed)) ) ] )
            ]
           @
           match query with
           | None -> []
           | Some (cls, m, v) ->
             [ ( "query",
                 Tjson.Obj
                   [ ("class", Tjson.String cls);
                     ("member", Tjson.String m);
                     ("verdict", verdict_json g v) ] ) ]))
    else begin
      let t = Analysis.run cl in
      Format.printf "%a@." Analysis.pp_summary t;
      G.iter_classes g (fun c ->
          Format.printf "%a@." (Analysis.pp_class t) (Analysis.report t c));
      Format.printf "@.== lookup telemetry ==@.";
      Format.printf "eager engine (%s):@."
        (match member with
        | Some m -> "column of member '" ^ m ^ "'"
        | None -> "full table");
      Format.printf "%a" Metrics.pp_summary em;
      Format.printf "lazy memo (two passes over every query):@.";
      Format.printf "%a" Metrics.pp_summary mm;
      Format.printf "  cached_entries         %d@." (Memo.cached_entries memo);
      Format.printf "incremental replay (class by class):@.";
      Format.printf "%a" Metrics.pp_summary im;
      Format.printf "packed table (%d domain%s):@." jobs
        (if jobs = 1 then "" else "s");
      List.iter
        (fun (m, col) ->
          Format.printf "  %-22s %d bytes packed, %d boxed@." m
            (Packed.column_bytes col)
            (Packed.boxed_column_bytes col))
        (Packed.columns packed);
      Format.printf "  %-22s %d bytes packed, %d boxed@." "total" packed_bytes
        boxed_bytes;
      match query with
      | None -> ()
      | Some (cls, m, v) ->
        (match v with
        | None ->
          Format.printf "lookup(%s, %s): no member in any subobject@." cls m
        | Some v ->
          Format.printf "lookup(%s, %s) = %a@." cls m (Engine.pp_verdict g) v)
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Hierarchy analysis plus lookup telemetry: the algorithm's unit \
          operations (edge traversals, dominance probes, verdict colors, \
          memo hits, incremental row costs) measured over all three \
          engines.  With CLASS and MEMBER, instruments that single \
          member's column.")
    Term.(const run $ file_arg $ class_opt $ member_opt $ json_flag
          $ jobs_term)

let trace_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the event stream as JSON (cxxlookup-trace/1).")
  in
  let run file cls member json =
    let r = load file in
    let g = r.graph in
    let c = find_class g cls in
    let cl = Chg.Closure.compute g in
    let m = Metrics.create ~trace:true () in
    let eng = Engine.build_member ~metrics:m cl member in
    let v = Engine.lookup eng c member in
    if json then
      Tjson.output stdout
        (Tjson.Obj
           [ ("schema", Tjson.String "cxxlookup-trace/1");
             ("file", Tjson.String file);
             ("class", Tjson.String cls);
             ("member", Tjson.String member);
             ("verdict", verdict_json g v);
             ("events", Telemetry.Sink.to_json m.Metrics.sink) ])
    else begin
      Format.printf "%a" Telemetry.Sink.pp m.Metrics.sink;
      match v with
      | None ->
        Format.printf "no member '%s' in any subobject of '%s'@." member cls
      | Some v ->
        Format.printf "lookup(%s, %s) = %a@." cls member
          (Engine.pp_verdict g) v
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay the Figure-8 propagation for MEMBER as an event stream: \
          classes visited in topological order, verdicts flowing across \
          each inheritance edge, and the combine result per class.")
    Term.(const run $ file_arg $ class_arg 1 $ member_arg 2 $ json_flag)

(* -- offline Prometheus exposition: metrics & check-metrics --------- *)

let metrics_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"PATH"
          ~doc:
            "Write the exposition to PATH (atomic tmp + rename) instead \
             of stdout.")
  in
  let run file jobs out =
    let jobs = resolve_jobs jobs in
    let r = load file in
    let g = r.graph in
    let cl = Chg.Closure.compute g in
    let registry = Telemetry.Registry.create () in
    (* one bag per engine, so the exposition attributes costs per
       engine; everything rendered is deterministic for a given
       hierarchy — counters count unit operations, and the packed bag's
       column-cost histogram merges identically for any --jobs *)
    let _engine, em, memo, mm, im = run_instrumented g cl ~member:None in
    let pm = Metrics.create () in
    let packed = Packed.build ~jobs ~metrics:pm cl in
    Metrics.register em ~labels:[ ("engine", "eager") ] registry;
    Metrics.register mm ~labels:[ ("engine", "memo") ] registry;
    Metrics.register im ~labels:[ ("engine", "incremental") ] registry;
    Metrics.register pm ~labels:[ ("engine", "packed") ] registry;
    Telemetry.Registry.gauge registry ~help:"Classes in the hierarchy."
      "cxxlookup_graph_classes"
      (fun () -> G.num_classes g);
    Telemetry.Registry.gauge registry ~help:"Inheritance edges."
      "cxxlookup_graph_edges"
      (fun () -> G.num_edges g);
    Telemetry.Registry.gauge registry ~help:"Distinct member names."
      "cxxlookup_graph_members"
      (fun () -> List.length (G.member_names g));
    Telemetry.Registry.gauge registry
      ~help:"Entries in the memo engine's cache."
      "cxxlookup_memo_cached_entries"
      (fun () -> Memo.cached_entries memo);
    Telemetry.Registry.gauge registry ~help:"Packed table bytes."
      "cxxlookup_packed_bytes"
      (fun () -> Packed.bytes packed);
    Telemetry.Registry.gauge registry
      ~help:"Boxed-equivalent bytes of the packed table."
      "cxxlookup_packed_boxed_bytes"
      (fun () -> Packed.boxed_bytes packed);
    match out with
    | None -> print_string (Telemetry.Prometheus.render registry)
    | Some path ->
      let n = Telemetry.Prometheus.write_file path registry in
      Printf.printf "wrote %d bytes to %s\n" n path
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run all engines over FILE and emit their metrics as a \
          Prometheus text-format 0.0.4 exposition: per-engine unit-\
          operation counters, the packed build's per-column cost \
          histogram, and hierarchy/size gauges.  Deterministic for a \
          given FILE, whatever --jobs.")
    Term.(const run $ file_arg $ jobs_term $ out)

let check_metrics_cmd =
  let expo_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPOSITION"
          ~doc:"A Prometheus text-format scrape ('-' for stdin).")
  in
  let prev =
    Arg.(
      value
      & opt (some string) None
      & info [ "prev" ] ~docv:"FILE"
          ~doc:
            "An earlier scrape of the same process: every counter and \
             histogram series present in both must not have decreased.")
  in
  let run file prev =
    let text = read_file file in
    (match Telemetry.Expocheck.check text with
    | Error msg ->
      Printf.eprintf "error: %s: %s\n" file msg;
      exit 1
    | Ok n -> Printf.printf "ok: %s: %d samples\n" file n);
    match prev with
    | None -> ()
    | Some p ->
      let ptext = read_file p in
      (match Telemetry.Expocheck.check ptext with
      | Error msg ->
        Printf.eprintf "error: %s: %s\n" p msg;
        exit 1
      | Ok _ -> ());
      (match Telemetry.Expocheck.check_monotone ~prev:ptext ~next:text with
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
      | Ok () -> Printf.printf "ok: monotone against %s\n" p)
  in
  Cmd.v
    (Cmd.info "check-metrics"
       ~doc:
         "Validate a Prometheus text-format 0.0.4 exposition (line \
          grammar, name syntax, HELP/TYPE placement, histogram \
          structure); with --prev, additionally check counter \
          monotonicity across two scrapes.")
    Term.(const run $ expo_arg $ prev)

(* -- the resident lookup service: serve & batch --------------------- *)

let service_config_term =
  Term.(
    const (fun jobs -> { Service.Session.jobs = resolve_jobs jobs })
    $ jobs_term)

(* -- durability options ---------------------------------------------- *)

let fsync_conv =
  let parse = function
    | "always" -> Ok Store.Wal.Always
    | "never" -> Ok Store.Wal.Never
    | s ->
      (match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (Store.Wal.Every n)
      | _ ->
        Error
          (`Msg
             "expected 'always', 'never', or a positive integer N (fsync \
              every N appends)"))
  in
  let print ppf = function
    | Store.Wal.Always -> Format.pp_print_string ppf "always"
    | Store.Wal.Never -> Format.pp_print_string ppf "never"
    | Store.Wal.Every n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let store_config_term =
  let fsync =
    Arg.(
      value
      & opt fsync_conv Store.default_config.Store.fsync
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "WAL fsync policy: 'always' (every append), 'never', or N \
             (every N appends).")
  in
  let compact =
    Arg.(
      value
      & opt int Store.default_config.Store.compact_bytes
      & info [ "compact-bytes" ] ~docv:"BYTES"
          ~doc:
            "WAL size past which a mutation triggers compaction into a \
             fresh snapshot.")
  in
  let keep =
    Arg.(
      value
      & opt int Store.default_config.Store.keep_snapshots
      & info [ "keep-snapshots" ] ~docv:"N"
          ~doc:"Snapshot files retained per session.")
  in
  let mmap =
    let mode_conv =
      Arg.enum [ ("verify", `Verify); ("fast", `Fast); ("off", `Off) ]
    in
    Arg.(
      value
      & opt mode_conv Store.default_config.Store.mmap_restore
      & info [ "mmap-restore" ] ~docv:"MODE"
          ~doc:
            "Snapshot restore path: 'verify' (zero-copy mmap after a CRC \
             pass, the default), 'fast' (mmap with structural checks \
             only), or 'off' (always decode). Every mode falls back to \
             decode when mapping fails.")
  in
  let make fsync compact_bytes keep_snapshots mmap_restore =
    { Store.fsync; compact_bytes; keep_snapshots; mmap_restore }
  in
  Term.(const make $ fsync $ compact $ keep $ mmap)

let print_recoveries results =
  List.iter
    (function
      | Service.Server.Recovered { r_session; r_epoch; r_replayed; r_torn } ->
        Printf.eprintf "recovered session %S: epoch %d, %d replayed%s\n%!"
          r_session r_epoch r_replayed
          (if r_torn then ", torn WAL tail skipped" else "")
      | Service.Server.Recovery_failed { r_session; r_error } ->
        Printf.eprintf "failed to recover session %S: %s\n%!" r_session
          r_error)
    results

let response_ok j =
  match Chg.Json.member "ok" j with
  | Ok (Chg.Json.Bool true) -> true
  | _ -> false

(* -- networking --------------------------------------------------------- *)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i ->
    let host = String.sub s 0 i in
    (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p when p >= 0 && p < 65536 -> Some (host, p)
    | _ -> None)

(* [--listen]/[--connect] vs [--unix] resolve to one Net address (or
   none, for serve's default stdin mode). *)
let net_addr ~flag tcp unix_path =
  match (tcp, unix_path) with
  | Some _, Some _ ->
    Printf.eprintf "error: --%s and --unix are mutually exclusive\n" flag;
    exit 2
  | Some hp, None ->
    (match parse_host_port hp with
    | Some (h, p) -> Some (Net.Server.Tcp (h, p))
    | None ->
      Printf.eprintf "error: bad --%s %S (expected HOST:PORT)\n" flag hp;
      exit 2)
  | None, Some path -> Some (Net.Server.Unix_path path)
  | None, None -> None

let unix_sock_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Durable store directory: sessions are snapshotted and \
             write-ahead logged under it, stored sessions are recovered \
             at startup, and the snapshot/restore verbs work.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"PATH"
          ~doc:
            "Rewrite PATH (atomically, tmp + rename) with the Prometheus \
             text exposition on an interval and at EOF — \
             textfile-collector style.")
  in
  let metrics_interval =
    Arg.(
      value & opt int 10
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between --metrics-file rewrites (default 10).")
  in
  let request_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "request-log" ] ~docv:"PATH"
          ~doc:
            "Append one structured JSON line per finished request to PATH \
             (verb, session, outcome, latency, response bytes, serving \
             path, slow flag).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold in milliseconds: requests at or over it \
             are counted and flagged in the request log.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve over TCP instead of stdin/stdout (port 0 picks an \
             ephemeral port, printed to stderr).")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Workers executing requests (networked mode), one domain each; \
             worker 0 is the accept loop's domain, as an idle domain still \
             pays into every stop-the-world collection.  Reads run \
             concurrently across workers, mutations serialize.")
  in
  let max_conns =
    Arg.(
      value & opt int Net.Server.default_config.Net.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent connection limit; the excess connection gets one \
             in-band overloaded error and is closed.")
  in
  let queue_depth =
    Arg.(
      value & opt int Net.Server.default_config.Net.Server.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Global admission bound: requests executing at once across \
             all connections; past it requests are answered with \
             explicit overloaded errors, never buffered.")
  in
  let idle_timeout =
    Arg.(
      value & opt float Net.Server.default_config.Net.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close a connection idle (or dribbling a partial line) this \
             long.")
  in
  let max_line =
    Arg.(
      value & opt int Net.Server.default_config.Net.Server.max_line
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:
            "Request line length bound; longer lines are discarded and \
             answered bad_request without killing the connection.")
  in
  let replicate_listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "replicate-listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Stream the store to read replicas over TCP (port 0 picks an \
             ephemeral port, printed to stderr).  Requires --store; \
             followers connect with 'cxxlookup replica --follow'.")
  in
  let replicate_unix =
    Arg.(
      value
      & opt (some string) None
      & info [ "replicate-unix" ] ~docv:"PATH"
          ~doc:"Stream the store to read replicas on a Unix socket.")
  in
  let run config store_dir store_config metrics_file metrics_interval
      request_log slow_ms listen unix_path workers max_conns queue_depth
      idle_timeout max_line replicate_listen replicate_unix =
    let store =
      Option.map (fun dir -> Store.open_dir ~config:store_config dir) store_dir
    in
    let log = Option.map Service.Request_log.open_path request_log in
    let srv =
      Service.Server.create ~config ?store ?request_log:log ?slow_ms ()
    in
    (* SIGUSR1 dumps the flight recorder: the last requests, to stderr,
       without disturbing the serving loop *)
    (try
       Sys.set_signal Sys.sigusr1
         (Sys.Signal_handle (fun _ -> Service.Server.dump_flight srv stderr))
     with Invalid_argument _ | Sys_error _ -> ());
    if store <> None then print_recoveries (Service.Server.recover_sessions srv);
    let write_metrics () =
      match metrics_file with
      | None -> ()
      | Some path ->
        (try
           (* render under the server's observation mutex, then the
              usual atomic tmp + rename *)
           let body = Service.Server.render_metrics srv in
           let tmp = path ^ ".tmp" in
           Out_channel.with_open_bin tmp (fun oc ->
               Out_channel.output_string oc body);
           Sys.rename tmp path
         with Sys_error msg -> Printf.eprintf "metrics write failed: %s\n%!" msg)
    in
    (* the replication listener runs on its own thread whatever the
       front end mode — it ships store files, not requests *)
    let repl =
      match net_addr ~flag:"replicate-listen" replicate_listen replicate_unix
      with
      | None -> None
      | Some _ when store = None ->
        prerr_endline "error: --replicate-listen requires --store DIR";
        exit 2
      | Some raddr ->
        let r = Cluster.Repl.create srv raddr in
        Printf.eprintf "replicating on %s\n%!"
          (Net.Server.addr_string (Cluster.Repl.bound_addr r));
        Some (r, Thread.create Cluster.Repl.run r)
    in
    let stop_repl () =
      match repl with
      | None -> ()
      | Some (r, th) ->
        Cluster.Repl.stop r;
        Thread.join th
    in
    (match net_addr ~flag:"listen" listen unix_path with
    | Some addr ->
      let ncfg =
        { Net.Server.workers; max_conns; queue_depth; idle_timeout; max_line }
      in
      let net = Net.Server.create ~config:ncfg srv addr in
      (* signal handlers only set a flag; the accept loop polls it and
         the full teardown runs in [run]'s context *)
      let request_stop _ = Net.Server.stop net in
      (try
         Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
         Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
       with Invalid_argument _ | Sys_error _ -> ());
      Printf.eprintf "listening on %s (%d workers)\n%!"
        (Net.Server.addr_string (Net.Server.bound_addr net))
        workers;
      (match metrics_file with
      | None -> ()
      | Some _ ->
        (* no per-response hook in networked mode: a collector thread
           rewrites the textfile on the interval *)
        ignore
          (Thread.create
             (fun () ->
               while true do
                 Thread.delay (float_of_int (max 1 metrics_interval));
                 write_metrics ()
               done)
             ()));
      Net.Server.run net
    | None ->
      let last_write = ref (Unix.gettimeofday ()) in
      let after_response () =
        if metrics_file <> None then begin
          let now = Unix.gettimeofday () in
          if now -. !last_write >= float_of_int metrics_interval then begin
            last_write := now;
            write_metrics ()
          end
        end
      in
      Service.Server.serve ~after_response srv stdin stdout);
    stop_repl ();
    write_metrics ();
    (match log with None -> () | Some lg -> Service.Request_log.close lg);
    (match store with
    | None -> ()
    | Some st ->
      Store.sync st;
      Store.close st)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident lookup service: cxxlookup-rpc/1 requests as \
          JSON lines on stdin, responses on stdout (open, lookup, \
          batch_lookup, mutate, snapshot, restore, stats, metrics, \
          close).  Sessions keep a parsed hierarchy and one store of \
          compiled per-member verdict columns resident across \
          requests; after the first mutation an incremental engine \
          answers members that were not compiled before it.  With --store, sessions survive restarts: \
          every open writes a snapshot, every mutation appends to a \
          write-ahead log, and startup recovers whatever the store \
          holds.  Observability: --metrics-file exposes the Prometheus \
          registry, --request-log records one JSON line per request, \
          --slow-ms flags slow queries, and SIGUSR1 dumps the \
          flight recorder to stderr.  With --listen HOST:PORT or \
          --unix PATH the same protocol is served over the network: \
          --workers domains, the first shared with the accept loop \
          (reads concurrent, mutations single-writer), per-connection \
          pipelining with responses in request order, bounded admission \
          answering explicit overloaded errors, and idle/slowloris \
          timeouts.  With --replicate-listen (or --replicate-unix) and \
          --store, the node also streams per-session snapshots and the \
          WAL tail to read replicas.")
    Term.(const run $ service_config_term $ store_dir
          $ store_config_term $ metrics_file $ metrics_interval
          $ request_log $ slow_ms $ listen $ unix_sock_term $ workers
          $ max_conns $ queue_depth $ idle_timeout
          $ max_line $ replicate_listen $ replicate_unix)

let connect_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"TCP address of the server.")

let require_addr tcp unix_path =
  match net_addr ~flag:"connect" tcp unix_path with
  | Some addr -> addr
  | None ->
    prerr_endline "error: need --connect HOST:PORT or --unix PATH";
    exit 2

let retry_term =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Retry a refused connection — and, per request, an in-band \
           overloaded response (shed before execution, so resending is \
           safe) — up to N times with jittered exponential backoff.")

let backoff_term =
  Arg.(
    value & opt int 50
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:
          "Backoff seed: attempt k sleeps about MS * 2^k milliseconds, \
           +/-25% jitter.")

(* `client --binary`: re-encode eligible request lines (lookup,
   batch_lookup, mutate, symbols — every name resolvable through the
   session's interned-id tables, cpp semantics, integer id) as
   cxxlookup-rpc/1b frames; anything else falls back to the JSON line
   untouched, on the same connection — the listener negotiates per
   message.  Symbol tables cost one binary [symbols] round trip per
   session and stay current by applying the mutation deltas.  Decoded
   responses print as a compact JSON rendering (ids, verdict codes);
   error frames reuse the canonical error shape. *)
module Binary_client = struct
  module J = Chg.Json
  module P = Service.Protocol
  module Frame = Service.Frame

  type ids = {
    bi_cls : (string, int) Hashtbl.t;
    bi_mem : (string, int) Hashtbl.t;
    mutable bi_cls_names : string array;  (* class id -> name *)
  }

  let fetch cl ~session =
    let req =
      Frame.encode_request
        { Frame.fr_id = 0; fr_session = session; fr_op = Frame.Symbols }
    in
    match Net.Client.request_frame cl req with
    | None -> None
    | Some resp ->
      (match Frame.decode_response ~op:Frame.op_symbols resp with
      | Ok (_, Frame.Ok_symbols { os_classes; os_members; _ }) ->
        let bi_cls = Hashtbl.create (max 16 (Array.length os_classes)) in
        let bi_mem = Hashtbl.create (max 16 (Array.length os_members)) in
        Array.iteri (fun i n -> Hashtbl.replace bi_cls n i) os_classes;
        Array.iteri (fun i n -> Hashtbl.replace bi_mem n i) os_members;
        Some { bi_cls; bi_mem; bi_cls_names = os_classes }
      | _ -> None)

  let apply_member_delta ids =
    List.iter (fun (i, n) -> Hashtbl.replace ids.bi_mem n i)

  (* [translate ids rq] — the frame, its op byte, and a post-response
     hook keeping the id tables current; [None] = send the JSON line. *)
  let translate ids (rq : P.request) =
    match (rq.P.rq_session, rq.P.rq_id) with
    | Some session, J.Int id ->
      let mk op wire on_ok =
        Some
          ( Frame.encode_request
              { Frame.fr_id = id; fr_session = session; fr_op = op },
            wire,
            on_ok )
      in
      let nothing _ = () in
      let cls c = Hashtbl.find_opt ids.bi_cls c in
      let mem m = Hashtbl.find_opt ids.bi_mem m in
      (match rq.P.rq_op with
      | P.Symbols -> mk Frame.Symbols Frame.op_symbols nothing
      | P.Lookup { lk_query = q; lk_semantics = Mro.Cpp } ->
        (match (cls q.P.q_class, mem q.P.q_member) with
        | Some c, Some m ->
          mk (Frame.Lookup { lk_class = c; lk_member = m }) Frame.op_lookup
            nothing
        | _ -> None)
      | P.Batch_lookup { bl_queries; bl_semantics = Mro.Cpp } ->
        let rec map acc = function
          | [] -> Some (List.rev acc)
          | (q : P.query) :: rest ->
            (match (cls q.P.q_class, mem q.P.q_member) with
            | Some c, Some m -> map ((c, m) :: acc) rest
            | _ -> None)
        in
        Option.bind (map [] bl_queries) (fun pairs ->
            mk
              (Frame.Batch_lookup (Array.of_list pairs))
              Frame.op_batch_lookup nothing)
      | P.Mutate (P.Add_member { mm_class; mm_member }) ->
        Option.bind (cls mm_class) (fun c ->
            mk
              (Frame.Add_member { am_class = c; am_member = mm_member })
              Frame.op_add_member
              (function
                | Frame.Ok_add_member { oam_new_symbols; _ } ->
                  apply_member_delta ids oam_new_symbols
                | _ -> ()))
      | P.Mutate (P.Add_class { mc_name; mc_bases; mc_members }) ->
        mk
          (Frame.Add_class
             { ac_name = mc_name; ac_bases = mc_bases;
               ac_members = mc_members })
          Frame.op_add_class
          (function
            | Frame.Ok_add_class { oac_class; oac_new_symbols; _ } ->
              Hashtbl.replace ids.bi_cls mc_name oac_class;
              if oac_class = Array.length ids.bi_cls_names then
                ids.bi_cls_names <-
                  Array.append ids.bi_cls_names [| mc_name |];
              apply_member_delta ids oac_new_symbols
            | _ -> ())
      | _ -> None)
    | _ -> None

  let code_fields ids code =
    if code >= 0 then
      ("verdict", J.String "red")
      :: ("class_id", J.Int code)
      :: (if code < Array.length ids.bi_cls_names then
            [ ("class", J.String ids.bi_cls_names.(code)) ]
          else [])
    else if code = -2 then [ ("verdict", J.String "blue") ]
    else [ ("verdict", J.String "none") ]

  let delta_json d = J.Obj (List.map (fun (i, n) -> (n, J.Int i)) d)

  let strings a = J.List (Array.to_list (Array.map (fun s -> J.String s) a))

  let render ids id r =
    let ok fields = J.Obj (("id", J.Int id) :: ("ok", J.Bool true) :: fields) in
    match r with
    | Frame.Err (code, msg) -> P.error_response ~id:(J.Int id) code msg
    | Frame.Ok_lookup code -> ok (code_fields ids code)
    | Frame.Ok_batch { ob_codes; ob_resolved; ob_ambiguous; ob_not_found } ->
      ok
        [ ( "codes",
            J.List (Array.to_list (Array.map (fun c -> J.Int c) ob_codes)) );
          ("resolved", J.Int ob_resolved);
          ("ambiguous", J.Int ob_ambiguous);
          ("not_found", J.Int ob_not_found) ]
    | Frame.Ok_add_member
        { oam_member; oam_rows; oam_invalidated; oam_epoch; oam_new_symbols }
      ->
      ok
        [ ("member_id", J.Int oam_member);
          ("rows_recomputed", J.Int oam_rows);
          ("table_invalidated", J.Bool oam_invalidated);
          ("epoch", J.Int oam_epoch);
          ("new_symbols", delta_json oam_new_symbols) ]
    | Frame.Ok_add_class { oac_class; oac_classes; oac_epoch; oac_new_symbols }
      ->
      ok
        [ ("class_id", J.Int oac_class);
          ("classes", J.Int oac_classes);
          ("epoch", J.Int oac_epoch);
          ("new_symbols", delta_json oac_new_symbols) ]
    | Frame.Ok_symbols { os_epoch; os_classes; os_members } ->
      ok
        [ ("epoch", J.Int os_epoch);
          ("classes", strings os_classes);
          ("members", strings os_members) ]
end

let client_cmd =
  let pipeline =
    Arg.(
      value & flag
      & info [ "pipeline" ]
          ~doc:
            "Send every request before reading any response (responses \
             still arrive in request order) instead of one round trip \
             per line.")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:
            "Re-encode eligible lines (lookup, batch_lookup, mutate, \
             symbols with names known to the session) as \
             cxxlookup-rpc/1b binary frames with interned ids; other \
             lines are sent as JSON on the same connection.  Responses \
             print as a compact JSON rendering.  Incompatible with \
             --pipeline.")
  in
  let run tcp unix_path pipeline binary retry backoff_ms =
    if pipeline && binary then begin
      prerr_endline "error: --binary cannot be combined with --pipeline";
      exit 2
    end;
    let addr = require_addr tcp unix_path in
    let cl = Net.Client.connect ~retries:retry ~backoff_ms addr in
    let lines =
      In_channel.input_lines stdin
      |> List.filter (fun l -> String.trim l <> "")
    in
    let failed = ref false in
    let handle = function
      | Some resp ->
        print_endline resp;
        if not (match Chg.Json.of_string resp with
               | Ok j -> response_ok j
               | Error _ -> false)
        then failed := true
      | None ->
        prerr_endline "error: server closed the connection";
        failed := true
    in
    let sessions : (string, Binary_client.ids) Hashtbl.t =
      Hashtbl.create 4
    in
    let ids_for session =
      match Hashtbl.find_opt sessions session with
      | Some _ as ids -> ids
      | None ->
        (match Binary_client.fetch cl ~session with
        | Some ids -> Hashtbl.add sessions session ids; Some ids
        | None -> None)
    in
    (* the binary path for one line, [false] = not translatable (unknown
       names, non-integer id, no session, verb without a binary form) —
       the caller sends the JSON line instead *)
    let try_binary l =
      match Service.Protocol.parse_request l with
      | Error _ -> false
      | Ok rq ->
        let ids =
          match rq.Service.Protocol.rq_session with
          | Some s -> ids_for s
          | None -> None
        in
        (match ids with
        | None -> false
        | Some ids ->
          (match Binary_client.translate ids rq with
          | None -> false
          | Some (frame, op, on_ok) ->
            (match
               Net.Client.request_frame_admitted ~retries:retry ~backoff_ms
                 cl frame
             with
            | None ->
              prerr_endline "error: server closed the connection";
              failed := true
            | Some resp ->
              (match Service.Frame.decode_response ~op resp with
              | Error msg ->
                Printf.eprintf "error: bad response frame: %s\n" msg;
                failed := true
              | Ok (id, r) ->
                on_ok r;
                let j = Binary_client.render ids id r in
                print_endline (Chg.Json.to_string j);
                if not (response_ok j) then failed := true));
            true))
    in
    if pipeline then begin
      List.iter (Net.Client.send_line cl) lines;
      List.iter (fun _ -> handle (Net.Client.recv_line cl)) lines
    end
    else
      List.iter
        (fun l ->
          if not (binary && try_binary l) then
            handle
              (Net.Client.request_admitted ~retries:retry ~backoff_ms cl l))
        lines;
    Net.Client.close cl;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send cxxlookup-rpc/1 JSON lines from stdin to a networked \
          server (--connect HOST:PORT or --unix PATH) and print the \
          responses to stdout.  Exits non-zero if any response is an \
          in-band error or the server closes early — the smoke-test \
          counterpart of piping the same lines into 'cxxlookup serve'.  \
          --retry adds jittered exponential backoff on refused \
          connections and (per request, outside --pipeline) overloaded \
          responses.  --binary drives eligible verbs over the \
          cxxlookup-rpc/1b framing with interned ids.")
    Term.(const run $ connect_term $ unix_sock_term $ pipeline $ binary
          $ retry_term $ backoff_term)

let loadgen_cmd =
  let conns =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let qps =
    Arg.(
      value & opt float 0.
      & info [ "qps" ] ~docv:"QPS"
          ~doc:
            "Aggregate target rate for the open-loop \
             (coordinated-omission-safe) schedule; 0 = closed-loop \
             saturation mode.")
  in
  let duration =
    Arg.(
      value & opt float 2.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Measurement window.")
  in
  let mix =
    Arg.(
      value & opt string "lookup=9,batch_lookup=1"
      & info [ "mix" ] ~docv:"VERB=W,.."
          ~doc:
            "Weighted query mix over the read verbs lookup, \
             batch_lookup, stats, lint.")
  in
  let batch_size =
    Arg.(
      value & opt int 8
      & info [ "batch-size" ] ~docv:"N"
          ~doc:"Queries per batch_lookup request.")
  in
  let warmup =
    Arg.(
      value & opt int 3
      & info [ "warmup" ] ~docv:"ROUNDS"
          ~doc:
            "Serial passes over every query before measuring (the first \
             compiles every queried member's column).")
  in
  let session =
    Arg.(
      value & opt string "loadgen"
      & info [ "session" ] ~docv:"NAME" ~doc:"Session name to open.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable report.")
  in
  let binary_flag =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:
            "Drive lookup, batch_lookup and mutate over the \
             cxxlookup-rpc/1b binary framing with interned ids (one \
             symbols round trip per connection); stats and lint stay \
             JSON lines on the same socket.")
  in
  let parse_mix s =
    String.split_on_char ',' s
    |> List.filter (fun part -> String.trim part <> "")
    |> List.map (fun part ->
           match String.index_opt part '=' with
           | None -> (String.trim part, 1)
           | Some i ->
             let v = String.trim (String.sub part 0 i) in
             let w =
               String.sub part (i + 1) (String.length part - i - 1)
               |> String.trim |> int_of_string_opt
             in
             (match w with
             | Some w when w >= 0 -> (v, w)
             | _ ->
               Printf.eprintf "error: bad mix weight in %S\n" part;
               exit 2))
  in
  let run tcp unix_path file conns qps duration mix batch_size warmup
      session json_flag binary =
    let addr = require_addr tcp unix_path in
    let source = read_file file in
    let r = Frontend.Sema.analyze_source source in
    if not (Frontend.Sema.ok r) then begin
      List.iter
        (fun d -> prerr_endline (Frontend.Diagnostic.to_string d))
        r.Frontend.Sema.diagnostics;
      exit 1
    end;
    let g = r.Frontend.Sema.graph in
    let classes = ref [] in
    G.iter_classes g (fun c -> classes := G.name g c :: !classes);
    let queries =
      List.concat_map
        (fun cls -> List.map (fun m -> (cls, m)) (G.member_names g))
        (List.rev !classes)
      |> Array.of_list
    in
    if Array.length queries = 0 then begin
      prerr_endline "error: hierarchy has no (class, member) queries";
      exit 1
    end;
    (* setup connection: open the session, then warm the table cache so
       the measured stream runs against compiled columns *)
    let setup = Net.Client.connect addr in
    let expect what = function
      | Some resp when
          (match Chg.Json.of_string resp with
          | Ok j -> response_ok j
          | Error _ -> false) -> ()
      | Some resp ->
        Printf.eprintf "error: %s failed: %s\n" what resp;
        exit 1
      | None ->
        Printf.eprintf "error: server closed during %s\n" what;
        exit 1
    in
    expect "open"
      (Net.Client.request setup
         (Chg.Json.to_string
            (Chg.Json.Obj
               [ ("id", Chg.Json.Int 0); ("op", Chg.Json.String "open");
                 ("session", Chg.Json.String session);
                 ("source", Chg.Json.String source) ])));
    for round = 1 to warmup do
      Array.iter
        (fun (c, m) ->
          expect
            (Printf.sprintf "warmup round %d" round)
            (Net.Client.request setup
               (Chg.Json.to_string
                  (Chg.Json.Obj
                     [ ("id", Chg.Json.Int 0);
                       ("op", Chg.Json.String "lookup");
                       ("session", Chg.Json.String session);
                       ("class", Chg.Json.String c);
                       ("member", Chg.Json.String m) ]))))
        queries
    done;
    let cfg =
      { Net.Loadgen.conns; qps; duration; mix = parse_mix mix; batch_size;
        binary }
    in
    let report = Net.Loadgen.run addr cfg ~session ~queries in
    Net.Client.close setup;
    if json_flag then
      print_endline (Chg.Json.to_string (Net.Loadgen.report_json report))
    else begin
      Printf.printf "sent %d, answered %d, errors %d in %.2fs (%s)\n"
        report.Net.Loadgen.sent report.Net.Loadgen.answered
        report.Net.Loadgen.errors report.Net.Loadgen.elapsed
        (if qps > 0. then Printf.sprintf "open loop, target %.0f qps" qps
         else "closed loop");
      Printf.printf "throughput: %.0f responses/s\n"
        report.Net.Loadgen.achieved_qps;
      List.iter
        (fun (k, v) ->
          Printf.printf "latency %-5s %10d ns (%.3f ms)\n" k v
            (float_of_int v /. 1e6))
        (Telemetry.Histogram.percentile_fields report.Net.Loadgen.hist)
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Generate load against a networked cxxlookup server: open a \
          session from FILE, warm its compiled tables, then drive \
          --conns connections for --duration seconds — open-loop at \
          --qps with a coordinated-omission-safe schedule (latency \
          measured from the scheduled send time), or closed-loop \
          saturation when --qps is 0 — and report p50/p90/p99/p999 \
          latency plus achieved throughput.  --binary drives the hot \
          verbs over the cxxlookup-rpc/1b framing with interned ids.")
    Term.(const run $ connect_term $ unix_sock_term $ file_arg $ conns
          $ qps $ duration $ mix $ batch_size $ warmup $ session
          $ json_flag $ binary_flag)

(* -- the cluster roles: replica & router ----------------------------- *)

let replica_cmd =
  let follow =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"HOST:PORT"
          ~doc:"The leader's replication listener (--replicate-listen).")
  in
  let follow_unix =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow-unix" ] ~docv:"PATH"
          ~doc:"The leader's replication Unix socket (--replicate-unix).")
  in
  let store_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "The replica's own store directory: streamed state is \
             persisted here, so a restarted replica recovers locally and \
             offers its epochs back to the leader instead of \
             re-bootstrapping.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve read-only cxxlookup-rpc/1 over TCP (port 0 picks an \
             ephemeral port, printed to stderr).")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing read verbs; worker 0 shares the accept loop's.")
  in
  let run config store_config follow follow_unix store_dir listen unix_path
      workers backoff_ms =
    let leader =
      match net_addr ~flag:"follow" follow follow_unix with
      | Some a -> a
      | None ->
        prerr_endline "error: need --follow HOST:PORT or --follow-unix PATH";
        exit 2
    in
    let addr =
      match net_addr ~flag:"listen" listen unix_path with
      | Some a -> a
      | None ->
        prerr_endline "error: need --listen HOST:PORT or --unix PATH";
        exit 2
    in
    let store = Store.open_dir ~config:store_config store_dir in
    let srv =
      Service.Server.create ~role:Service.Server.Follower ~config ~store ()
    in
    print_recoveries (Service.Server.recover_sessions srv);
    let ncfg = { Net.Server.default_config with Net.Server.workers } in
    let net = Net.Server.create ~config:ncfg srv addr in
    let rep =
      Cluster.Replica.create
        ~excl:{ Cluster.Replica.excl = (fun f -> Net.Server.exclusively net f) }
        ~backoff_ms srv leader
    in
    let request_stop _ =
      Net.Server.stop net;
      Cluster.Replica.stop rep
    in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
     with Invalid_argument _ | Sys_error _ -> ());
    Printf.eprintf "replica listening on %s, following %s\n%!"
      (Net.Server.addr_string (Net.Server.bound_addr net))
      (Net.Server.addr_string leader);
    let th = Thread.create Cluster.Replica.run rep in
    Net.Server.run net;
    Cluster.Replica.stop rep;
    Thread.join th;
    Store.sync store;
    Store.close store
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:
         "Run a WAL-shipping read replica: follow a leader's replication \
          stream (--follow), apply its snapshots and WAL records into a \
          local store (--store), and serve the read verbs (lookup, \
          batch_lookup, lint, stats, metrics) on --listen or --unix.  \
          Mutations are answered not_leader.  Recovery is reconnection: \
          after a crash or restart the replica recovers from its own \
          store and offers the leader what it already holds.")
    Term.(const run $ service_config_term $ store_config_term $ follow
          $ follow_unix $ store_dir $ listen $ unix_sock_term $ workers
          $ backoff_term)

let router_cmd =
  let backends =
    Arg.(
      value & opt_all string []
      & info [ "backend" ] ~docv:"ADDR"
          ~doc:
            "A backend address (HOST:PORT, or unix:PATH), repeatable.  \
             The first backend is the leader unless --leader points \
             elsewhere.")
  in
  let leader =
    Arg.(
      value & opt int 0
      & info [ "leader" ] ~docv:"INDEX"
          ~doc:
            "Which --backend (0-based) is the leader: mutations are \
             forwarded there, everything else is rendezvous-hashed over \
             all backends.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Front-end address (port 0 picks an ephemeral port, printed \
             to stderr).")
  in
  let parse_backend s =
    if String.length s > 5 && String.sub s 0 5 = "unix:" then
      Net.Server.Unix_path (String.sub s 5 (String.length s - 5))
    else
      match parse_host_port s with
      | Some (h, p) -> Net.Server.Tcp (h, p)
      | None ->
        Printf.eprintf
          "error: bad --backend %S (expected HOST:PORT or unix:PATH)\n" s;
        exit 2
  in
  let run backends leader listen unix_path retries backoff_ms =
    if backends = [] then begin
      prerr_endline "error: need at least one --backend";
      exit 2
    end;
    if leader < 0 || leader >= List.length backends then begin
      prerr_endline "error: --leader must index one of the --backend list";
      exit 2
    end;
    let addr =
      match net_addr ~flag:"listen" listen unix_path with
      | Some a -> a
      | None ->
        prerr_endline "error: need --listen HOST:PORT or --unix PATH";
        exit 2
    in
    let rt =
      Cluster.Router.create
        ~config:{ Cluster.Router.default_config with retries; backoff_ms }
        ~leader
        (List.map parse_backend backends)
        addr
    in
    let request_stop _ = Cluster.Router.stop rt in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
     with Invalid_argument _ | Sys_error _ -> ());
    Printf.eprintf "routing on %s over %d backends (leader %d)\n%!"
      (Net.Server.addr_string (Cluster.Router.bound_addr rt))
      (List.length backends) leader;
    Cluster.Router.run rt
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Run the shard router: accept cxxlookup-rpc/1 on --listen or \
          --unix and spread it over the --backend list — reads \
          rendezvous-hashed by session with failover (a batch_lookup \
          is one read), mutations forwarded to the leader at most \
          once, and explicit backend_unavailable \
          (never a silently wrong answer) when no backend can serve.  \
          The router's own metrics verb reports per-backend health \
          gauges, round-trip histograms and routing counters.")
    Term.(const run $ backends $ leader $ listen $ unix_sock_term
          $ retry_term $ backoff_term)

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STORE_DIR" ~doc:"Durable store directory.")

let store_sessions_arg =
  Arg.(
    value
    & pos_right 0 string []
    & info [] ~docv:"SESSION" ~doc:"Session names (default: all stored).")

let snapshot_cmd =
  let run store_config dir sessions =
    let store = Store.open_dir ~config:store_config dir in
    let srv = Service.Server.create ~store () in
    print_recoveries (Service.Server.recover_sessions srv);
    let names = match sessions with [] -> Store.sessions store | l -> l in
    if names = [] then begin
      prerr_endline "error: the store holds no sessions";
      exit 1
    end;
    let failed = ref false in
    List.iter
      (fun name ->
        let resp =
          Service.Server.handle_request srv
            { Service.Protocol.rq_id = Chg.Json.String name;
              rq_session = Some name;
              rq_op = Service.Protocol.Snapshot }
        in
        print_endline (Chg.Json.to_string resp);
        if not (response_ok resp) then failed := true)
      names;
    Store.close store;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Compact stored sessions offline: recover each SESSION from \
          STORE_DIR (newest snapshot + WAL replay) and write it back as a \
          fresh snapshot, resetting its WAL.")
    Term.(const run $ store_config_term $ store_dir_arg $ store_sessions_arg)

let restore_cmd =
  let run store_config dir sessions =
    let store = Store.open_dir ~config:store_config dir in
    let srv = Service.Server.create ~store () in
    let names = match sessions with [] -> Store.sessions store | l -> l in
    if names = [] then begin
      prerr_endline "error: the store holds no sessions";
      exit 1
    end;
    let failed = ref false in
    List.iter
      (fun name ->
        let resp =
          Service.Server.handle_request srv
            { Service.Protocol.rq_id = Chg.Json.String name;
              rq_session = Some name;
              rq_op = Service.Protocol.Restore }
        in
        print_endline (Chg.Json.to_string resp);
        if not (response_ok resp) then failed := true)
      names;
    Store.close store;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Recover stored sessions and report what came back: for each \
          SESSION in STORE_DIR, print the restore response (epoch, \
          classes, WAL records replayed, torn-tail flag).  Exits non-zero \
          if any session fails to restore.")
    Term.(const run $ store_config_term $ store_dir_arg $ store_sessions_arg)

let batch_cmd =
  let queries_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERIES.jsonl"
          ~doc:"Query stream ('-' for stdin): one JSON object per line.")
  in
  let run config file queries semantics =
    let srv = Service.Server.create ~config () in
    let text = read_file file in
    let hierarchy =
      if Filename.check_suffix file ".json" then begin
        match Chg.Json.read_string Chg.Serialize.read text with
        | Ok chg -> Service.Protocol.Chg_json chg
        | Error e ->
          prerr_endline ("error: " ^ e);
          exit 1
      end
      else Service.Protocol.Source text
    in
    (* in-band failures (ok:false responses, per-query errors inside a
       batch_lookup result) surface in the exit code *)
    let saw_error = ref false in
    let response_has_error j =
      (not (response_ok j))
      ||
      match Chg.Json.member "results" j with
      | Ok (Chg.Json.List rs) ->
        List.exists
          (fun r -> Result.is_ok (Chg.Json.member "error" r))
          rs
      | _ -> false
    in
    let print_response j =
      if response_has_error j then saw_error := true;
      print_endline (Chg.Json.to_string j)
    in
    print_response
      (Service.Server.handle_request srv
         { Service.Protocol.rq_id = Chg.Json.String "open";
           rq_session = None;
           rq_op =
             Service.Protocol.Open
               { o_session = Some "s0"; o_hierarchy = hierarchy } });
    let with_defaults n j =
      match j with
      | Chg.Json.Obj fields ->
        let add k v fs =
          if List.mem_assoc k fs then fs else fs @ [ (k, v) ]
        in
        let with_semantics fs =
          match semantics with
          | Mro.Cpp -> fs
          | Mro.Linearized _ ->
            add "semantics"
              (Chg.Json.String (Mro.semantics_string semantics))
              fs
        in
        Chg.Json.Obj
          (fields
           |> add "id" (Chg.Json.String (Printf.sprintf "q%d" n))
           |> add "op" (Chg.Json.String "lookup")
           |> add "session" (Chg.Json.String "s0")
           |> with_semantics)
      | other -> other
    in
    let ic = if queries = "-" then stdin else open_in queries in
    Fun.protect
      ~finally:(fun () -> if queries <> "-" then close_in ic)
      (fun () ->
        let n = ref 0 in
        let rec loop () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
            if String.trim line <> "" then begin
              let resp =
                match Chg.Json.of_string line with
                | Ok j ->
                  Service.Server.handle_line srv
                    (Chg.Json.to_string (with_defaults !n j))
                | Error msg ->
                  Service.Protocol.error_response ~id:Chg.Json.Null
                    Service.Protocol.Parse_error msg
              in
              incr n;
              print_response resp
            end;
            loop ()
        in
        loop ());
    print_response
      (Service.Server.handle_request srv
         { Service.Protocol.rq_id = Chg.Json.String "stats";
           rq_session = Some "s0";
           rq_op = Service.Protocol.Stats });
    if !saw_error then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "One-shot replay: open FILE as a session, answer every query of \
          QUERIES.jsonl through the service (missing id/op/session fields \
          default to a lookup against the file's session; under \
          $(b,--semantics) every query without its own semantics field \
          runs under that MRO), then report the session's stats.  Exits \
          non-zero when any response carries an in-band error.")
    Term.(const run $ service_config_term $ file_arg $ queries_arg
          $ semantics_arg)

let lint_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: pretty $(b,text), JSON lines ($(b,json), one \
             object per finding), or $(b,sarif) 2.1.0.")
  in
  let rules_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"LIST"
          ~doc:
            "Comma-separated rule ids to run.  The classic six run by \
             default: ambiguous-lookup, replicated-base, \
             fragile-dominance, dead-member, virtualize-fix-it, \
             compiler-divergence.  Opt-in cross-semantics rules: \
             mro-unsolvable, semantics-divergence, \
             linearization-sensitive.  The tokens $(b,default) and \
             $(b,all) expand to the classic six and to every rule.")
  in
  let fail_on_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("error", `Error); ("warning", `Warning); ("note", `Note);
               ("never", `Never) ])
          `Error
      & info [ "fail-on" ] ~docv:"SEV"
          ~doc:
            "Exit non-zero when a finding at or above this severity exists \
             ($(b,note) < $(b,warning) < $(b,error); $(b,never) always \
             exits 0).")
  in
  let run file format rules fail_on semantics jobs =
    (* Tolerant load: ambiguous or ill-formed member accesses are the
       linter's subject matter, not a reason to stop.  Only a hierarchy
       we could not build at all is fatal. *)
    let r = load ~tolerant:true file in
    if G.num_classes r.graph = 0 && not (Frontend.Sema.ok r) then exit 2;
    let rules =
      match rules with
      | None -> Lint.Rule.default_rules
      | Some s ->
        (match Lint.parse_rules s with
        | Ok rs -> rs
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2)
    in
    let config = { Lint.default_config with rules } in
    let locs ~cls ~member = Frontend.Locs.locate r.locs ~cls ~member in
    let findings =
      Lint.run ~config ~semantics ~locs ~jobs:(resolve_jobs jobs)
        (Chg.Closure.compute r.graph)
    in
    (match format with
    | `Text -> Format.printf "%a@?" (Lint.pp_text ~file) findings
    | `Json ->
      List.iter
        (fun f ->
          print_endline (Chg.Json.to_string (Lint.finding_json ~file f)))
        findings
    | `Sarif -> print_endline (Lint.Sarif.to_string ~file findings));
    let threshold =
      match fail_on with
      | `Never -> max_int
      | `Note -> Frontend.Diagnostic.severity_rank Frontend.Diagnostic.Note
      | `Warning ->
        Frontend.Diagnostic.severity_rank Frontend.Diagnostic.Warning
      | `Error -> Frontend.Diagnostic.severity_rank Frontend.Diagnostic.Error
    in
    match Lint.max_severity findings with
    | Some s when Frontend.Diagnostic.severity_rank s >= threshold -> exit 1
    | Some _ | None -> ()
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the hierarchy linter over FILE: ambiguity, replicated \
          bases, fragile dominance, dead members, virtualization fix-its, \
          and compiler-divergence checks against the g++ 2.7 and Eiffel \
          baselines.  Opt-in cross-semantics rules ($(b,--rules all)) \
          compare the C++ verdicts against the C3, Python-2.2 and Dylan \
          MROs.")
    Term.(const run $ file_arg $ format_arg $ rules_arg $ fail_on_arg
          $ semantics_arg $ jobs_term)

let mro_cmd =
  let variant_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("c3", Mro.C3); ("py22", Mro.Py22); ("dylan", Mro.Dylan) ])
          Mro.C3
      & info [ "semantics" ] ~docv:"SEM"
          ~doc:
            "Linearization to compute: $(b,c3) (the default), $(b,py22) \
             or $(b,dylan).")
  in
  let run file cls variant =
    let r = load file in
    let c = find_class r.graph cls in
    let t = Mro.compute variant r.graph in
    let lin = Mro.linearization t c in
    Format.printf "%s(%s): %a@." (Mro.variant_string variant) cls
      (Mro.pp_result r.graph) lin;
    if Result.is_error lin then exit 1
  in
  Cmd.v
    (Cmd.info "mro"
       ~doc:
         "Print CLASS's method resolution order under a linearized \
          semantics, or the precedence cycle that makes it unsolvable \
          (exit 1).")
    Term.(const run $ file_arg $ class_arg 1 $ variant_arg)

let () =
  let doc = "C++ member lookup (Ramalingam & Srinivasan, PLDI 1997)" in
  let version =
    Printf.sprintf "cxxlookup 1.0.0 (protocol %s)" Service.Protocol.version
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "cxxlookup" ~version ~doc)
          [ check_cmd; lookup_cmd; table_cmd; dot_cmd; layout_cmd; vtable_cmd;
            slice_cmd; export_cmd; import_cmd; run_cmd; audit_cmd; count_cmd;
            stats_cmd; trace_cmd; lint_cmd; mro_cmd; metrics_cmd;
            check_metrics_cmd;
            serve_cmd; client_cmd; loadgen_cmd; batch_cmd; snapshot_cmd;
            restore_cmd; replica_cmd; router_cmd ]))
