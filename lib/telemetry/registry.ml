(* A named metric registry: the single place every subsystem (server,
   sessions, table caches, the store, the packed compiler) registers
   its counters, gauges and histograms, and the single source the
   Prometheus renderer and the `metrics` verb scrape.

   Series are keyed by (metric name, label set); registering the same
   key twice returns the existing instrument, and the instrument is
   built only when its key is new, so a repeated registration allocates
   nothing beyond its key.  Hot paths still resolve their handles once
   and keep them (see [Server.observe]).  Gauges are pull-based
   callbacks, sampled at [collect] time — byte budgets and open-session
   counts read their live value instead of being pushed on every
   change. *)

type labels = (string * string) list

type instrument =
  | Counter of Counter.t
  | Gauge of (unit -> int)
  | Histogram of Histogram.t

type series = {
  s_name : string;
  s_help : string;
  s_labels : labels;
  s_instrument : instrument;
}

type t = {
  table : (string, series) Hashtbl.t;  (* key: name + rendered labels *)
  lock : Mutex.t;
      (* guards [table]: find-or-create runs from any worker domain,
         concurrently with scrapes *)
}

let create () = { table = Hashtbl.create 64; lock = Mutex.create () }

let valid_name n =
  n <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n
  && (match n.[0] with '0' .. '9' -> false | _ -> true)

let valid_label_name n =
  (* label names are stricter than metric names: no ':' (reserved for
     recording rules), and no "__" prefix (reserved by Prometheus) *)
  valid_name n
  && (not (String.contains n ':'))
  && not (String.length n >= 2 && String.sub n 0 2 = "__")

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

(* [make] runs only when [k] is absent (or [replace] is set): a
   histogram is a few hundred words of buckets, so building one per
   probe would put every hit on the major heap. *)
let register ?(replace = false) t ~name ~help ~labels make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Registry: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Registry: invalid label name %S" k))
    labels;
  let labels = canon_labels labels in
  let k = key name labels in
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.table k with
  | Some existing when not replace -> existing.s_instrument
  | _ ->
    let instrument = make () in
    let s = { s_name = name; s_help = help; s_labels = labels;
              s_instrument = instrument }
    in
    (* attaching under a live key supersedes the old series — the
       reopened-session path, where a fresh session reuses the name
       (and hence the label set) of a closed one *)
    Hashtbl.replace t.table k s;
    instrument

let counter t ?(help = "") ?(labels = []) name =
  match
    register t ~name ~help ~labels (fun () -> Counter (Counter.make name))
  with
  | Counter c -> c
  | _ -> invalid_arg (name ^ " is already registered as a non-counter")

let attach_counter t ?(help = "") ?(labels = []) name c =
  ignore (register ~replace:true t ~name ~help ~labels (fun () -> Counter c))

let gauge t ?(help = "") ?(labels = []) name read =
  ignore (register ~replace:true t ~name ~help ~labels (fun () -> Gauge read))

let histogram t ?(help = "") ?(labels = []) name =
  match
    register t ~name ~help ~labels (fun () -> Histogram (Histogram.create ()))
  with
  | Histogram h -> h
  | _ -> invalid_arg (name ^ " is already registered as a non-histogram")

let attach_histogram t ?(help = "") ?(labels = []) name h =
  ignore
    (register ~replace:true t ~name ~help ~labels (fun () -> Histogram h))

(* Every registered series, grouped by metric name; groups ordered by
   name, series within a group by label set — a deterministic scrape
   order, so two renders of the same state are byte-identical. *)
let collect t =
  let all =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun _ s acc -> s :: acc) t.table [])
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare a.s_name b.s_name with
        | 0 -> compare a.s_labels b.s_labels
        | c -> c)
      all
  in
  let rec group = function
    | [] -> []
    | s :: rest ->
      let same, others =
        List.partition (fun s' -> s'.s_name = s.s_name) rest
      in
      (s.s_name, s :: same) :: group others
  in
  group sorted

let find_values t name =
  collect t
  |> List.concat_map (fun (n, ss) -> if n = name then ss else [])
  |> List.filter_map (fun s ->
         match s.s_instrument with
         | Counter c -> Some (s.s_labels, Counter.value c)
         | Gauge read -> Some (s.s_labels, read ())
         | Histogram _ -> None)
