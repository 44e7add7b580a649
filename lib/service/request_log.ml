module J = Chg.Json

(* One observed request, as the server saw it finish.  The same record
   feeds both outputs: the durable JSON-lines request log and the
   in-memory flight recorder that is dumped on internal errors and on
   SIGUSR1. *)
type entry = {
  e_seq : int;  (* 1-based arrival order within this server *)
  e_conn : int option;  (* connection id under the networked server *)
  e_verb : string;  (* op name, or "invalid" for rejected lines *)
  e_session : string option;
  e_id : J.t;  (* the request's echoed id *)
  e_outcome : string;  (* "ok" or the error code *)
  e_latency_ns : int;
  e_bytes : int;  (* encoded response bytes; 0 when the log is disabled *)
  e_via : string option;  (* lookup serving path: "table" / "memo" / "mro" *)
  e_slow : bool;  (* latency crossed the --slow-ms threshold *)
}

let entry_json e =
  J.Obj
    (("seq", J.Int e.e_seq)
     :: ((match e.e_conn with
         | Some c -> [ ("conn", J.Int c) ]
         | None -> [])
        @ [ ("verb", J.String e.e_verb) ]
        @ (match e.e_session with
          | Some s -> [ ("session", J.String s) ]
          | None -> []))
     @ ("id", e.e_id)
       :: ("outcome", J.String e.e_outcome)
       :: ("latency_ns", J.Int e.e_latency_ns)
       :: ("bytes", J.Int e.e_bytes)
       :: (match e.e_via with
          | Some v -> [ ("via", J.String v) ]
          | None -> [])
     @ if e.e_slow then [ ("slow", J.Bool true) ] else [])

(* ---- the durable log ----------------------------------------------- *)

type t = { oc : out_channel; owned : bool }

let open_path path =
  { oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path;
    owned = true }

let of_channel oc = { oc; owned = false }

(* One line per request, flushed — the log must survive the very crash
   it exists to explain. *)
let log t e =
  output_string t.oc (J.to_string (entry_json e));
  output_char t.oc '\n';
  flush t.oc

let close t = if t.owned then close_out t.oc else flush t.oc

(* ---- the flight recorder ------------------------------------------- *)

type recorder = entry Telemetry.Ring.t

let default_flight_capacity = 64

let dump (r : recorder) oc =
  Printf.fprintf oc
    "--- cxxlookup flight recorder: last %d of %d requests ---\n"
    (Telemetry.Ring.length r) (Telemetry.Ring.pushed r);
  List.iter
    (fun e ->
      output_string oc (J.to_string (entry_json e));
      output_char oc '\n')
    (Telemetry.Ring.to_list r);
  Printf.fprintf oc "--- end flight recorder ---\n";
  flush oc
