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

(* ---- the flight recorder -------------------------------------------

   One column per field, allocated once.  A push writes ints, the
   static strings the server names verbs, outcomes and serving paths
   with, and a session name the server already holds — nothing made for
   the request it records — so a minor collection has nothing of the
   recorder's to promote.  Which optional fields a slot has is a set of
   bits.  Each slot carries a stamp: its push number, 1-based, or 0
   while it is written.  A push clears the stamp, writes the fields,
   then sets the stamp; a dump keeps a slot only if its stamp is the
   push it expects both before and after reading it, so a dump that
   interrupts a push (SIGUSR1) or runs beside one (another domain's
   internal error) never prints a slot that mixes two requests. *)

let has_conn = 1
let has_session = 2
let has_via = 4
let int_id = 8  (* the id is [J.Int id_ints.(i)] *)
let is_slow = 16

type recorder = {
  stamps : int Atomic.t array;
  pushes : int Atomic.t;  (* total pushes ever *)
  flags : int array;
  seqs : int array;
  conns : int array;
  verbs : string array;
  sessions : string array;
  ids : J.t array;  (* an id that is not an int *)
  id_ints : int array;
  outcomes : string array;
  latencies : int array;
  bytes : int array;
  vias : string array;
}

let default_flight_capacity = 64

let recorder capacity =
  if capacity < 1 then invalid_arg "Request_log.recorder: capacity must be >= 1";
  let ints () = Array.make capacity 0 and strings () = Array.make capacity "" in
  { stamps = Array.init capacity (fun _ -> Atomic.make 0);
    pushes = Atomic.make 0;
    flags = ints ();
    seqs = ints ();
    conns = ints ();
    verbs = strings ();
    sessions = strings ();
    ids = Array.make capacity J.Null;
    id_ints = ints ();
    outcomes = strings ();
    latencies = ints ();
    bytes = ints ();
    vias = strings () }

let pushed r = Atomic.get r.pushes

let bit b = function Some _ -> b | None -> 0

(* Pushes are serialized by the caller. *)
let push r ~seq ~conn ~verb ~session ~id ~outcome ~latency_ns ~bytes ~via
    ~slow =
  let k = Atomic.get r.pushes in
  let i = k mod Array.length r.seqs in
  Atomic.set r.stamps.(i) 0;
  r.seqs.(i) <- seq;
  r.conns.(i) <- Option.value conn ~default:0;
  r.verbs.(i) <- verb;
  r.sessions.(i) <- Option.value session ~default:"";
  (match id with
  | J.Int n -> r.id_ints.(i) <- n
  | id -> r.ids.(i) <- id);
  r.outcomes.(i) <- outcome;
  r.latencies.(i) <- latency_ns;
  r.bytes.(i) <- bytes;
  r.vias.(i) <- Option.value via ~default:"";
  r.flags.(i) <-
    bit has_conn conn lor bit has_session session lor bit has_via via
    lor (match id with J.Int _ -> int_id | _ -> 0)
    lor if slow then is_slow else 0;
  Atomic.set r.stamps.(i) (k + 1);
  Atomic.set r.pushes (k + 1)

(* [n] pushes ever, and the surviving entries, oldest first, without
   any slot a push was writing or overwrote while it was read.  The
   second stamp read is a read-modify-write so that the field reads
   cannot be ordered after it. *)
let read r =
  let n = Atomic.get r.pushes in
  let cap = Array.length r.seqs in
  let rec from k acc =
    if k < max 0 (n - cap) then acc
    else
      let i = k mod cap in
      let stamp = Atomic.get r.stamps.(i) in
      let f = r.flags.(i) in
      let opt b v = if f land b <> 0 then Some v else None in
      let e =
        { e_seq = r.seqs.(i);
          e_conn = opt has_conn r.conns.(i);
          e_verb = r.verbs.(i);
          e_session = opt has_session r.sessions.(i);
          e_id = (if f land int_id <> 0 then J.Int r.id_ints.(i) else r.ids.(i));
          e_outcome = r.outcomes.(i);
          e_latency_ns = r.latencies.(i);
          e_bytes = r.bytes.(i);
          e_via = opt has_via r.vias.(i);
          e_slow = f land is_slow <> 0 }
      in
      let intact =
        stamp = k + 1 && Atomic.fetch_and_add r.stamps.(i) 0 = stamp
      in
      from (k - 1) (if intact then e :: acc else acc)
  in
  (n, from (n - 1) [])

let entries r = snd (read r)

let dump r oc =
  let pushed, entries = read r in
  Printf.fprintf oc
    "--- cxxlookup flight recorder: last %d of %d requests ---\n"
    (List.length entries) pushed;
  List.iter
    (fun e ->
      output_string oc (J.to_string (entry_json e));
      output_char oc '\n')
    entries;
  Printf.fprintf oc "--- end flight recorder ---\n";
  flush oc
