(* Requests as generator messages, and the oracle check of each answer.
   A check never trusts the server's own summary fields: every verdict
   is compared with the spec oracle's. *)

module J = Chg.Json
module F = Service.Frame
open Gen

let error_of j =
  match J.member "error" j with
  | Ok e ->
    (match J.member "code" e with
    | Ok (J.String c) -> c
    | _ -> "error")
  | Error _ -> "error"

let ok_json resp k =
  match J.of_string resp with
  | Error e -> Failed ("unparsable answer: " ^ e)
  | Ok j ->
    (match J.member "ok" j with
    | Ok (J.Bool true) -> k j
    | _ -> Failed ("in-band error " ^ error_of j))

let name_verdict g (expect : Inputs.expect) j =
  let field f = match J.member f j with Ok (J.String s) -> Some s | _ -> None in
  let got =
    match field "verdict" with
    | Some "red" ->
      (match field "resolves_to" with
      | Some n -> (match Chg.Graph.find_opt g n with Some c -> c | None -> -3)
      | None -> -3)
    | Some "blue" -> -2
    | Some "none" -> -1
    | _ -> -3
  in
  got = expect

let show_expect g = function
  | -1 -> "none"
  | -2 -> "ambiguous"
  | c -> "red " ^ Chg.Graph.name g c

let json_check (t : Inputs.t) r resp =
  let g = t.Inputs.graph in
  ok_json resp (fun j ->
      match r with
      | Inputs.Lookup p ->
        if name_verdict g t.Inputs.expected.(p) j then Good
        else
          Wrong
            (Printf.sprintf "lookup %s: expected %s, got %s"
               (Inputs.lookup_line ~session:"" t p)
               (show_expect g t.Inputs.expected.(p)) resp)
      | Inputs.Batch ps ->
        (match J.member "results" j with
        | Ok (J.List rs) when List.length rs = Array.length ps ->
          let bad = ref None in
          List.iteri
            (fun i rj ->
              if !bad = None && not (name_verdict g t.Inputs.expected.(ps.(i)) rj)
              then bad := Some i)
            rs;
          (match !bad with
          | None -> Good
          | Some i ->
            Wrong
              (Printf.sprintf "batch query %d: expected %s, got %s" i
                 (show_expect g t.Inputs.expected.(ps.(i))) resp))
        | _ -> Wrong ("malformed batch answer: " ^ resp)))

let frame_check (t : Inputs.t) r resp =
  let op = match r with Inputs.Lookup _ -> F.op_lookup | Inputs.Batch _ -> F.op_batch_lookup in
  match F.decode_response ~op resp with
  | Error e -> Failed ("undecodable frame: " ^ e)
  | Ok (_, F.Err (code, msg)) ->
    Failed (Printf.sprintf "in-band error %s: %s" (Service.Protocol.code_string code) msg)
  | Ok (_, F.Ok_lookup code) ->
    (match r with
    | Inputs.Lookup p when code = t.Inputs.expected.(p) -> Good
    | Inputs.Lookup p ->
      Wrong
        (Printf.sprintf "1b lookup pair %d: expected %d, got %d" p
           t.Inputs.expected.(p) code)
    | Inputs.Batch _ -> Wrong "lookup answer to a batch")
  | Ok (_, F.Ok_batch { ob_codes; _ }) ->
    (match r with
    | Inputs.Batch ps when Array.length ob_codes = Array.length ps ->
      let bad = ref None in
      Array.iteri
        (fun i p -> if !bad = None && ob_codes.(i) <> t.Inputs.expected.(p) then bad := Some i)
        ps;
      (match !bad with
      | None -> Good
      | Some i ->
        Wrong
          (Printf.sprintf "1b batch query %d: expected %d, got %d" i
             t.Inputs.expected.(ps.(i)) ob_codes.(i)))
    | _ -> Wrong "malformed 1b batch answer")
  | Ok _ -> Wrong "unexpected 1b answer"

(* A read of the workload's stream as a generator message. *)
let json_msg (t : Inputs.t) ~session r =
  { bytes = Inputs.req_line ~session t r; tag = 0;
    queries = Inputs.req_queries r; check = json_check t r }

let frame_msg (t : Inputs.t) ~session ~member_id r =
  { bytes = Inputs.req_frame ~session ~member_id t r; tag = 0;
    queries = Inputs.req_queries r; check = frame_check t r }

let plain_msg ?(tag = 0) line check = { bytes = line; tag; queries = 1; check }

(* An answer whose only requirement is [ok:true]. *)
let ok_check resp = ok_json resp (fun _ -> Good)

(* A lookup by name that must resolve to [cls]. *)
let resolves_check ~cls resp =
  ok_json resp (fun j ->
      match (J.member "verdict" j, J.member "resolves_to" j) with
      | Ok (J.String "red"), Ok (J.String c) when c = cls -> Good
      | _ -> Wrong (Printf.sprintf "expected red %s, got %s" cls resp))

(* ---- session set-up over a generator connection -------------------- *)

exception Setup_failed of string

let must c m =
  match Gen.round_trip c m with
  | None -> raise (Setup_failed "connection closed during set-up")
  | Some resp ->
    (match m.check resp with
    | Good -> resp
    | Failed e | Wrong e -> raise (Setup_failed e))

let open_session c (t : Inputs.t) ~session =
  ignore (must c (plain_msg (Inputs.open_line ~session t) ok_check))

(* The server's member ids for our member names, from a [symbols]
   answer. *)
let member_ids_of_symbols (t : Inputs.t) resp =
  let names =
    match J.of_string resp with
    | Ok j ->
      (match J.member "members" j with
      | Ok (J.List l) -> List.map (function J.String s -> s | _ -> "") l
      | _ -> [])
    | Error _ -> []
  in
  let tbl = Hashtbl.create 512 in
  List.iteri (fun i n -> Hashtbl.replace tbl n i) names;
  Array.map
    (fun m ->
      match Hashtbl.find_opt tbl m with
      | Some i -> i
      | None -> raise (Setup_failed ("symbols lack member " ^ m)))
    t.Inputs.members

let symbols_line ~session =
  Printf.sprintf "{\"op\":\"symbols\",\"session\":%s}" (Inputs.json_string session)

let member_ids c (t : Inputs.t) ~session =
  member_ids_of_symbols t (must c (plain_msg (symbols_line ~session) ok_check))

(* Poll until the first read of the workload answers correctly (a
   replica may not have the session yet); [Setup_failed] past the
   deadline.  Polls back to back: each poll is a round trip already. *)
let first_correct ?(timeout = 30.) c m =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Gen.round_trip c m with
    | Some resp when m.check resp = Good -> ()
    | Some _ when Unix.gettimeofday () < deadline -> go ()
    | Some resp -> raise (Setup_failed ("no correct answer: " ^ resp))
    | None -> raise (Setup_failed "connection closed")
  in
  go ()
