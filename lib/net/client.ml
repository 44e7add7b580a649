(* A minimal blocking JSON-lines client for the networked server: one
   socket, buffered channels, line in / line out.  Used by the load
   generator, the `cxxlookup client` verb and the smoke tests — it is
   deliberately the simplest correct implementation, not a pooled or
   pipelining client. *)

type t = { ic : in_channel; oc : out_channel }

let sockaddr_of = function
  | Server.Tcp (host, port) ->
    let addr =
      if host = "" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Unix.ADDR_INET (addr, port)
  | Server.Unix_path path -> Unix.ADDR_UNIX path

(* Exponential backoff with +/-25% jitter, so a fleet of reconnecting
   clients (or router backend slots) spreads out instead of stampeding
   the moment a server comes back. *)
let backoff_delay ~attempt ~backoff_ms =
  let base = float_of_int backoff_ms *. (2. ** float_of_int attempt) in
  base *. (0.75 +. Random.float 0.5) /. 1000.

let connect_once addr =
  Server.ignore_sigpipe ();
  let ic, oc = Unix.open_connection (sockaddr_of addr) in
  (match addr with
  | Server.Tcp _ ->
    (try Unix.setsockopt (Unix.descr_of_out_channel oc) Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ())
  | Server.Unix_path _ -> ());
  { ic; oc }

(* Refusal means "nothing is listening (yet)" — the retryable class.  A
   resolution failure or a bad address stays fatal on the first try. *)
let retryable = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.ETIMEDOUT
  | Unix.EHOSTUNREACH | Unix.ENETUNREACH ->
    true
  | _ -> false

let connect ?(retries = 0) ?(backoff_ms = 50) addr =
  let rec go attempt =
    match connect_once addr with
    | t -> t
    | exception Unix.Unix_error (err, _, _) when
        attempt < retries && retryable err ->
      Thread.delay (backoff_delay ~attempt ~backoff_ms);
      go (attempt + 1)
  in
  go 0

let send_line ?(pos = 0) ?len t line =
  output_substring t.oc line pos
    (Option.value len ~default:(String.length line - pos));
  output_char t.oc '\n';
  flush t.oc

(* A partial write with no newline — only the torn-line tests want
   this; a framed request should go through [send_line]. *)
let send_raw t s =
  output_string t.oc s;
  flush t.oc

let recv_line t = In_channel.input_line t.ic

(* One synchronous round trip; [None] when the server closed on us. *)
let request ?pos ?len t line =
  send_line ?pos ?len t line;
  recv_line t

let overloaded line =
  Service.Protocol.may_be_error line
  &&
  match Chg.Json.of_string line with
  | Error _ -> false
  | Ok j ->
    (match Chg.Json.member "error" j with
    | Ok e ->
      (match Chg.Json.member "code" e with
      | Ok (Chg.Json.String "overloaded") -> true
      | _ -> false)
    | Error _ -> false)

(* A round trip that retries — on the same connection — when the server
   sheds the request with an [overloaded] error, backing off between
   resends.  Any other response (or a closed connection) returns
   immediately; admission pressure is the one condition where blind
   resending is known-safe, because a shed request was never executed. *)
let request_admitted ?(retries = 0) ?(backoff_ms = 50) ?pos ?len t line =
  let rec go attempt =
    match request ?pos ?len t line with
    | Some resp when attempt < retries && overloaded resp ->
      Thread.delay (backoff_delay ~attempt ~backoff_ms);
      go (attempt + 1)
    | r -> r
  in
  go 0

(* ---- binary (cxxlookup-rpc/1b) framing ------------------------------

   Frames share the socket with JSON lines — negotiation is per
   message, so a client may fetch [symbols] over JSON and then switch
   to frames on the same connection (or interleave both). *)

let send_frame t f =
  output_string t.oc f;
  flush t.oc

(* Read one complete response frame.  The header declares the payload
   length, so the read never scans; [None] on a closed connection or a
   byte stream that is not a response frame (after which the stream
   position is unrecoverable — callers should close). *)
let recv_frame t =
  match really_input_string t.ic Service.Frame.header_len with
  | exception End_of_file -> None
  | hdr ->
    if Char.code hdr.[0] <> Service.Frame.response_magic then None
    else
      let len =
        Chg.Binary.Reader.u32 (Chg.Binary.Reader.of_string ~pos:2 hdr)
      in
      (match really_input_string t.ic len with
      | exception End_of_file -> None
      | body -> Some (hdr ^ body))

let request_frame t f =
  send_frame t f;
  recv_frame t

(* The binary twin of {!overloaded}: error frames decode independently
   of the op, so probing with any op is sound. *)
let frame_overloaded f =
  String.length f > 1
  && Char.code f.[1] = 1
  &&
  match Service.Frame.decode_response ~op:Service.Frame.op_lookup f with
  | Ok (_, Service.Frame.Err (Service.Protocol.Overloaded, _)) -> true
  | _ -> false

let request_frame_admitted ?(retries = 0) ?(backoff_ms = 50) t f =
  let rec go attempt =
    match request_frame t f with
    | Some resp when attempt < retries && frame_overloaded resp ->
      Thread.delay (backoff_delay ~attempt ~backoff_ms);
      go (attempt + 1)
    | r -> r
  in
  go 0

(* Between round trips a live server sends nothing, so a connection
   that reads ready — end of file, a reset, or bytes nobody asked for —
   was closed (typically by the server's idle timeout) or is out of
   step; either way it must not carry another request.  A zero-timeout
   [select]: no wait, one system call. *)
let closed_by_peer t =
  match Unix.select [ Unix.descr_of_in_channel t.ic ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let close t =
  try Unix.shutdown_connection t.ic; close_in t.ic
  with Unix.Unix_error _ | Sys_error _ -> ()
