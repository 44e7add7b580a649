(* FLR1: the serving floor — what a server costs per message before it
   does any work.  An echo handler on [Net.Server.serve_conn], the
   connection loop the server and the router share, runs in a child
   process with the server's topology at [workers = 1]: the accept loop
   and one systhread per connection on a single domain.  The parent
   drives it at a fixed rate over two connections with a read-json-like
   lookup line and reads the child's CPU from
   /proc/PID/task/*/schedstat (ns on CPU, per thread) around the
   measured window — nothing is timed inside the loop.  The row is the
   median and quartiles of the child's CPU µs per message over
   [repeats] runs; a request's cost on the real server is this floor
   plus the work of decoding, executing and encoding it.

   A second row echoes a large line: OPN1's 658 KB [open] line (the
   read-1b-wide document), sent [large_lines] times one after another
   on one connection, after one unmeasured line.  Per line, the
   child's CPU µs and its minor page faults ([/proc/PID/stat], every
   thread), each as the median and quartiles over [repeats] runs: what
   the loop costs to take a set-up-sized message in and hand it over. *)

let rate = 1500.  (* messages per second, both connections together *)
let conns = 2
let measure_s = 2.0
let warmup_s = 0.3
let repeats = 7

let line =
  {|{"id":123456,"op":"lookup","session":"s0","class":"C123","member":"m7"}|}

let large_lines = 20
let large_line = lazy (snd (Open_bench.open_line ~members:256))

(* The child: echo every line back, until stdin reaches EOF. *)
let child () =
  let stop = Atomic.make false in
  let fd, bound = Net.Server.listen_on (Net.Server.Tcp ("127.0.0.1", 0)) in
  (match bound with
  | Net.Server.Tcp (_, port) -> Printf.printf "%d\n%!" port
  | Net.Server.Unix_path _ -> ());
  ignore
    (Thread.create
       (fun () ->
         ignore (In_channel.input_all stdin);
         Atomic.set stop true)
       ());
  let echo out = function
    | Net.Server.Line (b, pos, len) ->
      Service.Outbuf.add_substring out (Bytes.unsafe_to_string b) pos len;
      Service.Outbuf.add_char out '\n'
    | Net.Server.Frame _ | Net.Server.Bad_line _ | Net.Server.Bad_frame _ -> ()
  in
  Net.Server.accept_loop ~stop fd bound (fun c ->
      ignore
        (Thread.create
           (fun () ->
             Net.Server.serve_conn ~idle_timeout:60. ~max_line:(1 lsl 20) c echo
               (ref false);
             Unix.close c)
           ()));
  exit 0

(* ns on CPU of every live thread of [pid]; None without /proc *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | tids ->
    Some
      (Array.fold_left
         (fun acc tid ->
           match
             In_channel.with_open_text
               (Filename.concat dir (Filename.concat tid "schedstat"))
               In_channel.input_all
           with
           | s -> acc + int_of_string (List.hd (String.split_on_char ' ' s))
           | exception (Sys_error _ | Failure _) -> acc)
         0 tids)

(* minor page faults of [pid], every thread; None without /proc *)
let minor_faults pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | s ->
    (* the fields after the command's closing parenthesis: state, ppid,
       pgrp, session, tty_nr, tpgid, flags, minflt *)
    let i = String.rindex s ')' + 2 in
    let rest = String.sub s i (String.length s - i) in
    int_of_string_opt (List.nth (String.split_on_char ' ' rest) 7)

(* Every connection sends [n] messages on its share of the schedule
   from [t0] and checks each echo; returns the mismatches. *)
let drive ~n clients =
  let per_conn = rate /. float_of_int conns in
  let t0 = Unix.gettimeofday () in
  let bad = Atomic.make 0 in
  let threads =
    List.mapi
      (fun k cl ->
        Thread.create
          (fun () ->
            for i = 0 to n - 1 do
              let due =
                t0 +. ((float_of_int i +. (float_of_int k /. float_of_int conns))
                       /. per_conn)
              in
              let wait = due -. Unix.gettimeofday () in
              if wait > 0. then Thread.delay wait;
              if Net.Client.request cl line <> Some line then Atomic.incr bad
            done)
          ())
      clients
  in
  List.iter Thread.join threads;
  Atomic.get bad

(* [n] large lines, one after another on each connection, each echo
   checked; returns the mismatches. *)
let echo_large ~n clients =
  let line = Lazy.force large_line and bad = ref 0 in
  List.iter
    (fun cl ->
      for _ = 1 to n do
        if Net.Client.request cl line <> Some line then incr bad
      done)
    clients;
  !bad

(* One run on a fresh child over [k] connections: [warm], then [work],
   each returning the echoes that came back wrong.  The mismatches of
   both, and the child's CPU µs and minor faults over [work] (None
   without /proc). *)
let one_run ~k ~warm ~work =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "floor-child" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let port = int_of_string (String.trim (input_line ic)) in
  let clients =
    List.init k (fun _ -> Net.Client.connect (Net.Server.Tcp ("127.0.0.1", port)))
  in
  let bad = warm clients in
  let c0 = cpu_ns pid and f0 = minor_faults pid in
  let bad = bad + work clients in
  let c1 = cpu_ns pid and f1 = minor_faults pid in
  List.iter Net.Client.close clients;
  Unix.close in_w;
  ignore (Unix.waitpid [] pid);
  close_in ic;
  ( bad,
    match (c0, c1, f0, f1) with
    | Some c0, Some c1, Some f0, Some f1 ->
      Some (float_of_int (c1 - c0) /. 1000., float_of_int (f1 - f0))
    | _ -> None )

let run () =
  Format.printf "@.---- FLR1: the serving floor, an echo on serve_conn ----@.";
  let per_conn n_s = int_of_float (n_s *. rate /. float_of_int conns) in
  let n = per_conn measure_s in
  let small =
    List.init repeats (fun _ ->
        one_run ~k:conns ~warm:(drive ~n:(per_conn warmup_s)) ~work:(drive ~n))
  in
  let large =
    List.init repeats (fun _ ->
        one_run ~k:1 ~warm:(echo_large ~n:1) ~work:(echo_large ~n:large_lines))
  in
  let bad runs = List.fold_left (fun acc (b, _) -> acc + b) 0 runs in
  Fig_tables.check "FLR1: every echo came back intact" (bad small + bad large = 0);
  let measured runs = List.filter_map snd runs in
  if measured small = [] || measured large = [] then
    Format.printf "  skipped: no /proc/PID/task/*/schedstat on this host@."
  else begin
    let f x = Telemetry.Json.Float x in
    let per runs count =
      let us = Array.of_list (List.map (fun (c, _) -> c /. count) (measured runs))
      and faults =
        Array.of_list (List.map (fun (_, m) -> m /. count) (measured runs))
      in
      (Open_bench.quartiles us, Open_bench.quartiles faults, Array.length us)
    in
    let (us_med, us_q1, us_q3), _, runs = per small (float_of_int (conns * n)) in
    let family =
      Printf.sprintf "echo on serve_conn, %.0f msg/s over %d conns" rate conns
    in
    Format.printf "  %s: %.1f CPU µs per message [%.1f, %.1f] over %d runs@."
      family us_med us_q1 us_q3 runs;
    Scaling.record ~experiment:"FLR1" ~family ~n_plus_e:0
      ~time_ns:(us_med *. 1000.)
      (Telemetry.Json.Obj
         [ ("rate_msgs_per_s", f rate);
           ("conns", Telemetry.Json.Int conns);
           ("measure_s", f measure_s);
           ("runs", Telemetry.Json.Int runs);
           ("message_bytes", Telemetry.Json.Int (String.length line + 1));
           ("cpu_us_per_msg", f us_med); ("cpu_us_per_msg_q1", f us_q1);
           ("cpu_us_per_msg_q3", f us_q3) ]);
    let (us_med, us_q1, us_q3), (mf_med, mf_q1, mf_q3), runs =
      per large (float_of_int large_lines)
    in
    let bytes = String.length (Lazy.force large_line) + 1 in
    let family =
      Printf.sprintf "echo on serve_conn, %d KB line" (bytes / 1024)
    in
    Format.printf
      "  %s: %.0f CPU µs per line [%.0f, %.0f], %.1f minor faults [%.1f, \
       %.1f] over %d runs@."
      family us_med us_q1 us_q3 mf_med mf_q1 mf_q3 runs;
    Scaling.record ~experiment:"FLR1" ~family ~n_plus_e:0
      ~time_ns:(us_med *. 1000.)
      (Telemetry.Json.Obj
         [ ("lines", Telemetry.Json.Int large_lines);
           ("runs", Telemetry.Json.Int runs);
           ("message_bytes", Telemetry.Json.Int bytes);
           ("cpu_us_per_line", f us_med); ("cpu_us_per_line_q1", f us_q1);
           ("cpu_us_per_line_q3", f us_q3);
           ("minor_faults_per_line", f mf_med);
           ("minor_faults_per_line_q1", f mf_q1);
           ("minor_faults_per_line_q3", f mf_q3) ])
  end

(* `make bench-smoke`: one short run of the large-line echo, every echo
   checked, so the loop's large-message path runs on every push. *)
let smoke () =
  Format.printf "@.---- FLR1 (smoke): large lines through serve_conn ----@.";
  let bad, _ = one_run ~k:1 ~warm:(echo_large ~n:1) ~work:(echo_large ~n:3) in
  Fig_tables.check "FLR1: every 658 KB echo came back intact" (bad = 0)
