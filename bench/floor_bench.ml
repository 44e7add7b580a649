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
   plus the work of decoding, executing and encoding it. *)

let rate = 1500.  (* messages per second, both connections together *)
let conns = 2
let measure_s = 2.0
let warmup_s = 0.3
let repeats = 7

let line =
  {|{"id":123456,"op":"lookup","session":"s0","class":"C123","member":"m7"}|}

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
    | Net.Server.Line l ->
      Service.Outbuf.add_string out l;
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

(* Every connection sends [n] messages on its share of the schedule
   from [t0] and checks each echo; returns the mismatches. *)
let drive clients ~n =
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

(* One run: the child's CPU µs per message over the measured window,
   and the echoes that came back wrong. *)
let one_run () =
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
    List.init conns (fun _ -> Net.Client.connect (Net.Server.Tcp ("127.0.0.1", port)))
  in
  let per_conn n_s = int_of_float (n_s *. rate /. float_of_int conns) in
  let bad = drive clients ~n:(per_conn warmup_s) in
  let c0 = cpu_ns pid in
  let n = per_conn measure_s in
  let bad = bad + drive clients ~n in
  let c1 = cpu_ns pid in
  List.iter Net.Client.close clients;
  Unix.close in_w;
  ignore (Unix.waitpid [] pid);
  close_in ic;
  match (c0, c1) with
  | Some c0, Some c1 ->
    Some (float_of_int (c1 - c0) /. 1000. /. float_of_int (conns * n), bad)
  | _ -> None

let run () =
  Format.printf "@.---- FLR1: the serving floor, an echo on serve_conn ----@.";
  let runs = List.filter_map (fun _ -> one_run ()) (List.init repeats Fun.id) in
  if runs = [] then
    Format.printf "  skipped: no /proc/PID/task/*/schedstat on this host@."
  else begin
    let us = Array.of_list (List.map fst runs) in
    let bad = List.fold_left (fun acc (_, b) -> acc + b) 0 runs in
    let us_med, us_q1, us_q3 = Open_bench.quartiles us in
    let family =
      Printf.sprintf "echo on serve_conn, %.0f msg/s over %d conns" rate conns
    in
    Format.printf "  %s: %.1f CPU µs per message [%.1f, %.1f] over %d runs@."
      family us_med us_q1 us_q3 (Array.length us);
    Fig_tables.check "FLR1: every echo came back intact" (bad = 0);
    let f x = Telemetry.Json.Float x in
    Scaling.record ~experiment:"FLR1" ~family ~n_plus_e:0
      ~time_ns:(us_med *. 1000.)
      (Telemetry.Json.Obj
         [ ("rate_msgs_per_s", f rate);
           ("conns", Telemetry.Json.Int conns);
           ("measure_s", f measure_s);
           ("runs", Telemetry.Json.Int (Array.length us));
           ("message_bytes", Telemetry.Json.Int (String.length line + 1));
           ("cpu_us_per_msg", f us_med); ("cpu_us_per_msg_q1", f us_q1);
           ("cpu_us_per_msg_q3", f us_q3) ])
  end
