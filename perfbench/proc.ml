(* Server processes: spawn the real [cxxlookup] binary, learn the
   ephemeral port it announces on stderr, read its peak RSS, kill it. *)

type t = { pid : int; log : string; mutable alive : bool }

let live : t list ref = ref []

let spawn ~bin ~log args =
  let err = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) null null err
  in
  Unix.close err;
  Unix.close null;
  let p = { pid; log; alive = true } in
  live := p :: !live;
  p

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go 0

exception Died of string

(* Poll the stderr log until the line announcing [prefix HOST:PORT]
   appears; the port is what the benchmark connects to.  The poll sleeps
   between reads so the starting servers have the CPUs to themselves. *)
let announced ?(timeout = 30.) p prefix =
  let deadline = Unix.gettimeofday () +. timeout in
  let last_size = ref (-1) in
  let rec go () =
    let size = try (Unix.stat p.log).Unix.st_size with Unix.Unix_error _ -> 0 in
    let found =
      if size = !last_size then None
      else begin
        last_size := size;
        let s = read_file p.log in
        match find_sub s prefix with
        | None -> None
        | Some i ->
          let j = i + String.length prefix in
          (match String.index_from_opt s j '\n' with
          | None -> (last_size := -1; None)
          | Some eol ->
            let word = String.sub s j (eol - j) in
            let word = match String.index_opt word ' ' with Some k -> String.sub word 0 k | None -> word in
            let word = match String.index_opt word ',' with Some k -> String.sub word 0 k | None -> word in
            (match String.rindex_opt word ':' with
            | Some c ->
              Some (String.sub word 0 c, int_of_string (String.sub word (c + 1) (String.length word - c - 1)))
            | None -> raise (Died ("unreadable announcement in " ^ p.log))))
      end
    in
    match found with
    | Some addr -> addr
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ -> ()
      | _ ->
        p.alive <- false;
        raise (Died (Printf.sprintf "server exited: %s" (String.trim (read_file p.log)))));
      if Unix.gettimeofday () > deadline then
        raise (Died ("no announcement in " ^ p.log));
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* A reading of a process that has exited would be a zombie's (no
   VmHWM) or nothing at all; a crashed server must fail the run, not
   read as a cheap one. *)
let check_alive p =
  let gone =
    (not p.alive)
    ||
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  if gone then begin
    p.alive <- false;
    raise (Died (Printf.sprintf "server %d exited: %s" p.pid (String.trim (read_file p.log))))
  end

let proc_file p what =
  check_alive p;
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" p.pid what) In_channel.input_all with
  | s -> s
  | exception Sys_error e -> raise (Died ("unreadable: " ^ e))

(* Peak resident set (VmHWM) in kB, from /proc. *)
let peak_rss_kb p =
  let s = proc_file p "status" in
  let fail () = raise (Died (Printf.sprintf "no VmHWM for server %d" p.pid)) in
  match find_sub s "VmHWM:" with
  | None -> fail ()
  | Some i ->
    let j = ref (i + 6) in
    while !j < String.length s && (s.[!j] = ' ' || s.[!j] = '\t') do
      incr j
    done;
    let k = ref !j in
    while !k < String.length s && s.[!k] >= '0' && s.[!k] <= '9' do
      incr k
    done;
    (match int_of_string_opt (String.sub s !j (!k - !j)) with
    | Some kb when kb > 0 -> kb
    | _ -> fail ())

let kill ?(signal = Sys.sigterm) p =
  if p.alive then begin
    (try Unix.kill p.pid signal with Unix.Unix_error _ -> ());
    (* a server that ignores SIGTERM for 10 s is killed outright *)
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid)
        end
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    p.alive <- false
  end;
  live := List.filter (fun q -> q != p) !live

(* Every process this run started is stopped and reaped before exit,
   whatever path the run leaves by. *)
let kill_all () = List.iter (fun p -> kill ~signal:Sys.sigkill p) !live

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* User + system CPU time of the whole process (all threads, exited
   ones included), in clock ticks; time the hypervisor stole from the
   guest is not in it. *)
let cpu_ticks p =
  let s = proc_file p "stat" in
  let fail () = raise (Died (Printf.sprintf "unreadable /proc/%d/stat" p.pid)) in
  match String.rindex_opt s ')' with
  | None -> fail ()
  | Some i ->
    let fields = String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) in
    (* fields after the command: state is field 3, utime 14, stime 15 *)
    let nth k = match int_of_string_opt (List.nth fields (k - 3)) with Some v -> v | None -> fail () in
    if List.length fields < 15 || List.hd fields = "Z" then fail ();
    nth 14 + nth 15

let ticks_per_s = 100.

(* User + system CPU seconds of every child this process has reaped, at
   microsecond resolution: a server killed and reaped adds its whole
   life's CPU, all threads included. *)
let reaped_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime
