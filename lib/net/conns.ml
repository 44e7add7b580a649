type t = {
  fds : (int, Unix.file_descr) Hashtbl.t;
  mutex : Mutex.t;
  emptied : Condition.t;  (* signalled when the last connection closes *)
  next : int Atomic.t;
}

let create () =
  { fds = Hashtbl.create 16;
    mutex = Mutex.create ();
    emptied = Condition.create ();
    next = Atomic.make 0 }

let add t fd =
  let conn = Atomic.fetch_and_add t.next 1 + 1 in
  Mutex.protect t.mutex (fun () -> Hashtbl.replace t.fds conn fd);
  conn

(* The socket closes under the mutex, so [drain] never shuts down a
   descriptor number already reused by a later accept. *)
let close t conn fd =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.remove t.fds conn;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Hashtbl.length t.fds = 0 then Condition.broadcast t.emptied)

let drain t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.fds;
      while Hashtbl.length t.fds > 0 do
        Condition.wait t.emptied t.mutex
      done)
