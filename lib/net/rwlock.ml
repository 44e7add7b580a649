(* A writers-preference read/write lock over Mutex + Condition.

   The networked server classifies every verb with
   [Service.Server.read_only]: read verbs take the lock shared and
   execute concurrently against the immutable packed columns, while
   mutations take it exclusive — the single-writer path that owns the
   session table and WAL.  Writers preference keeps a steady read
   stream from starving a pending mutation: once a writer is waiting,
   new readers queue behind it. *)

type t = {
  m : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  mutable readers : int;  (* threads currently holding it shared *)
  mutable writer : bool;  (* one thread holds it exclusive *)
  mutable waiting_writers : int;
}

let create () =
  { m = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    readers = 0;
    writer = false;
    waiting_writers = 0 }

let read_lock t =
  Mutex.protect t.m @@ fun () ->
  while t.writer || t.waiting_writers > 0 do
    Condition.wait t.can_read t.m
  done;
  t.readers <- t.readers + 1

let read_unlock t =
  Mutex.protect t.m @@ fun () ->
  t.readers <- t.readers - 1;
  if t.readers = 0 then Condition.signal t.can_write

let write_lock t =
  Mutex.protect t.m @@ fun () ->
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writer || t.readers > 0 do
    Condition.wait t.can_write t.m
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writer <- true

let write_unlock t =
  Mutex.protect t.m @@ fun () ->
  t.writer <- false;
  if t.waiting_writers > 0 then Condition.signal t.can_write
  else Condition.broadcast t.can_read

let with_read t f =
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) f

let with_write t f =
  write_lock t;
  Fun.protect ~finally:(fun () -> write_unlock t) f
