(* A bounded blocking queue: the networked server's worker mailboxes,
   which carry accepted connections from the accept loop to a worker
   domain.

   Every queue has a hard capacity — nothing buffers without limit — and
   a full queue blocks the producer.  [close] drains cooperatively:
   producers are refused, consumers keep popping until the queue is
   empty, then see [None]. *)

type 'a t = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let create capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  { m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false }

let capacity t = t.capacity
let length t = Mutex.protect t.m (fun () -> Queue.length t.items)

(* Blocking push; [false] iff the queue was closed (the item is
   dropped — the consumer is gone). *)
let push t x =
  Mutex.protect t.m @@ fun () ->
  while (not t.closed) && Queue.length t.items >= t.capacity do
    Condition.wait t.not_full t.m
  done;
  if t.closed then false
  else begin
    Queue.add x t.items;
    Condition.signal t.not_empty;
    true
  end

(* Non-blocking push; [false] if full or closed. *)
let try_push t x =
  Mutex.protect t.m @@ fun () ->
  if t.closed || Queue.length t.items >= t.capacity then false
  else begin
    Queue.add x t.items;
    Condition.signal t.not_empty;
    true
  end

(* Blocking pop; [None] iff the queue is closed and drained. *)
let pop t =
  Mutex.protect t.m @@ fun () ->
  while (not t.closed) && Queue.is_empty t.items do
    Condition.wait t.not_empty t.m
  done;
  match Queue.take_opt t.items with
  | Some x ->
    Condition.signal t.not_full;
    Some x
  | None -> None

let close t =
  Mutex.protect t.m @@ fun () ->
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full
