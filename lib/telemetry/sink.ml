type t = {
  enabled : bool;
  t0_ns : int;
  mutable seq : int;
  mutable rev_events : Event.t list;
}

let create () =
  { enabled = true; t0_ns = Clock.now_ns (); seq = 0; rev_events = [] }

let null = { enabled = false; t0_ns = 0; seq = 0; rev_events = [] }
let enabled t = t.enabled

let emit t name fields =
  if t.enabled then begin
    let ev =
      { Event.seq = t.seq;
        at_ns = Clock.elapsed_ns ~since:t.t0_ns;
        name;
        fields }
    in
    t.rev_events <- ev :: t.rev_events;
    t.seq <- t.seq + 1
  end

let events t = List.rev t.rev_events
let length t = t.seq

let pp ppf t =
  List.iter (fun ev -> Format.fprintf ppf "%a@." Event.pp ev) (events t)

let to_json t = Json.List (List.map Event.to_json (events t))
