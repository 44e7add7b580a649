(* Seeded inputs: the hierarchy, the oracle-checked query sample, the
   request stream and the write schedule of each workload.

   Everything here is a pure function of (workload, seed): the program
   under test only ever sees the hierarchy document and the request
   bytes derived from it.  Expected verdicts come from the paper's
   path formalism ({!Subobject.Spec.lookup}), computed off the clock. *)

module G = Chg.Graph

type workload = Read_json | Read_1b_wide | Edit_durable | Routed_read

let workloads = [ Read_json; Read_1b_wide; Edit_durable; Routed_read ]

let workload_name = function
  | Read_json -> "read-json"
  | Read_1b_wide -> "read-1b-wide"
  | Edit_durable -> "edit-durable"
  | Routed_read -> "routed-read"

let workload_of_name s =
  List.find_opt (fun w -> workload_name w = s) workloads

(* A verdict as both framings report it: [-1] none, [-2] ambiguous,
   otherwise the declaring class id (Frame / Packed resolve codes). *)
type expect = int

let expect_of_spec = function
  | Subobject.Spec.Resolved p -> Subobject.Path.ldc p
  | Subobject.Spec.Ambiguous _ -> -2
  | Subobject.Spec.Undeclared -> -1

type req =
  | Lookup of int  (** index into [pairs] *)
  | Batch of int array

type shape = {
  classes : int;
  edges : int;
  member_names : int;
  max_subobjects : int;
}

type t = {
  workload : workload;
  seed : int;
  graph : G.t;
  members : string array;
  doc : string;  (** the cxxlookup-chg document [open] carries *)
  pairs : (int * int) array;  (** (class id, index into [members]) *)
  expected : expect array;  (** oracle verdict per pair *)
  stream : req array;
  shape : shape;
  hier_draws : int;  (** hierarchies drawn before one passed the gate *)
}

let classes = 600
let max_bases = 2
let virtual_prob = 0.2
let declare_prob = 0.05

(* The subobject gate keeps [Spec.lookup] tractable: its cost grows with
   the subobject count of the queried class (about 4 ms per pair under
   this gate, seconds per pair without it). *)
let max_subobjects_gate = 200

let member_count = function Read_1b_wide -> 256 | _ -> 24

let sample_size = function Read_1b_wide -> 768 | _ -> 256

let stream_length = 8192

(* Per-workload salt so two workloads with one seed do not share a
   hierarchy. *)
let salt = function
  | Read_json -> 11
  | Read_1b_wide -> 23
  | Edit_durable -> 37
  | Routed_read -> 41

let rng workload seed purpose =
  Random.State.make [| 0x5eed; salt workload; seed; purpose |]

let draw_hierarchy workload seed =
  let members =
    List.init (member_count workload) (Printf.sprintf "m%d")
  in
  let st = rng workload seed 1 in
  let rec go draws =
    let hseed = Random.State.bits st in
    let inst =
      Hiergen.Families.random_dag ~n:classes ~max_bases ~virtual_prob
        ~declare_prob ~members ~seed:hseed
    in
    let g = inst.Hiergen.Families.graph in
    let mx = Subobject.Count.max_over_classes (Chg.Closure.compute g) in
    if mx <= max_subobjects_gate then (g, mx, draws) else go (draws + 1)
  in
  let g, mx, draws = go 1 in
  (g, Array.of_list members, mx, draws)

(* Zipf(1) over sample indices: index k has rank k + 1. *)
let zipf_sampler st n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Random.State.float st total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let make_stream workload st n =
  match workload with
  | Read_1b_wide ->
    (* batch_lookup(64) : lookup = 1:1, uniform over the sample *)
    Array.init stream_length (fun i ->
        if i land 1 = 0 then Lookup (Random.State.int st n)
        else Batch (Array.init 64 (fun _ -> Random.State.int st n)))
  | Read_json | Edit_durable | Routed_read ->
    (* lookup : batch_lookup(8) = 9:1, Zipf-skewed over the sample *)
    let draw = zipf_sampler st n in
    Array.init stream_length (fun _ ->
        if Random.State.int st 10 = 0 then Batch (Array.init 8 (fun _ -> draw ()))
        else Lookup (draw ()))

(* The wide workload's sample covers every member name at least twice,
   so the stream's working set is all 256 columns. *)
let covering_pairs st ~nm n =
  let seen = Hashtbl.create 1024 in
  let pairs = Array.make n (0, 0) in
  let k = ref 0 in
  while !k < n do
    let m = if !k < 2 * nm then !k mod nm else Random.State.int st nm in
    let c = Random.State.int st classes in
    if not (Hashtbl.mem seen (c, m)) then begin
      Hashtbl.add seen (c, m) ();
      pairs.(!k) <- (c, m);
      incr k
    end
  done;
  pairs

(* The Zipf workloads' sample: a third of the pairs resolve, a third are
   ambiguous and a third absent, interleaved so that Zipf rank k gets
   kind k mod 3.  Which pairs are hot still depends on the seed, but the
   verdict mix of the hot head — which sets the size and cost of every
   answer — does not.  Kinds are sorted with the packed table; the
   expected verdicts still come from the oracle.  A kind the hierarchy
   cannot fill is topped up from the others. *)
let stratified_pairs g members st n =
  let table = Lookup_core.Packed.build ~jobs:1 (Chg.Closure.compute g) in
  let kind (c, m) =
    match Lookup_core.Packed.find_column table members.(m) with
    | None -> 2
    | Some col ->
      let code = Lookup_core.Packed.column_resolve_code col c in
      if code >= 0 then 0 else if code = -2 then 1 else 2
  in
  let per = (n + 2) / 3 in
  let buckets = Array.make 3 [] and counts = Array.make 3 0 in
  let seen = Hashtbl.create 1024 in
  let draws = ref 0 in
  while Array.exists (fun c -> c < per) counts && !draws < 100 * n do
    incr draws;
    let p = (Random.State.int st classes, Random.State.int st (Array.length members)) in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      let k = kind p in
      if counts.(k) < per then begin
        buckets.(k) <- p :: buckets.(k);
        counts.(k) <- counts.(k) + 1
      end
    end
  done;
  let queues = Array.map (fun b -> Queue.of_seq (List.to_seq (List.rev b))) buckets in
  let pairs = ref [] and k = ref 0 in
  while List.length !pairs < n && Array.exists (fun q -> not (Queue.is_empty q)) queues do
    (match Queue.take_opt queues.(!k mod 3) with
    | Some p -> pairs := p :: !pairs
    | None -> ());
    incr k
  done;
  Array.of_list (List.rev !pairs)

let make workload seed =
  let g, members, mx, draws = draw_hierarchy workload seed in
  let st = rng workload seed 2 in
  let nm = Array.length members in
  let n = sample_size workload in
  let pairs =
    match workload with
    | Read_1b_wide -> covering_pairs st ~nm n
    | Read_json | Edit_durable | Routed_read -> stratified_pairs g members st n
  in
  let n = Array.length pairs in
  let expected =
    Array.map
      (fun (c, m) -> expect_of_spec (Subobject.Spec.lookup g c members.(m)))
      pairs
  in
  let stream = make_stream workload (rng workload seed 3) n in
  { workload; seed; graph = g; members;
    doc = Chg.Serialize.to_string g;
    pairs; expected; stream;
    shape =
      { classes = G.num_classes g; edges = G.num_edges g;
        member_names = nm; max_subobjects = mx };
    hier_draws = draws }

(* ---- the wire forms ------------------------------------------------- *)

let json_string s = Chg.Json.to_string (Chg.Json.String s)

let open_line ~session t =
  Printf.sprintf "{\"op\":\"open\",\"session\":%s,\"chg\":%s}"
    (json_string session) t.doc

let named_lookup_line ~session (cls, member) =
  Printf.sprintf
    "{\"op\":\"lookup\",\"session\":%s,\"class\":%s,\"member\":%s}"
    (json_string session) (json_string cls) (json_string member)

let lookup_line ~session t p =
  let c, m = t.pairs.(p) in
  named_lookup_line ~session (G.name t.graph c, t.members.(m))

let batch_line ~session t ps =
  let q p =
    let c, m = t.pairs.(p) in
    Printf.sprintf "{\"class\":%s,\"member\":%s}"
      (json_string (G.name t.graph c))
      (json_string t.members.(m))
  in
  Printf.sprintf "{\"op\":\"batch_lookup\",\"session\":%s,\"queries\":[%s]}"
    (json_string session)
    (String.concat "," (Array.to_list (Array.map q ps)))

let req_line ~session t = function
  | Lookup p -> lookup_line ~session t p
  | Batch ps -> batch_line ~session t ps

(* Frames address members by the server's interned ids, known only
   after a [symbols] round trip: [member_id] maps our index to it. *)
let req_frame ~session ~member_id t r =
  let module F = Service.Frame in
  let pair p =
    let c, m = t.pairs.(p) in
    (c, member_id.(m))
  in
  let op =
    match r with
    | Lookup p ->
      let c, m = pair p in
      F.Lookup { lk_class = c; lk_member = m }
    | Batch ps -> F.Batch_lookup (Array.map pair ps)
  in
  F.encode_request { F.fr_id = 0; fr_session = session; fr_op = op }

let req_queries = function Lookup _ -> 1 | Batch ps -> Array.length ps

(* ---- edit-durable's writes ------------------------------------------ *)

type write =
  | W_member of { w_class : int; w_name : string }
      (** [add_member] of a fresh name to an existing class *)
  | W_class of { w_name : string; w_base : int; w_member : string }
      (** [add_class] of a new leaf declaring one fresh member *)

(* Every 8th write is a new leaf.  Names are fresh, so no original
   (class, member) pair changes verdict; each write's own follow-up
   lookup resolves to the class that declared the new name. *)
let writes t n =
  let st = rng t.workload t.seed 4 in
  List.init n (fun i ->
      if i mod 8 = 7 then
        W_class
          { w_name = Printf.sprintf "N%d" i;
            w_base = Random.State.int st classes;
            w_member = Printf.sprintf "w%d" i }
      else
        W_member
          { w_class = Random.State.int st classes;
            w_name = Printf.sprintf "w%d" i })

let write_line ~session t = function
  | W_member { w_class; w_name } ->
    Printf.sprintf
      "{\"op\":\"mutate\",\"session\":%s,\"add_member\":{\"class\":%s,\"member\":{\"name\":%s}}}"
      (json_string session)
      (json_string (G.name t.graph w_class))
      (json_string w_name)
  | W_class { w_name; w_base; w_member } ->
    Printf.sprintf
      "{\"op\":\"mutate\",\"session\":%s,\"add_class\":{\"name\":%s,\"bases\":[{\"class\":%s}],\"members\":[{\"name\":%s}]}}"
      (json_string session) (json_string w_name)
      (json_string (G.name t.graph w_base))
      (json_string w_member)

(* The (class, member) a write added, by name. *)
let write_pair t = function
  | W_member { w_class; w_name } -> (G.name t.graph w_class, w_name)
  | W_class { w_name; w_member; _ } -> (w_name, w_member)

let store_mutation t = function
  | W_member { w_class; w_name } ->
    Store.Mutation.Add_member
      { am_class = G.name t.graph w_class; am_member = G.member w_name }
  | W_class { w_name; w_base; w_member } ->
    Store.Mutation.Add_class
      { ac_name = w_name;
        ac_bases = [ (G.name t.graph w_base, G.Non_virtual, G.Public) ];
        ac_members = [ G.member w_member ] }

(* The hierarchy after [ws]: what a recovered server must serve. *)
let mutated_graph t ws =
  let b = G.create_builder () in
  G.iter_classes t.graph (fun c ->
      ignore
        (G.add_class b (G.name t.graph c)
           ~bases:
             (List.map
                (fun (bs : G.base) ->
                  (G.name t.graph bs.G.b_class, bs.G.b_kind, bs.G.b_access))
                (G.bases t.graph c))
           ~members:(G.members t.graph c)));
  List.iter (fun w -> Store.Mutation.apply b (store_mutation t w)) ws;
  G.freeze b

(* ---- reproducibility ------------------------------------------------ *)

(* The bytes the program receives for one seed: the hierarchy document
   and the request stream (JSON form, which fixes the 1b form too). *)
let fingerprint t =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b t.doc;
  Array.iter
    (fun r ->
      Buffer.add_char b '\n';
      Buffer.add_string b (req_line ~session:"s" t r))
    t.stream;
  List.iter
    (fun w ->
      Buffer.add_char b '\n';
      Buffer.add_string b (write_line ~session:"s" t w))
    (writes t 64);
  Digest.to_hex (Digest.string (Buffer.contents b))
