(* Open addressing over a power-of-two array of slots, each an index
   plus one (0 where empty), probed linearly from the key's hash; the
   strings are kept by index.  A slot holds an int, so an insertion
   writes no pointer into the probed array.  The table is at most half
   full. *)
type t = {
  mutable slots : int array;
  mutable keys : string array;
  mutable count : int;
}

let create n =
  let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
  { slots = Array.make (pow2 16) 0; keys = Array.make (max n 8) ""; count = 0 }

let count t = t.count
let name t k = t.keys.(k)

let rec mix s i j h =
  if i = j then h
  else mix s (i + 1) j ((h * 31) + Char.code (String.unsafe_get s i))

(* the bytes' polynomial hash, its high bits folded into the low ones
   the mask keeps *)
let hash s i j =
  let h = mix s i j (j - i) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* [x.[k - i ..]] is [s.[k .. j - 1]] *)
let rec same_from x s i j k =
  k = j || (String.unsafe_get x (k - i) = String.unsafe_get s k && same_from x s i j (k + 1))

(* [x] is [s.[i .. j - 1]] *)
let same x s i j = String.length x = j - i && same_from x s i j i

let rec probe slots keys s i j k =
  let x = Array.unsafe_get slots k in
  if x = 0 || same keys.(x - 1) s i j then k
  else probe slots keys s i j ((k + 1) land (Array.length slots - 1))

let slot_in slots keys s i j = probe slots keys s i j (hash s i j land (Array.length slots - 1))
let slot t s i j = slot_in t.slots t.keys s i j

let find t s i j = Array.unsafe_get t.slots (slot t s i j) - 1
let find_string t s = find t s 0 (String.length s)

(* the slots rebuilt from the first [t.count] keys, [size] of them,
   in a fresh array that replaces the old one once it is whole *)
let rehash t size =
  let slots = Array.make size 0 in
  for k = 0 to t.count - 1 do
    let x = t.keys.(k) in
    slots.(slot_in slots t.keys x 0 (String.length x)) <- k + 1
  done;
  t.slots <- slots

(* [x], absent, as the next index, at [k], its empty slot *)
let insert t x k =
  let i = t.count in
  if i = Array.length t.keys then begin
    let keys = Array.make (2 * i) "" in
    Array.blit t.keys 0 keys 0 i;
    t.keys <- keys
  end;
  t.keys.(i) <- x;
  t.count <- i + 1;
  if 2 * (i + 1) > Array.length t.slots then rehash t (2 * Array.length t.slots)
  else t.slots.(k) <- i + 1;
  i

let add t x =
  let k = slot t x 0 (String.length x) in
  match Array.unsafe_get t.slots k with 0 -> insert t x k | i -> i - 1

let intern t s i j =
  let k = slot t s i j in
  match Array.unsafe_get t.slots k with
  | 0 -> insert t (String.sub s i (j - i)) k
  | x -> x - 1

let truncate t k =
  if k < t.count then begin
    Array.fill t.keys k (t.count - k) "";
    t.count <- k;
    rehash t (Array.length t.slots)
  end

let copy t = { slots = Array.copy t.slots; keys = Array.copy t.keys; count = t.count }
