type t = { len : int; words : int array }

let bits_per_word = Sys.int_size

let create len =
  if len < 0 then invalid_arg "Bitset.create";
  { len; words = Array.make ((len + bits_per_word - 1) / bits_per_word) 0 }

let length s = s.len
let copy s = { s with words = Array.copy s.words }

let check s i =
  if i < 0 || i >= s.len then invalid_arg "Bitset: index out of range"

let add s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) land (1 lsl b) <> 0

let mem_or_false s i =
  i >= 0 && i < s.len
  && s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let union_into ~into src =
  if into.len <> src.len then invalid_arg "Bitset.union_into: universe mismatch";
  let changed = ref false in
  for w = 0 to Array.length into.words - 1 do
    let v = into.words.(w) lor src.words.(w) in
    if v <> into.words.(w) then begin
      changed := true;
      into.words.(w) <- v
    end
  done;
  !changed

let union_prefix_into ~into src =
  if src.len > into.len then
    invalid_arg "Bitset.union_prefix_into: universe is not a prefix";
  for w = 0 to Array.length src.words - 1 do
    into.words.(w) <- into.words.(w) lor src.words.(w)
  done

let inter a b =
  if a.len <> b.len then invalid_arg "Bitset.inter: universe mismatch";
  let r = create a.len in
  for w = 0 to Array.length r.words - 1 do
    r.words.(w) <- a.words.(w) land b.words.(w)
  done;
  r

let popcount n =
  let rec loop n acc = if n = 0 then acc else loop (n land (n - 1)) (acc + 1) in
  loop n 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words
let is_empty s = Array.for_all (fun w -> w = 0) s.words

let iter f s =
  for i = 0 to s.len - 1 do
    if mem s i then f i
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let equal a b = a.len = b.len && a.words = b.words

let subset a b =
  if a.len <> b.len then invalid_arg "Bitset.subset: universe mismatch";
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (elements s)
