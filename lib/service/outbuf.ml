type t = { mutable buf : Bytes.t; mutable len : int }

let create n = { buf = Bytes.create (max n 16); len = 0 }
let length t = t.len
let bytes t = t.buf
let clear t = t.len <- 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Outbuf.truncate";
  t.len <- n

(* room for [n] more bytes, doubling *)
let reserve t n =
  let need = t.len + n in
  if need > Bytes.length t.buf then begin
    let grown = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let add_u8 t v = add_char t (Char.unsafe_chr (v land 0xff))

let add_u32 t v =
  reserve t 4;
  Bytes.set_int32_le t.buf t.len (Int32.of_int v);
  t.len <- t.len + 4

let add_substring t s pos n =
  reserve t n;
  Bytes.blit_string s pos t.buf t.len n;
  t.len <- t.len + n

let add_string t s = add_substring t s 0 (String.length s)

let set_u32 t pos v =
  if pos < 0 || pos + 4 > t.len then invalid_arg "Outbuf.set_u32";
  Bytes.set_int32_le t.buf pos (Int32.of_int v)

let blit_string s spos t pos n =
  if pos < 0 || pos + n > t.len then invalid_arg "Outbuf.blit_string";
  Bytes.blit_string s spos t.buf pos n

let contents t = Bytes.sub_string t.buf 0 t.len
