(** A JSON representation for telemetry output.

    Unlike {!Chg.Json} (which round-trips hierarchies and deliberately
    rejects floats), telemetry output carries timings, so floats are
    supported here.  {!of_string} reads back what {!to_string} wrote
    (the bench harness merges fresh rows into its results file). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?pretty j] serializes.  [pretty] (default false) adds
    newlines and two-space indentation.  Floats print with up to six
    significant decimals, a whole number as [N.0]; non-finite floats
    degrade to [null].  Printing is a fixed point of reading back:
    [to_string (of_string (to_string j)) = to_string j]. *)
val to_string : ?pretty:bool -> t -> string

(** [output oc j] writes [to_string ~pretty:true j] plus a final newline. *)
val output : out_channel -> t -> unit

exception Parse_error of string

(** [of_string s] parses the output of {!to_string} (either layout): a
    number without [.] or an exponent reads as [Int], any other as
    [Float].  [\u] escapes are not supported.
    @raise Parse_error with the byte offset of the first fault. *)
val of_string : string -> t
