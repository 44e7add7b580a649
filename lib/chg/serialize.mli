(** JSON (de)serialization of class hierarchy graphs — the interchange
    format the CLI's [export] command emits, so other tools can consume
    hierarchies or feed them in.

    Format (stable, versioned):
    {v
    { "format": "cxxlookup-chg", "version": 1,
      "classes": [
        { "name": "D",
          "bases": [ { "class": "B", "virtual": true, "access": "public" } ],
          "members": [ { "name": "m", "kind": "data", "static": false,
                         "virtual": false, "access": "private" } ] }, ... ] }
    v}

    Classes appear in declaration (topological) order; [of_json] accepts
    any order (it reuses {!Graph.of_decls}). *)

val to_json : Graph.t -> Json.t

(** [of_json j] rebuilds a graph; reports malformed JSON structure or
    graph-level errors ({!Graph.error}) as a message. *)
val of_json : Json.t -> (Graph.t, string) result

(** [read r] reads the cxxlookup-chg document at [r] as the scanner
    validates it ({!Json.of_string_reading}, {!Json.read_string}): in
    one pass, building no tree, with [of_json]'s results and error
    text.  Repeated names are shared strings. *)
val read : Json.reader -> (Graph.t, string) result

val to_string : ?pretty:bool -> Graph.t -> string

(** [of_string s] reads [s] in one pass ({!read}): {!Json}'s error text
    for malformed JSON, else [of_json]'s result. *)
val of_string : string -> (Graph.t, string) result
