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

(** [of_span sp] is [of_json] of the document [sp] spans, read in
    place: no tree is built.  The same results and error text. *)
val of_span : Json.span -> (Graph.t, string) result

val to_string : ?pretty:bool -> Graph.t -> string

(** [of_string s] validates [s] ({!Json.span_of_string}), then reads
    it in place ({!of_span}). *)
val of_string : string -> (Graph.t, string) result
