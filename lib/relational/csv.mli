(** Minimal CSV import/export for relations.

    Format: first line is the header (column names), subsequent lines are
    rows.  Fields are comma-separated; a field containing a comma, a double
    quote or a newline is written double-quoted with embedded quotes doubled,
    and such quoting is understood on input.  On input a line ends at
    [\n] or [\r\n]; a lone [\r] is field data (written quoted).  A
    leading UTF-8 byte-order mark is ignored.  Field values are parsed with
    {!Value.of_string} (integers, then floats, then strings). *)

(** Raises [Failure] on malformed input. *)
val parse_string : string -> Relation.t

val to_string : Relation.t -> string

(** Raises [Sys_error] on I/O failure, [Failure] on malformed input. *)
val load : string -> Relation.t

val save : string -> Relation.t -> unit
