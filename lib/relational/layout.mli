(** The relational engine's physical layout, as a label.

    The engine has one layout: dictionary-encoded columns (see
    {!Chunkrel}).  This module exists only so that benchmark records can
    stamp the layout they ran under; it has no setting. *)

type mode = Columnar

val mode : unit -> mode
val to_string : mode -> string
