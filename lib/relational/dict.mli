(** The process-wide value dictionary backing the columnar relations.

    Every distinct {!Value.t} (under {!Value.equal} — so [Int 1] and
    [Real 1.0] stay distinct, matching tuple set semantics) maps to one
    small integer code; columnar relations store codes, and code equality
    is then exactly value equality.  The dictionary extends the existing
    string interning: {!Value.str} already canonicalizes strings, so
    encode probes compare interned strings pointer-first.

    Encoding is guarded by a mutex (use {!with_encoder} to amortize the
    lock over a bulk conversion).  Decoding is lock-free: codes index an
    append-only array republished through an [Atomic] after every
    extension, so worker domains may decode concurrently with an encoder
    on another domain. *)

(** The code for [v], assigning a fresh one on first sight. *)
val encode : Value.t -> int

(** [with_encoder f] runs [f encode] holding the dictionary lock once,
    for bulk conversions.  The encoder must not escape [f], and [f] must
    not call {!encode}/{!with_encoder} itself. *)
val with_encoder : ((Value.t -> int) -> 'a) -> 'a

(** The value for a code previously returned by an encode.  Unchecked:
    an out-of-range code raises [Invalid_argument]. *)
val decode : int -> Value.t

(** Number of codes assigned so far. *)
val size : unit -> int
