(** Set-semantics relations.

    A relation is a schema plus a set of tuples of matching arity.  Insertion
    of a duplicate tuple is a no-op, so every relation is duplicate-free — a
    requirement of the query-flocks formalism (the paper's claims fail under
    bag semantics).

    Every kernel reads a relation as a columnar {!Chunkrel.t} of
    dictionary-encoded code arrays.  Insertion and membership ({!add},
    {!mem}) go through a hash set of {!Tuple.t}s; each representation is
    materialized lazily from the other on demand. *)

type t

(** An empty, mutable relation with the given schema. *)
val create : Schema.t -> t

(** Wrap a columnar chunk whose rows are {e known distinct} (kernel
    outputs: selections, joins over set inputs, deduplicated
    projections).  The tuple set is built lazily if ever needed.  Raises
    [Invalid_argument] on an arity mismatch with the schema. *)
val of_chunkrel : Schema.t -> Chunkrel.t -> t

(** The columnar snapshot of the current version, built from the tuple
    set on first demand and cached until the next mutation.  The chunk
    is immutable. *)
val codes : t -> Chunkrel.t

(** Force materialization of the columnar snapshot (load boundaries call
    this so the first kernel does not pay the conversion mid-query). *)
val prepare : t -> unit

(** A process-unique identity, assigned at {!create}.  Together with
    {!version} it keys the catalog's index cache. *)
val id : t -> int

(** Monotonic modification counter: bumped on every insertion that
    actually changes the tuple set.  Cached indexes built against an
    older version are stale. *)
val version : t -> int

val schema : t -> Schema.t
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

(** [add rel tup] inserts [tup]; duplicates are ignored.  Raises
    [Invalid_argument] on an arity mismatch. *)
val add : t -> Tuple.t -> unit

val mem : t -> Tuple.t -> bool
val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Tuples in an unspecified order. *)
val to_list : t -> Tuple.t list

(** Tuples sorted by {!Tuple.compare}; convenient for golden tests. *)
val to_sorted_list : t -> Tuple.t list

val of_list : Schema.t -> Tuple.t list -> t

(** Convenience: build from lists of value lists. *)
val of_values : string list -> Value.t list list -> t

(** [project rel cols] projects (with duplicate elimination) onto [cols]. *)
val project : t -> string list -> t

(** [select rel pred] keeps tuples satisfying [pred]. *)
val select : t -> (Tuple.t -> bool) -> t

(** Set union; schemas must have equal arity (result keeps [a]'s schema). *)
val union : t -> t -> t

(** Set difference [a - b]; arities must match. *)
val diff : t -> t -> t

(** Distinct values appearing in a column. *)
val column_values : t -> string -> Value.t list

(** Approximate in-memory size, for the catalog's LRU byte budgets.  A
    function of cardinality and arity only, never of which
    representations are materialized. *)
val approx_bytes : t -> int

(** [bytes_for ~arity ~rows] is {!approx_bytes} of a relation of that
    shape, for sizing a partition before it is read back from disk. *)
val bytes_for : arity:int -> rows:int -> int

(** [equal a b] — same set of tuples (schemas must have equal arity). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
