(** Grouping and aggregation over relations, with set semantics.

    Grouping a relation [r] by columns [keys] partitions the distinct tuples
    of [r]; the aggregate is then computed over each group's tuples.  Because
    relations are duplicate-free, [COUNT] counts distinct tuples per group —
    exactly the support count a query flock's filter needs. *)

(** Aggregate functions over a group.  The [string] argument names the column
    the aggregate reads.  [Count] counts whole tuples. *)
type func =
  | Count
  | Sum of string
  | Min of string
  | Max of string

val pp_func : Format.formatter -> func -> unit

(** [eval func schema tuples] computes the aggregate over a non-empty group.
    [Count] yields [Real (cardinal)]; [Sum]/[Min]/[Max] read the named
    column ([Min]/[Max] use {!Value.compare}; [Sum] requires numeric values
    and raises [Invalid_argument] on a string). *)
val eval : func -> Schema.t -> Tuple.t list -> Value.t

(** [group_by rel ~keys ~func] returns a list of
    [(key_tuple, aggregate_value)] pairs, one per distinct key, in an
    unspecified order. *)
val group_by :
  Relation.t ->
  keys:string list ->
  func:func ->
  (Tuple.t * Value.t) list

(** [group_filter rel ~keys ~func ~threshold] keeps the keys whose aggregate
    value is [>= threshold] (numeric comparison) and returns them as a
    relation over [keys].  This is the FILTER step's core operation. *)
val group_filter :
  Relation.t ->
  keys:string list ->
  func:func ->
  threshold:float ->
  Relation.t

(** Like {!group_filter}, but also returns the number of candidate
    groups (the distinct key count before the threshold test — exactly
    [cardinal (project rel keys)], without the extra projection pass).
    Plan execution reports this as the a-priori candidate count. *)
val group_filter_report :
  Relation.t ->
  keys:string list ->
  func:func ->
  threshold:float ->
  Relation.t * int
