(** Columnar relation snapshots.

    A chunk stores [nrows] rows as one dictionary-encoded [int array] per
    attribute (see {!Dict}); code equality is value equality, so the hot
    kernels — hash joins, grouping, duplicate elimination — run entirely
    over flat integer arrays with no per-row allocation.  A chunk is
    immutable once built (the optional decoded-row cache is filled at most
    once, by the coordinating domain, before any parallel fan-out reads
    it); worker domains may read [cols] freely. *)

type t = {
  nrows : int;  (** explicit, so arity-0 relations keep their cardinality *)
  cols : int array array;  (** [arity] arrays of [nrows] codes *)
  mutable rows_cache : Tuple.t array option;
      (** decoded rows, filled lazily by {!rows} *)
}

(** Encode an array of (distinct) tuples, all of arity [arity].  The
    tuples double as the decoded-row cache. *)
val of_tuples : arity:int -> Tuple.t array -> t

(** The decoded rows (cached; treat as read-only). *)
val rows : t -> Tuple.t array

(** Decode a single row. *)
val tuple_at : t -> int -> Tuple.t

(** {1 Hashing}

    One mixing function shared by every code kernel (index build, probe,
    grouping, dedup), so an index built by one module can be probed by
    another: fold {!mix} over the key codes in key-position order. *)

val mix : int -> int -> int

(** [hash_key key_cols i] folds {!mix} over [key_cols.(k).(i)]. *)
val hash_key : int array array -> int -> int

(** [hash_codes codes] — same fold over an explicit key-code array
    (must agree with {!hash_key} for equal keys). *)
val hash_codes : int array -> int

(** {1 Row selection} *)

(** [gather t idxs] is the chunk of the rows of [t] at [idxs] (in that
    order), reusing the decoded-row cache when present. *)
val gather : t -> int array -> t

(** [gather_cols cols idxs] gathers bare column arrays. *)
val gather_cols : int array array -> int array -> int array array

(** [distinct_rows cols nrows] returns the indices of the first
    occurrence of each distinct row (order of first appearance). *)
val distinct_rows : int array array -> int -> int array

(** [distinct_among cols idxs] is {!distinct_rows} over the rows listed
    in [idxs] only. *)
val distinct_among : int array array -> int array -> int array

(** [concat ~arity chunks] stacks the rows of [chunks] (all of arity
    [arity]) in list order.  Distinctness is the caller's to guarantee. *)
val concat : arity:int -> t list -> t

(** Smallest power of two [>= max 16 n]. *)
val hash_capacity : int -> int

(** {1 Growable int buffers} — the parallel kernels' per-chunk output
    substrate; chunks are merged by {!Buf.concat} with no per-row
    boxing. *)
module Buf : sig
  type buf

  val create : int -> buf
  val push : buf -> int -> unit
  val push2 : buf -> int -> int -> unit
  val length : buf -> int
  val get : buf -> int -> int
  val to_array : buf -> int array

  (** The buffers' contents, in list order, in one fresh array. *)
  val concat : buf list -> int array
end

(** {1 Partitioning}

    [scatter ?salt key_cols ~parts ~lo ~hi] splits the row indices
    [[lo, hi)] into [parts] buffers (each in ascending order) by the high
    half of [hash_key key_cols i], so equal keys share a buffer.  This is
    the one partitioner: the pool's parallel grouping and dedup and the
    spill runs all scatter through it.  A non-zero [salt] folds the key
    codes from a different seed, so distinct keys that shared a partition
    under one salt spread over fresh partitions under another (an
    overflowing spill run splits this way). *)
val scatter :
  ?salt:int -> int array array -> parts:int -> lo:int -> hi:int -> Buf.buf array
