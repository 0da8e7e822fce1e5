(** Spill runs: the governed kernels' partitions on disk.

    A run is a file of fixed-width dictionary-code rows in {!Pager}
    pages, living in the owning governor's spill directory (removed on
    every [Governor.with_ctx] exit).  Codes are safe to store bare because
    {!Dict} is process-wide and append-only and a run never outlives its
    governor: writing a run copies a chunk's code columns, and reading it
    back fills fresh code columns, with no value decoded or re-interned.

    Every scatter goes through {!Chunkrel.scatter}. *)

type run

(** Rows a run page holds at the given arity. *)
val rows_per_page : int -> int

val rows : run -> int

(** The run's file, for diagnostics and corruption tests. *)
val path : run -> string

(** Materialize the run as an in-memory relation, code columns filled
    straight from the pages.  The run's rows must be distinct, as they
    are when the run partitions a relation.  Raises [Failure] on a
    corrupt run: a page header with the wrong row count or arity, a code
    no dictionary entry has, or a truncated file. *)
val to_relation : run -> Relation.t

(** Close (without flushing) and delete the run's file.  Never raises;
    discarding twice is harmless. *)
val discard : run -> unit

(** Scatter [rel] by the key at [positions] into [parts] runs; equal keys
    land in the same run.  Caller must [discard] every run. *)
val partition_by_key :
  Qf_governor.Governor.t ->
  Relation.t ->
  positions:int array ->
  parts:int ->
  run array

(** [governed ~need in_memory spill] — the kernels' budget gate: charge
    [need] bytes around [in_memory ()] when the ambient governor's budget
    allows (or when there is no governor / no finite budget), else run
    [spill g]. *)
val governed :
  need:int -> (unit -> 'a) -> (Qf_governor.Governor.t -> 'a) -> 'a

(** Partition count targeting about a quarter of the budget per partition,
    clamped to [[2, 256]]. *)
val partition_count : Qf_governor.Governor.t -> need:int -> int

(** [partitioned g rels ~positions ~cost f] — the spill paths' shared loop.
    Co-partition the inputs [rels] (input [k] keyed at [positions.(k)])
    into runs sized by {!partition_count} for [cost] of the inputs' row
    counts.  Then, for each partition index whose runs are all non-empty,
    charge [cost] of the runs' row counts and apply [f] to the runs read
    back as relations; return the results in partition order.  A
    partition whose charge does not fit is re-scattered, a page at a
    time and under a fresh salt, into sub-partitions that are fitted the
    same way.  Only a partition that holds every row, all sharing one
    key, is beyond splitting: it raises [Governor.Over_budget].

    [f] must produce nothing from an empty input, since empty partitions
    are skipped.  Every run is discarded on return or exception. *)
val partitioned :
  Qf_governor.Governor.t ->
  Relation.t array ->
  positions:int array array ->
  cost:(int array -> int) ->
  (Relation.t array -> 'a) ->
  'a list
