(** Spill runs: temp heap files for the governed kernels' partitioned
    fallbacks, living in the owning governor's spill directory (removed
    on every [Governor.with_ctx] exit). *)

type run

(** A fresh run in [g]'s spill directory. *)
val create : Qf_governor.Governor.t -> Schema.t -> run

val add : run -> Tuple.t -> unit
val rows : run -> int

(** Bytes occupied on disk (page granularity). *)
val bytes : run -> int

(** Materialize the run as an in-memory relation.  The run's rows must be
    distinct, as they are when the run partitions a relation. *)
val to_relation : run -> Relation.t

(** Close (without flushing) and delete the run's file.  Never raises. *)
val discard : run -> unit

(** [governed ~need in_memory spill] — the kernels' budget gate: charge
    [need] bytes around [in_memory ()] when the ambient governor's budget
    allows (or when there is no governor / no finite budget), else run
    [spill g]. *)
val governed :
  need:int -> (unit -> 'a) -> (Qf_governor.Governor.t -> 'a) -> 'a

(** Partition count targeting about a quarter of the budget per partition,
    clamped to [2, 256]. *)
val partition_count : Qf_governor.Governor.t -> need:int -> int

(** Hash-partition [rel] by the key at [positions] into [parts] runs;
    equal keys land in the same run.  Caller must [discard] every run. *)
val partition_by_key :
  Qf_governor.Governor.t ->
  Relation.t ->
  positions:int array ->
  parts:int ->
  run array

(** Record the runs' sizes on the governor ([governor.spill.*]). *)
val note_runs : Qf_governor.Governor.t -> run array -> unit
