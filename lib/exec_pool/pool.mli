(** A stamp-only stub of the retired worker pool.

    Every kernel runs sequentially.  This module exists only so that the
    repository benchmark's records can keep stamping the pool size and
    parallel threshold they ran under; nothing else uses it. *)

type t

(** The one pool there is. *)
val default : unit -> t

(** Always [1]. *)
val size : t -> int

(** Always [max_int]: no kernel ever fans out. *)
val par_threshold : unit -> int
