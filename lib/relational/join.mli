(** Generic joins between relations.

    The Datalog evaluator performs its own binding-passing joins; these
    free-standing operators serve the relational layer's own users (tests,
    the classic a-priori miner, CSV tooling) and the anti-join used to
    implement negated subgoals.

    Each operator builds one hash index on [b] and probes it with [a]'s
    tuples.

    [equi] and [semi] accept optional sideways-information-passing
    reducers: [sip] pairs a probe-side column position with a {!Sip.t}
    that must {e over-approximate} [b]'s values at the corresponding join
    column.  Probe rows failing a reducer are skipped before the chain
    walk; because reducers have no false negatives, the result set is
    unchanged.  (The anti-join takes no reducers — skipping a probe row
    there would wrongly {e keep} it.) *)

(** [equi a b pairs] is the equi-join of [a] and [b] on the column pairs
    [(col_of_a, col_of_b)].  The result schema is [a]'s columns followed
    by [b]'s columns that are not join targets; duplicate output names
    from [b] are suffixed with ['_2'] (escalating to ['_3'], ... if the
    suffixed name is itself taken, so the output schema never contains a
    duplicate).  An empty [pairs] yields the cross product. *)
val equi :
  ?sip:(int * Sip.t) list ->
  Relation.t ->
  Relation.t ->
  (string * string) list ->
  Relation.t

(** [semi a b pairs] keeps the tuples of [a] that join with at least one
    tuple of [b]. *)
val semi :
  ?sip:(int * Sip.t) list ->
  Relation.t ->
  Relation.t ->
  (string * string) list ->
  Relation.t

(** [anti a b pairs] keeps the tuples of [a] that join with no tuple of
    [b] — the evaluation of a negated subgoal. *)
val anti :
  Relation.t ->
  Relation.t ->
  (string * string) list ->
  Relation.t
