(** Evaluation of extended conjunctive queries against a catalog.

    Evaluation is a binding-passing (sideways-information-passing) join: an
    {e environment} binds variables and parameters (keyed as in
    {!Ast.binding_key}) to values; a positive subgoal extends each
    environment with the matching tuples of its stored relation, found
    through a hash index on the already-bound argument positions; negated
    and arithmetic subgoals, and positive subgoals whose terms are all
    bound, filter environments once their terms are bound.  A whole-rule
    evaluation tests those filters inside the extension that binds their
    last term, so a row they reject is never materialized.

    The incremental {!Envs} interface is exposed because the dynamic
    query-flock executor (paper Sec. 4.4) interleaves these steps with
    support-based pruning decisions of its own. *)

exception Error of string

(** {1 Environment sets} *)

module Envs : sig
  (** A set of environments sharing one bound-key set. *)
  type t

  (** The single empty environment (neutral element for joins). *)
  val start : unit -> t

  (** Keys currently bound, in binding order. *)
  val bound_keys : t -> string list

  (** Number of environments. *)
  val count : t -> int

  (** [extend_pos catalog envs atom] joins with the stored relation for
      [atom].  Raises {!Error} on an unknown predicate or arity mismatch.

      [sip] maps binding keys (as in {!Ast.binding_key}, e.g. ["$p"]) to
      sideways-information-passing reducers: when the atom {e binds} such
      a key for the first time, candidate matches whose fresh value fails
      the reducer are dropped before the extended row is emitted.  Sound
      only when the reducer over-approximates the values the rest of the
      rule accepts for that key (reducers have no false negatives, so the
      final result set is unchanged — only intermediate rows shrink).
      Rejections are flushed as one [sip.rows_pruned] Obs count, whose
      total is deterministic across pool sizes.

      [ready] are literals whose terms are all bound once the atom's fresh
      bindings exist: comparisons, negations and fully bound positive
      subgoals.  Each candidate match that passes the SIP check is tested
      against them, and only survivors are emitted — the result equals
      extending and then filtering literal by literal, without
      materializing the rejected rows.  Raises {!Error} if a ready literal
      has a term that is still unbound.

      Every materialized environment set (here and in the filters below)
      adds its row count to the [eval.env_rows] Obs counter. *)
  val extend_pos :
    ?sip:(string * Qf_relational.Sip.t) list ->
    ?ready:Ast.literal list ->
    Qf_relational.Catalog.t ->
    t ->
    Ast.atom ->
    t

  (** [filter_neg catalog envs atom] keeps environments for which the
      instantiated atom is {e not} in its relation.  All argument terms must
      be bound (guaranteed if the rule is safe and positives ran first). *)
  val filter_neg : Qf_relational.Catalog.t -> t -> Ast.atom -> t

  (** Keep environments satisfying the arithmetic comparison. *)
  val filter_cmp : t -> Ast.term -> Ast.comparison -> Ast.term -> t

  (** [project envs ~keys ~columns] is the relation of distinct bindings of
      [keys], with schema [columns].  Raises {!Error} on an unbound key. *)
  val project : t -> keys:string list -> columns:string list -> Qf_relational.Relation.t

  (** [semijoin envs ~keys ~keep] keeps environments whose [keys]-projection
      is a tuple of [keep] — the pruning step of dynamic evaluation. *)
  val semijoin : t -> keys:string list -> keep:Qf_relational.Relation.t -> t

  (** The environments as tuples of their values in {!bound_keys} order.
      Environments are pairwise distinct. *)
  val rows : t -> Qf_relational.Tuple.t list
end

(** {1 Literal ordering} *)

(** Greedy cost-based ordering of a body: repeatedly emit every negated and
    arithmetic subgoal whose terms are bound, then the positive subgoal with
    the fewest estimated index matches (System-R-style, using catalog
    statistics) among those sharing a bound key with what is already
    placed.  Only when no remaining positive subgoal is connected does a
    cross product compete, against all candidates.  Raises {!Error} if the
    rule is unsafe. *)
val order_body : Qf_relational.Catalog.t -> Ast.rule -> Ast.literal list

(** {1 Whole-rule evaluation} *)

(** Column names for a rule's head arguments: a [Var] contributes its name,
    a constant contributes ["c<i>"]; duplicates are suffixed ["_2"], ... *)
val head_columns : Ast.rule -> string list

(** [tabulate catalog rule] treats parameters as free grouping variables and
    returns the relation with schema [$p1; ...; $pk] (sorted parameter
    names, each prefixed with [$]) followed by {!head_columns}, containing
    the distinct (parameter values, head values) combinations derivable
    from the body.  This is the building block of both direct flock
    evaluation and FILTER steps.  Raises {!Error} on an unsafe rule. *)
val tabulate :
  ?sip:(string * Qf_relational.Sip.t) list ->
  Qf_relational.Catalog.t ->
  Ast.rule ->
  Qf_relational.Relation.t

(** [answers catalog ~bindings rule] evaluates the rule with all parameters
    bound by [bindings] (keys as in {!Ast.binding_key}, e.g. ["$s"]) and
    returns the head relation.  Raises {!Error} if a parameter is unbound
    or the rule is unsafe. *)
val answers :
  Qf_relational.Catalog.t ->
  bindings:(string * Qf_relational.Value.t) list ->
  Ast.rule ->
  Qf_relational.Relation.t

(** [tabulate_query catalog query] evaluates a union: the set-union of each
    rule's {!tabulate}, with all results renamed to the first rule's schema
    (positionally).  [sip] as in {!Envs.extend_pos}, applied to every
    rule.  Raises {!Error} if {!Ast.wf_query} fails. *)
val tabulate_query :
  ?sip:(string * Qf_relational.Sip.t) list ->
  Qf_relational.Catalog.t ->
  Ast.query ->
  Qf_relational.Relation.t
