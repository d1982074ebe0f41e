(** Incremental (delta) evaluation of algebra expressions.

    Given the pre-update value of every base relation and a delta for
    some of them, [delta_of_expr] computes the net delta of the whole
    expression. Join uses the telescoped rule of Example 6.1 —
    [Δ(A ⋈ B) = ΔA ⋈ apply(B, ΔB)  ⊎  A ⋈ ΔB] — which accounts for the
    [ΔA ⋈ ΔB] cross term when both children changed in the same update
    transaction. Difference (set semantics) is maintained by the
    membership-candidate method: only tuples whose set-membership in a
    child changed can enter or leave the output, so the work is
    proportional to the delta, not to the relations.

    This module is the generic engine behind the per-edge propagation
    rules of Sec. 5.2 (see {!Vdp.Rules} for the edge-rule view). *)

open Relalg

val delta_of_expr :
  ?indexed_join:
    (name:string ->
    on:Predicate.t ->
    ?filter:(Tuple.t -> bool) ->
    Rel_delta.t ->
    Rel_delta.t option) ->
  env:(string -> Bag.t option) ->
  deltas:(string -> Rel_delta.t option) ->
  Expr.t ->
  Rel_delta.t
(** [env] gives the {e pre-update} value of each base relation;
    [deltas] the net change of each (None = unchanged). The result is
    the net delta of the expression, satisfying
    [apply (eval env e) (delta_of_expr e) = eval env' e] where [env']
    is [env] with the deltas applied.

    [indexed_join ~name ~on d] may compute [d ⋈ name] (on the
    pre-update value of base [name]) through a persistent join-key
    index instead of the generic hash join; returning [None] falls
    back. The IUP passes a probe into the mediator's stored tables
    here, so per-transaction [ΔA ⋈ B_old] joins skip rebuilding a key
    table over [B_old] on every update transaction.

    Execution goes through the compiled delta pipelines of
    {!Delta_plan} (fused unary chains, slot-compiled predicates),
    compiled once per expression and reused on every transaction.
    @raise Eval.Unbound_relation if a needed base is missing. *)

val delta_of_expr_interp :
  ?indexed_join:
    (name:string ->
    on:Predicate.t ->
    ?filter:(Tuple.t -> bool) ->
    Rel_delta.t ->
    Rel_delta.t option) ->
  env:(string -> Bag.t option) ->
  deltas:(string -> Rel_delta.t option) ->
  Expr.t ->
  Rel_delta.t
(** The interpretive rule engine (walks the expression on every call):
    the differential-test oracle against which compiled delta plans
    are verified. Value-identical to {!delta_of_expr}. *)

val value_bases : changed:(string -> bool) -> Expr.t -> string list
(** The base relations whose {e values} [delta_of_expr] will read,
    given which bases carry deltas: an unchanged join sibling of a
    changed side is read; both difference operands are read when
    either side changes; union reads no values at all. The IUP's
    preparation phase uses this to request exactly the temporary
    relations the propagation rules will touch (Sec. 6.4 phase (a)). *)

val origins :
  schema:(string -> Schema.t) -> Expr.t -> string -> (string * string) list
(** [origins ~schema e a]: the [(base, column)] pairs whose value
    output column [a] of [e] copies, followed through select, project
    and rename and into each join side carrying [a] (a shared
    natural-join column holds one value on both sides); [[]] through a
    union or difference. [schema] gives each base's schema. *)

val value_restrictions :
  schema:(string -> Schema.t) ->
  changed:(string -> bool) ->
  known:(string -> Rel_delta.t option) ->
  Expr.t ->
  (string * Predicate.t) list
(** {!value_bases}, each paired with a restriction on the rows the
    rules can read, sorted by base name. A base X read by a join is
    restricted when the join's other operand holds exactly one changed
    base occurrence D whose delta [known] already gives, and an equi
    pair (x, d) of the join — explicit or a shared natural-join
    column, followed through select, project, rename and join — leads
    x to X and d to D: the restriction is [x ∈ keys], the sorted
    distinct d-values over ΔD's inserts and deletes, as an [Or]-chain
    of [x = v]. Every other read (difference operands, non-equi joins,
    two changed bases, a D whose delta is only known later, a Null
    key) is [True]; a base read several times gets the disjunction.
    [schema] gives each base's schema. The IUP narrows its
    update-time VAP requests with these (Sec. 6.4 phase (a)). *)
