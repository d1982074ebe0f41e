(** Incremental (delta) evaluation of algebra expressions, compiled:
    the delta counterpart of {!Relalg.Plan}.

    Given the pre-update value of every base relation and a delta for
    some of them, a plan's {!run} computes the net delta of the whole
    expression. Join uses the telescoped rule of Example 6.1 —
    [Δ(A ⋈ B) = ΔA ⋈ apply(B, ΔB)  ⊎  A ⋈ ΔB] — which accounts for the
    [ΔA ⋈ ΔB] cross term when both children changed in the same update
    transaction. Difference (set semantics) is maintained by the
    membership-candidate method: only tuples whose set-membership in a
    child changed can enter or leave the output, so the work is
    proportional to the delta, not to the relations. This is the
    generic engine behind the per-edge propagation rules of Sec. 5.2
    (see {!Vdp.Rules} for the edge-rule view).

    A plan is compiled against the schemas of its bases' deltas, and
    everything those schemas fix is decided in {!of_expr}: predicates
    become closures over schema slot indices; unary
    select/project/rename chains fuse into a single signed pass over
    the child delta with a precomputed output schema; and each n-ary
    join compiles one term per input that can change — the order in
    which the term's delta probes the other inputs, the conjuncts each
    probe tests (compiled), the prepared index join of each probe-able
    input, the leftover test and the canonical output schema. The value
    plans of the old values that joins and differences read compile
    with it. A {!run} then decides only which inputs changed and
    whether a temporary shadows a probed table. Rule structure — the
    Example 6.1 three-part join, the membership-candidate difference —
    matches the interpretive rule engine the tests keep as their
    oracle, and plans must agree with it on values. Operation charging
    is the per-rule delta supports, except that a fused chain charges
    per atom streamed into each step (pre-merge counts below
    duplicate-merging projections). *)

open Relalg

type t
(** A compiled delta plan. *)

type index =
  name:string ->
  left:Schema.t ->
  on:Predicate.t ->
  test:(Tuple.t -> bool) option ->
  filter:(Tuple.t -> bool) option ->
  (Rel_delta.t -> Rel_delta.t) option
(** [index ~name ~left ~on ~test ~filter] prepares [d ⋈ name] for
    deltas [d] over [left], on the pre-update value of base [name]
    through a persistent join-key index, or declines with [None] (the
    generic hash join then runs). [test] is [on] compiled, absent when
    [on] is [True]; [filter] screens the base's tuples (selections over
    the base, pushed down). The IUP prepares probes into the mediator's
    stored tables here ({!Storage.Table.delta_join}), so a
    per-transaction [ΔA ⋈ B_old] skips rebuilding a key table over
    [B_old]. *)

val of_expr : ?index:index -> schema:(string -> Schema.t) -> Expr.t -> t
(** Compile against [schema], the schema of each base's delta (and of
    the empty delta of an unchanged base). Nothing is remembered across
    calls: the caller keeps the plan (the mediator keeps one per derived
    node). *)

val run :
  ?shadowed:(string -> bool) ->
  env:(string -> Bag.t option) ->
  deltas:(string -> Rel_delta.t option) ->
  t ->
  Rel_delta.t
(** Execute the plan of [e]. [env] gives the {e pre-update} value of
    each base relation; [deltas] the net change of each (None =
    unchanged). The result is the net delta of [e], satisfying
    [apply (eval env e) (run (of_expr e)) = eval env' e] where [env']
    is [env] with the deltas applied. A base for which [shadowed]
    holds (default: none) is joined through its value in [env], not
    through its prepared index join: a temporary stands in for its
    table.
    @raise Eval.Unbound_relation if a needed base is missing.
    @raise Invalid_argument if a delta's schema is not the one the
    plan was compiled for. *)

val unary : Schema.t -> Expr.t -> Rel_delta.t -> Rel_delta.t
(** [unary schema e] compiles the select/project/rename chain [e] over
    one base whose deltas are over [schema] into one fused signed pass
    with its output schema precomputed (deltas commute with select,
    project and rename, Sec. 6.2). It charges no tuple operation: the
    mediator's leaf-parent filters.
    @raise Invalid_argument if [e] is not such a chain. *)
