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

    Each definition/edge expression compiles into a delta pipeline:
    predicates become closures over schema slot indices,
    unary select/project/rename chains fuse into a single signed pass
    over the child delta, and join rules carry their precompiled
    residual tests into {!Rel_delta}'s signed joins, and the value
    plans of the old values that joins and differences read compile
    with it. Rule structure —
    the Example 6.1 three-part join, the membership-candidate
    difference, the schema-from-child-deltas rule for no-op joins —
    matches the interpretive rule engine the tests keep as their
    oracle, and plans must agree with it on values. Operation charging
    is the per-rule delta supports, except that a fused chain charges
    per atom streamed into each step (pre-merge counts below
    duplicate-merging projections). *)

open Relalg

type t
(** A compiled delta plan. *)

val of_expr : Expr.t -> t
(** Compile. Nothing is remembered across calls: the caller keeps the
    plan (the mediator keeps one per derived node). *)

val run :
  ?indexed_join:
    (name:string ->
    on:Predicate.t ->
    ?test:(Tuple.t -> bool) ->
    ?filter:(Tuple.t -> bool) ->
    Rel_delta.t ->
    Rel_delta.t option) ->
  env:(string -> Bag.t option) ->
  deltas:(string -> Rel_delta.t option) ->
  t ->
  Rel_delta.t
(** Execute the plan of [e]. [env] gives the {e pre-update} value of
    each base relation; [deltas] the net change of each (None =
    unchanged). The result is the net delta of [e], satisfying
    [apply (eval env e) (run (of_expr e)) = eval env' e] where [env']
    is [env] with the deltas applied.

    [indexed_join ~name ~on ?test d] may compute [d ⋈ name] (on the
    pre-update value of base [name]) through a persistent join-key
    index instead of the generic hash join; [test] is [on] compiled
    once per join step, absent when [on] is [True]; returning [None]
    falls back. The IUP passes a probe into the mediator's stored tables
    here, so per-transaction [ΔA ⋈ B_old] joins skip rebuilding a key
    table over [B_old] on every update transaction.
    @raise Eval.Unbound_relation if a needed base is missing. *)
