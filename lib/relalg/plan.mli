(** Plan compiler: algebra expressions compiled once into physical
    operator pipelines (the default evaluator behind {!Eval.eval}).

    A compiled plan fuses unary select/project/rename chains into a
    single per-tuple pass (no intermediate bag per operator), compiles
    predicates to closures over schema slot indices, and streams join
    and union outputs straight into the downstream stage. A chain of
    joins runs as one group: a left-deep hash cascade that streams its
    smallest input through key tables over the others, or a nested
    loop when the inputs share no join variable (a cross product or a
    pure theta join). A two-input group instead builds its key table
    over the smaller input and streams the larger. A probe allocates
    nothing. The output of a fused chain over one source is presized
    from that source's distinct tuples.

    Plans are {e schema-polymorphic}: keyed by the expression alone,
    with every slot plan resolved at execution time per tuple
    descriptor through the physical layer's one-entry memos — the same
    definition runs over full leaf relations, materialized projections,
    and VAP temporaries carrying only the requested attributes.

    The tests check plans against an interpretive evaluator, value for
    value. Operation charging is the per-operator input
    cardinalities, except that a fused stage charges per tuple
    streamed into it (a duplicate-merging projection below another
    stage charges the pre-merge count). *)

exception Unbound_relation of string
(** Raised when the environment cannot resolve a base relation.
    Re-exported by {!Eval} under the same name. *)

type t
(** A compiled plan. *)

val of_expr : Expr.t -> t
(** Compile (or fetch from the global compile-once memo). A top-level
    select/project/rename chain is not memoized: it is compiled afresh
    on each call over the memoized plan of its input. *)

val expr : t -> Expr.t
(** The source expression of a plan. *)

val run : t -> env:(string -> Bag.t option) -> Bag.t
(** Execute against an environment resolving base-relation names.
    @raise Unbound_relation when a base name is unresolved. *)

val eval : env:(string -> Bag.t option) -> Expr.t -> Bag.t
(** [run (of_expr e) ~env]. *)

val compiled_plans : unit -> int
(** Number of expressions compiled through the memo so far
    (process-wide). The top-level select/project/rename chains that
    {!of_expr} compiles per call are not counted; the input below such
    a chain is, once. *)

(** {1 Operation accounting}

    The global tuple-operation counter feeding the simulator's cost
    model lives here; {!Eval} re-exports these under the historical
    names. *)

val tuple_ops : unit -> int
val reset_tuple_ops : unit -> unit
val charge_tuple_ops : int -> unit
