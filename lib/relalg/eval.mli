(** Direct (non-incremental) evaluation of algebra expressions.

    Used for populating VDP nodes from scratch, building VAP temporary
    relations bottom-up, and as the re-computation against which the
    incremental machinery is verified. *)

exception Unbound_relation of string

val eval : env:(string -> Bag.t option) -> Expr.t -> Bag.t
(** Evaluate with [env] resolving base relation names.
    Duplicate-eliminating semantics per the paper: [Diff] first takes
    set-images of both operands and yields a set; [Union] and
    [Project] are bag operators.

    Execution goes through the plan compiler ({!Plan}): the expression
    is compiled on each call (fused unary stages, slot-compiled
    predicates, streaming joins) and nothing is remembered; a caller
    that evaluates the same expression repeatedly keeps its plans
    ({!Plan.of_expr}'s [memo]).
    @raise Unbound_relation when a base name is unresolved. *)

val tuple_ops : unit -> int
(** Number of elementary tuple operations performed by [eval] since
    the last [reset_tuple_ops]. The simulator's cost model charges
    mediator and source compute time proportionally to this counter. *)

val reset_tuple_ops : unit -> unit
val charge_tuple_ops : int -> unit
