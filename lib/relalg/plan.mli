(** Plan compiler: algebra expressions compiled into physical operator
    pipelines (the default evaluator behind {!Eval.eval}).

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

    Plans are {e schema-polymorphic}: a function of the expression
    alone, with every slot plan resolved at execution time per tuple
    descriptor through one-entry memos the plan's own closures hold (a
    join node owns a {!Tuple.merger} per merge position) — the same
    definition runs over full leaf relations, materialized projections,
    and VAP temporaries carrying only the requested attributes.

    The compiler keeps no process-wide memo: a caller that evaluates
    an expression repeatedly keeps the plan, or passes its own memo to
    {!of_expr}. The mediator keeps one per instance.

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

val of_expr : ?memo:(Expr.t, t) Hashtbl.t -> Expr.t -> t
(** Compile. With [memo], the plan below a top-level
    select/project/rename chain (the whole expression when it has
    none) is looked up in [memo] by that expression and compiled into
    it on a miss; the chain itself, which carries a request's condition
    and attributes, is compiled on each call. *)

val run : t -> env:(string -> Bag.t option) -> Bag.t
(** Execute against an environment resolving base-relation names.
    @raise Unbound_relation when a base name is unresolved. *)

(** {1 Shared compilation steps}

    {!Delta.Delta_plan} compiles the same expression shapes. *)

(** One step of a fused unary chain. *)
type step =
  | Filter of (Tuple.t -> bool)  (** compiled selection *)
  | Gather of string list * (Tuple.t -> Tuple.t)  (** projection *)
  | Remap of (string * string) list * (Tuple.t -> Tuple.t)  (** renaming *)

val peel : step list -> Expr.t -> step list * Expr.t
(** [peel [] e] compiles the maximal select/project/rename chain on top
    of [e] into its steps, innermost first (execution order), and
    returns the expression below it. *)

val feed : step array -> (Tuple.t -> int -> unit) -> Tuple.t -> int -> unit
(** [feed steps emit tuple mult] runs one row through a fused chain's
    steps, innermost first, and emits its image if every filter passes,
    charging one tuple op per step executed, as a compiled plan's fused
    stage does. A caller that keeps a chain's steps (a source's
    prepared poll) streams rows through them with it. *)

val flatten_join : Expr.t -> Expr.t list * Predicate.t list
(** A chain of joins as its inputs, left to right, and the conjuncts of
    every condition along it — valid for inner joins, where conditions
    commute past join boundaries. *)

(** {1 Operation accounting}

    The global tuple-operation counter feeding the simulator's cost
    model lives here; {!Eval} re-exports these under the historical
    names. With the descriptor intern table of {!Tuple}, it is the
    only process-wide state of the relational layer. *)

val tuple_ops : unit -> int
val reset_tuple_ops : unit -> unit
val charge_tuple_ops : int -> unit
