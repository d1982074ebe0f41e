(** Plan compiler: algebra expressions compiled into physical operator
    pipelines (the default evaluator behind {!Eval.eval}).

    A compiled plan runs each unary select/project/rename chain as one
    per-tuple pass ({!chain}) that allocates only the rows it outputs,
    and streams join and union outputs straight into the downstream
    stage. A chain of joins runs as one group: a left-deep hash cascade
    that streams its smallest input through key tables
    ({!Key_table}) over the others, or a nested loop when the
    inputs share no join variable (a cross product or a pure theta
    join). A two-input group instead builds its key table over the
    smaller input and streams the larger. A probe allocates nothing.
    Projections directly above a group gather at its last merge when
    no check remains after it. The output builder grows with the
    answer.

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
    cardinalities, except that a chain charges per tuple streamed into
    each step it reaches (a duplicate-merging projection below another
    step charges the pre-merge count). *)

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

(** One step of a unary chain. *)
type step =
  | Filter of Predicate.t  (** selection *)
  | Project of string list  (** projection *)
  | Rename of (string * string) list  (** renaming *)

val peel : step list -> Expr.t -> step list * Expr.t
(** [peel [] e] is the maximal select/project/rename chain on top of
    [e] as its steps, innermost first (execution order), and the
    expression below it. *)

val chain_schema : Schema.t -> step list -> Schema.t
(** The schema the steps give rows over a schema.
    @raise Schema.Schema_error or Expr.Expr_error when a step does not
    apply. *)

type chain
(** A unary chain compiled into one pass over its input row: filters
    that read the input row (a filter after a projection or renaming
    reads it through the names the chain gave it) and one gather, every
    projection and renaming composed, both resolved once per input
    descriptor. A passing row allocates only its output row, and none
    when the chain maps it to itself. *)

val chain : ?charge:bool -> ?prefix:chain -> step list -> chain
(** Compile steps, innermost first, run after those of [prefix] (whose
    resolution the new chain starts from, and which keeps it for the
    next chain that extends it). With [charge] (the default), a row
    charges one tuple op per step it reaches, as a compiled plan's
    chain does: a rejected row the steps up to the filter rejecting it.
    A filter naming an attribute its step does not bind (an earlier
    projection dropped it) raises [Not_found] on a row reaching it. *)

val feed : chain -> (Tuple.t -> int -> unit) -> Tuple.t -> int -> unit
(** [feed c emit tuple mult] runs one row through the chain and emits
    its image if every filter passes. A caller that keeps a chain (a
    source's prepared poll, a delta plan) streams rows through it with
    this. *)

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
