(** Static analysis of the incremental (delta) rules that
    {!Delta_plan.run} runs: which base values the fired rules read and
    the row restrictions those reads can carry
    ({!value_restrictions}), and which base columns an output column
    copies ({!origins}). The IUP's preparation phase asks these before
    it requests temporaries (Sec. 6.4 phase (a)). *)

open Relalg

val origins :
  schema:(string -> Schema.t) -> Expr.t -> string -> (string * string) list
(** [origins ~schema e a]: the [(base, column)] pairs whose value
    output column [a] of [e] copies, followed through select, project
    and rename and into each join side carrying [a] (a shared
    natural-join column holds one value on both sides); [[]] through a
    union or difference. [schema] gives each base's schema. *)

type reads
(** The reads of one expression's delta rules, compiled against its
    bases' schemas: everything {!value_restrictions} decides that does
    not depend on which bases changed or on their deltas. *)

val compile_reads : schema:(string -> Schema.t) -> Expr.t -> reads
(** Compile once; [schema] gives each base's schema. *)

val value_restrictions :
  ?only:string list ->
  reads ->
  changed:(string -> bool) ->
  known:(string -> Rel_delta.t option) ->
  (string * Predicate.t) list
(** The base relations whose {e values} a delta plan of the
    expression will read, given which bases carry deltas ([changed]) —
    an unchanged join sibling of a changed side is read; both
    difference operands are read when either side changes; union reads
    no values at all — each paired with a restriction on the rows the
    rules can read, sorted by base name. A base X read by a join is
    restricted when the join's other operand holds exactly one changed
    base occurrence D whose delta [known] already gives, and an equi
    pair (x, d) of the join — explicit or a shared natural-join
    column, followed through select, project, rename and join — leads
    x to X and d to D: the restriction is [x ∈ keys], the distinct
    d-values over ΔD's inserts and deletes, as one
    {!Relalg.Predicate.one_of} key set. Every other read (difference
    operands, non-equi joins, two changed bases, a D whose delta is
    only known later, a Null key) is [True]; a base read several times
    gets the disjunction. Only the key sets are computed per call, and
    with [only], only for the bases it lists: the others are left out
    of the result. The IUP narrows its update-time VAP requests with
    these (Sec. 6.4 phase (a)). *)

val restrictable :
  schema:(string -> Schema.t) -> Expr.t -> (string * string) list
(** The [(base, column)] pairs a restriction of {!value_restrictions}
    on the expression can name, whichever bases change and whatever
    their deltas: sorted and distinct. *)
