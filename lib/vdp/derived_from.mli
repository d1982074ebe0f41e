(** The [derived_from] function of Sec. 6.3, compiled per node.

    [derived_from] determines, for a request [π_attrs σ_cond node],
    which projections/selections of the node's children suffice to
    construct it: triples [(child, B, g)] meaning [π_B σ_g child] is
    needed. For each child [S] of [def(node)]:
    {ul
    {- [B = (attrs ∩ attr(S)) ∪ D_S], where [D_S] are the attributes of
       [S] used in select and join conditions inside the definition
       (cases (1)–(3) of the paper);}
    {- when the definition is a difference, [B] additionally includes
       the definition's output attributes [C] (case (4)): membership of
       whole tuples matters on both sides of a difference;}
    {- [g] is [cond] restricted to the conjuncts mentioning only
       attributes of [S] — a sound (possibly wider) push-down.}}

    Children contributing no attributes are omitted. Everything but
    the request's own attributes and condition is fixed by the
    definition, so a {!rule} holds it, computed once per node. *)

open Relalg

type rule = {
  ru_wanted : string list;
      (** the attributes the definition needs whatever the request:
          condition, natural-join and (under a difference) output
          attributes, sorted *)
  ru_reads : (string * string list) list;
      (** the node's non-leaf children with their declared attributes,
          in the definition's order; empty for a leaf-parent *)
  ru_narrow : (string -> bool) -> Expr.t;
      (** the definition with its internal projection lists narrowed to
          the attributes the predicate accepts (see {!restrict}) *)
}

val rule : Graph.t -> string -> rule
(** @raise Graph.Vdp_error if the node is a leaf or unknown. *)

val reads :
  rule ->
  attrs:string list ->
  cond:Predicate.t ->
  (string * string list * Predicate.t) list
(** [derived_from] of the request [π_attrs σ_cond node] on the node's
    non-leaf children ([attrs] within the node's schema): a leaf child
    is never requested, since the VAP polls its leaf-parent whole. *)

val needed_attrs_of_children : Graph.t -> string -> (string * string list) list
(** For update propagation: the attributes of each child, leaves
    included, that the node's definition reads (condition attributes
    plus attributes surviving to the node's schema) — [derived_from]
    with [attrs] the whole schema, without the selection components. *)

val restrict : rule -> attrs:string list -> cond:Predicate.t -> Expr.t
(** [def node] with its internal projection lists narrowed to the
    attributes needed to compute [π_attrs σ_cond node]: the request's
    attributes, every condition attribute inside the definition, and —
    for difference definitions — the full output width (set membership
    is decided on whole tuples). The result evaluates correctly over
    children restricted to their {!reads} projections, and is
    semantically equivalent to [def node] over full children. *)

(** {1 Update steps}

    The static half of the IUP's preparation phase (Sec. 6.4 phase
    (a)), shared by the IUP and the self-maintenance analysis. *)

type step = {
  s_node : string;
  s_reads : (string * string list) list;
      (** per child the node's definition reads, the attributes it
          reads ({!needed_attrs_of_children}); every child is a
          non-leaf, since the node is not a leaf-parent *)
  s_rules : Delta.Inc_eval.reads;
      (** the definition's reads, compiled against the children's
          declared schemas ({!Delta.Inc_eval.compile_reads}) *)
}

val update_steps : Graph.t -> Annotation.t -> step list
(** The nodes whose delta the IUP computes under the annotation — the
    materialized nodes and every non-leaf node below one — except the
    leaf-parents, whose delta is their leaf's filtered through the
    definition. In topological order (children before parents). *)

val step_reads :
  step ->
  changed:(string -> bool) ->
  known:(string -> Delta.Rel_delta.t option) ->
  (string * string list * Predicate.t) list
(** The children whose values one propagation through the step reads,
    given which children carry deltas ([changed]) and the deltas
    already known ([known]): [(child, attrs, cond)] per child of
    {!Delta.Inc_eval.value_restrictions} that [s_reads] lists, with its
    attributes and row restriction, sorted by child name. Only the key
    sets of the restrictions are computed per call. *)

val step_restrictable : Graph.t -> step -> (string * string) list
(** The [(child, column)] pairs a row restriction of {!step_reads} can
    name, over every [changed] and [known]: the
    {!Delta.Inc_eval.restrictable} pairs of the step's definition on
    the children [s_reads] lists. *)
