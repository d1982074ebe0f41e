(** Annotation advisor implementing the heuristics of Sec. 5.3.

    The paper gives "general suggestions about the trade-offs of
    virtual and materialized approaches" rather than precise rules;
    this advisor turns them into a deterministic procedure:

    {ol
    {- {b Leaf-parents} (auxiliary copies of remote data): materialize
       a leaf-parent when the demand from its siblings' updates reaches
       its own maintenance traffic (Example 2.2: frequent updates to R
       with rare updates to S make R' virtual and S' materialized).}
    {- {b Expensive joins} (no usable equality): materialize at least
       the key attributes from the underlying relations, so virtual
       attributes can be fetched efficiently through the key
       (Example 2.3 / Example 5.1's E).}
    {- {b Cheap intermediate nodes}: a non-export node whose
       definition is easy to evaluate from materialized children stays
       virtual (Example 5.1's F).}
    {- {b Export attributes}: materialize key attributes, attributes
       needed by parents' propagation rules, and attributes whose
       query-access frequency passes a threshold; leave rarely
       accessed attributes virtual.}}

    The administrator runs it once, at design time: the annotation it
    returns is the one a mediator is created with. Every decision
    carries a human-readable justification. *)

type profile = {
  update_rate : string -> float;
      (** update transactions per unit time, per leaf *)
  attr_access : string -> string -> float;
      (** fraction of queries on a node touching an attribute *)
}
(** The workload the advice is for. *)

val uniform_profile : profile
(** Every leaf updated once per unit time; every attribute touched by
    half of the queries. *)

val is_expensive_join : Graph.t -> string -> bool
(** True when the node's definition contains a join with neither
    shared attributes nor equi pairs (Sec. 5.3's "no index can be
    used" case). *)

val advise :
  ?access_threshold:float -> Graph.t -> profile -> Annotation.t * string list
(** The advised annotation plus one explanation line per non-default
    decision. An export attribute accessed by at least
    [access_threshold] (default 0.25) of queries is materialized. *)
