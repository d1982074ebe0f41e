(** Analytic cost model for annotated VDPs.

    Sec. 5.3 frames the materialized-vs-virtual choice as space vs
    performance. This model produces the rough estimates that drive
    the {!Advisor} and the annotation-sweep experiment (E9):
    cardinality propagation with default selectivities, per-node
    evaluation cost classes, space, and expected query/update costs
    under a workload profile. Measured tuple-operation counts from the
    simulator are the ground truth; this model only needs to rank
    alternatives the way the paper's informal reasoning does. *)

open Relalg

type profile = {
  leaf_cardinality : string -> int;  (** estimated rows per leaf *)
  update_rate : string -> float;
      (** update transactions per unit time, per leaf *)
  query_rate : string -> float;  (** queries per unit time, per export *)
  attr_access : string -> string -> float;
      (** fraction of queries on a node touching an attribute *)
  selectivity : Predicate.t -> float;
      (** estimated selectivity of a condition (use
          [default_selectivity] when unknown) *)
}

val default_selectivity : Predicate.t -> float
(** 0.1 per equality conjunct, 0.33 per inequality, 1.0 for [True]. *)

val uniform_profile :
  ?cardinality:int ->
  ?update_rate:float ->
  ?query_rate:float ->
  ?attr_access:float ->
  unit ->
  profile

val measured_profile :
  ?selectivity:(Predicate.t -> float) ->
  ?default_cardinality:int ->
  window:float ->
  leaf_cards:(string * int) list ->
  leaf_update_atoms:(string * int) list ->
  node_queries:(string * int) list ->
  attr_accesses:((string * string) * int) list ->
  unit ->
  profile
(** Profile built from counters observed over a time window of length
    [window] (simulated time units), so the analytic model can run on
    measured numbers instead of guesses: update and query rates are
    [count /. window], an attribute's access frequency is the fraction
    of the node's queries that touched it, and leaf cardinalities come
    from the last observed populations ([default_cardinality] when a
    leaf was never seen). The counter shapes match {!Med.stats}'s
    monitor tables. *)

val cardinality : Graph.t -> profile -> string -> int
(** Estimated cardinality of any node. *)

val is_expensive_join : Graph.t -> string -> bool
(** True when the node's definition contains a join with neither
    shared attributes nor equi pairs (Sec. 5.3's "no index can be
    used" case). *)

type estimate = {
  space_bytes : int;  (** materialized storage *)
  update_cost : float;  (** expected maintenance ops per unit time *)
  query_cost : float;  (** expected query ops per unit time *)
}

val estimate : ?batch:float -> Graph.t -> Annotation.t -> profile -> estimate
(** Expected costs of operating the mediator under the profile with
    the given annotation: materialized nodes incur maintenance
    proportional to upstream update rates; virtual data touched by
    queries (or by maintenance of materialized ancestors) incurs
    evaluation — plus a polling penalty when the virtual data sits at
    a leaf-parent.

    [?batch] (default 1, clamped to ≥ 1) is the observed mean
    group-commit batch size: the sibling-access component of the
    maintenance cost — including the remote polling penalty — is paid
    once per batch rather than once per transaction, so it is divided
    by [batch] while the per-update constant is kept. *)

val total : estimate -> float
(** [update_cost + query_cost] — the performance side of the
    space/performance trade-off. *)
