(** The Virtual Attribute Processor (Sec. 6.3).

    Given requests [(node, attrs, cond)] for (projections of) virtual
    or hybrid relations, the VAP materializes temporary relations
    holding their value {e at the state the mediator's materialized
    data reflects}:

    {ol
    {- {b Phase 1} ({!closure}) closes the request set under
       [derived_from], merging requests that hit the same node (paper:
       [(B ∪ A', f ∨ g)]), walking the VDP parents-before-children. It
       reads each node's closure rule, compiled at {!Med.create}
       ({!Vdp.Derived_from.rule}), and derives per request only its
       attributes and condition; a node whose children are all leaves
       reads nothing. A caller closes once and hands the closed set to
       {!build}.}
    {- {b Phase 2} constructs the temporaries bottom-up. Leaf-parents
       are populated by polling their source — all queries against one
       source packaged into a single source transaction — and, for
       hybrid-contributor sources, rolled back by the Eager
       Compensation step: the inverse smash of every update from that
       source that the mediator has received but not yet applied
       (update-queue entries plus, during an update transaction, the
       delta being processed). A leaf-parent's source, definition and
       key columns come from its precomputed {!Med.leaf_parent}; an
       empty unseen delta leaves the polled answer as it is.}}

    A request restricts rows as well as attributes: the temporary is
    [π_attrs σ_cond node]. The condition is pushed through
    [derived_from] to the children, selects the polled rows at the
    source, and filters the ECA compensation, so compensating a
    restricted answer touches only unseen atoms satisfying [cond]. The
    IUP's update-time requests carry the delta-keyed restrictions of
    {!Delta.Inc_eval.value_restrictions}; query requests carry the
    query's condition.

    The returned temporaries are substitutes for their nodes'
    relations restricted to the requested attributes and rows, all
    consistent with [ref'(t_u)] — the reflected source versions. *)

open Relalg

type request = { r_node : string; r_attrs : string list; r_cond : Predicate.t }

type closed = private {
  c_asked : int;  (** how many requests were closed *)
  c_requests : request list;
      (** the closed set: one merged request per node, parents before
          children *)
}
(** A request set closed under [derived_from] (phase 1). *)

type result = {
  temps : (string * Bag.t) list;
      (** per node: the temporary relation [π_B σ_g node] *)
  polled_versions : (string * int) list;
      (** versions served by virtual-contributor sources in this run —
          needed for the query transaction's reflect vector *)
  polled_times : (string * float) list;
      (** state times of those answers — the freshness witnesses of
          the answer's Theorem 7.2 bound ({!Med.answer_bound}) *)
}

val build :
  Med.t -> kind:[ `Query | `Update of Delta.Multi_delta.t ] -> closed -> result
(** [`Update delta] carries the update transaction's batch delta,
    taken from the queue but not yet applied: ECA compensates polled
    answers by its inverse too (Sec. 6.4 phase (b)). A query has
    none. Must run inside a simulation process (polls block).
    @raise Med.Poll_failed when a source cannot be reached within the
    config's retry budget.
    @raise Med.Desync when a polled answer's version disagrees with
    the announcements received from a non-virtual contributor — a
    dropped or reordered message invalidated the ECA baseline; the
    source is marked dirty for resync. *)

val closure : Med.t -> request list -> closed
(** Phase 1: the full set of temporaries {!build} constructs.
    @raise Med.Mediator_error on a request for a leaf or unknown node. *)
