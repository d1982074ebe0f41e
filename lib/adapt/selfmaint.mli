(** Self-maintenance analysis (Sec. 5.3 taken to its limit): make IUP
    maintenance need {e no source polling at all}.

    The IUP polls during an update transaction exactly when a fired
    propagation rule reads the value of a child whose needed
    attributes are not all materialized. This module runs the IUP's
    own derivation of those reads ({!Vdp.Derived_from.update_steps}
    and {!Vdp.Derived_from.step_reads}) statically, under the worst
    case "every child changed", and proposes the minimal {e auxiliary
    views} — extra materialized attributes on already-relevant child
    nodes (plus their keys) — that cover every such read. A node whose reads are
    all covered is {e self-maintaining}: its steady-state update
    transactions touch no source.

    The analysis is pure (graph + annotation in, report out). It runs
    at design time: a mediator created with the {!target} annotation
    maintains its views without polling (bench e19). *)

open Vdp

type report = {
  sm_node : string;  (** the materialized node analyzed *)
  sm_self : bool;
      (** no uncovered value reads and no blocking source: steady-state
          maintenance of this node polls nothing *)
  sm_aux : (string * string list) list;
      (** per child node: attributes to materialize (missing needed
          attributes plus the key), schema order *)
  sm_blocked : string list;
      (** reasons poll-freedom is unreachable (a contributing source
          never announces, so no deltas would arrive at all) *)
}

val analyze :
  Graph.t -> Annotation.t -> announces:(string -> bool) -> report list
(** One report per materialized node of [ann]. [announces] says
    whether a source pushes update announcements ([Source_db.announces]). *)

val target :
  Graph.t -> Annotation.t -> announces:(string -> bool) -> Annotation.t
(** [ann] extended with every unblocked report's auxiliary promotions:
    the poll-free annotation to create a mediator with. Blocked nodes
    are left untouched. *)
