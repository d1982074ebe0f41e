(** Update and query load drivers.

    These spawn simulation processes that commit transactions at
    source databases and pose queries at a mediator, at configurable
    rates — the knobs behind the paper's "updates to relation R are
    frequent, updates to relation S are infrequent" scenarios and the
    query:update-ratio sweeps of experiment E8. *)

open Relalg
open Delta
open Sources
open Squirrel

type update_load = {
  u_relation : string;
  u_interval : float;  (** time between commits *)
  u_count : int;  (** number of commits to perform *)
  u_delete_fraction : float;
      (** probability a commit deletes an existing tuple instead of
          inserting a fresh one (deletes pick a uniformly random
          current tuple; a keyed insert replaces any tuple with the
          same key, modelling an in-place modification) *)
  u_specs : Datagen.column_spec list;
}

val update_process :
  ?start:float -> rng:Random.State.t -> src:Adapter.t -> update_load -> unit
(** Spawn the committing process (first commit one interval after
    [start], default 0 — phased workloads stagger their drivers with
    it). Key uniqueness is maintained for keyed relations. *)

val single_insert : Adapter.t -> string -> Tuple.t -> Multi_delta.t
val single_delete : Adapter.t -> string -> Tuple.t -> Multi_delta.t
(** Convenience constructors for one-atom transactions (the delete
    includes the key-replacement semantics used by [update_process]). *)

type query_load = {
  q_node : string;
  q_interval : float;
  q_count : int;
  q_attr_sets : (string list * Predicate.t) list;
      (** each query picks one (projection, condition) uniformly *)
}

val query_process :
  ?start:float -> rng:Random.State.t -> med:Mediator.t -> query_load -> unit
(** Spawn the querying process (first query one interval after
    [start], default 0). Each answer is recorded once, as the
    mediator's [Query_tx] ({!Mediator.events}). *)
