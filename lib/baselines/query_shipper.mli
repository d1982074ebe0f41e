(** The traditional fully-virtual integration baseline (Multibase
    lineage, [SBG+81, LMR90]): no local materialization at all.

    Every query is decomposed per source: the relevant
    selection/projection of each leaf is fetched (one source
    transaction per source, so the answer is consistent per source),
    and the view expression is evaluated locally on the fetched
    fragments. There is no update queue, no store, no incremental
    machinery — the whole mediator state is the view definitions.

    Squirrel subsumes this baseline (it is the fully-virtual
    annotation; see {!Vdp.Annotation.fully_virtual}), but this independent
    implementation (a) serves as the E8 comparison point with exactly
    the cost profile the paper attributes to the virtual approach, and
    (b) acts as a differential-testing oracle for Squirrel's answers. *)

open Relalg
open Vdp
open Sim
open Sources

type t

val create :
  engine:Engine.t -> vdp:Graph.t -> sources:Source_db.t list -> unit -> t
(** The VDP is used only as a carrier of the view definitions
    ([Graph.expanded_def]) and the leaf-to-source mapping. *)

val connect : t -> ?delays:(string -> float * float) -> unit -> unit
(** [delays src = (comm_delay, q_proc_delay)]. *)

val query :
  t -> node:string -> ?attrs:string list -> ?cond:Predicate.t -> unit -> Bag.t
(** Decompose, fetch, evaluate. Must run inside a simulation process.
    The baseline has no fault handling: a failed fetch raises
    {!Sources.Source_db.Source_error}. *)

type stats = {
  mutable sq_queries : int;
  mutable sq_polls : int;
  mutable sq_tuples_fetched : int;
  mutable sq_ops : int;
}

val stats : t -> stats
