(** Mediator-as-source: a mediator's export relations mirrored into a
    {!Sources.Source_db}, so another mediator can integrate them — the
    paper's composability claim made executable (a parent mediator
    over shard exports, tiers of mediators, etc.).

    The mirror's relations are the child's export schemas. Its version
    0 is the child's export state at {!create}, and the child's
    transaction stream ({!Med.subscribe}) keeps it exact from then on:

    {ul
    {- the export deltas ([ut_exports]) of every batch the child
       applies are committed to the mirror at the instant the child's
       tables changed — one child update transaction, one source
       version, announced immediately over the mirror's FIFO channel
       like any other source commit;}
    {- a snapshot ([Update_tx] with [ut_txs = 0]: the child resynced
       and rebuilt its store wholesale) commits the single computed
       delta that brings the mirror to the child's rebuilt export
       state.}}

    The child's exports must be fully materialized — a virtual export
    has no store contents to mirror, and {!create} rejects it.

    The mirror is read-only upstream: updates belong to the child's
    own sources, and a workload writing through
    [Sources.Adapter.mirror] gets a {!Sources.Source_db.Source_error}. *)

open Sources

type t

val create : ?name:string -> Mediator.t -> t
(** Wrap an initialized child mediator. [name] defaults to ["med:" ^
    first export name]; it is the source name the parent's VDP must
    reference.
    @raise Med.Mediator_error if the child is not initialized, has no
    exports, or some export is not fully materialized under the
    child's current annotation. *)

val name : t -> string
val child : t -> Mediator.t

val source_db : t -> Source_db.t
(** The mirror: what the parent mediator and the correctness checker
    are handed. Do not commit to it directly. *)
