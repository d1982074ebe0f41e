(** The federation coordinator: N mediator shards behind one router.

    Each shard is a complete Squirrel mediator — own update queue,
    store, answer cache, annotation state — over its own set of source
    databases holding the hash partition of every relation
    ({!Partition}). The coordinator:

    {ul
    {- routes update transactions to owning shards by partition key
       ({!commit});}
    {- answers queries by scatter-gather ({!query}): sub-queries fan
       out to the shards whose partitions can intersect the predicate
       (a single-shard fast path when the key is bound), per-shard
       signed-bag answers merge by bag union, and per-shard reflect
       vectors and qualities merge into one federation-wide guarantee
       ({!Merge}) surfaced through the ordinary {!Squirrel.Qp.answer}
       record;}
    {- degrades gracefully when {!Chaos} takes shards away: a dead
       shard contributes staleness markers naming it
       (["shardN:source"]) instead of tuples, so the answer is
       [Stale] but the healthy partitions still serve.}}

    Everything runs on one {!Sim.Engine} clock, so an N-shard
    federation under one seed is exactly reproducible. The
    coordinator keeps its own {!Obs.Metrics} counters ({!metrics});
    each shard's mediator keeps its own trace. *)

open Relalg
open Delta
open Vdp
open Sim
open Sources
open Squirrel

type shard = {
  sh_id : int;
  sh_sources : (string * Adapter.t) list;  (** by source name *)
  sh_med : Mediator.t;
  mutable sh_alive : bool;
}

type t

val create :
  engine:Engine.t ->
  vdp:Graph.t ->
  key:string ->
  shards:int ->
  make_sources:(shard:int -> Adapter.t list) ->
  ?annotation:(Graph.t -> Annotation.t) ->
  ?config:Med.config ->
  unit ->
  t
(** Build the federation: [make_sources ~shard:i] must create shard
    [i]'s own source adapters carrying the {e same logical names} the
    VDP references (each shard holds its partition of every relation).
    The shard's mediator is handed each adapter's database; routed
    loads and commits go through the adapters.
    All shards share the VDP structure and annotation
    (default: fully materialized) and are connected immediately
    with the per-source delays of [config.delays]. Each shard's
    answer cache follows [config]; merged answers are not cached, so
    every federation query reflects what its shards serve now.
    @raise Failure when [shards <= 0] or a leaf schema lacks [key]. *)

val shard_count : t -> int
val shard : t -> int -> shard
val mediator : t -> int -> Mediator.t
val vdp : t -> Graph.t
val metrics : t -> Obs.Metrics.t
(** Coordinator counters ([fed_queries], [fed_fanouts],
    [fed_single_shard], [fed_degraded_answers], [fed_routed_txs],
    [fed_routed_atoms], [fed_shard_resyncs]). [fed_shard_resyncs] is
    the sum of the shard mediators' [resyncs], read at each call. *)

val load : t -> string -> Bag.t -> unit
(** Split a relation's initial contents by key ownership and load each
    partition into the owning shard's source (before any commit). *)

val initialize : t -> unit
(** Initialize every shard concurrently ({!Sim.Engine.parallel}).
    Must run inside a simulation process. *)

val commit : t -> Multi_delta.t -> unit
(** Route an update transaction: split by key, group each shard's
    slice by owning source database, and commit there. A transaction
    whose atoms all share one key touches exactly one shard.
    Non-blocking. *)

val query :
  t ->
  node:string ->
  ?attrs:string list ->
  ?cond:Predicate.t ->
  unit ->
  Qp.answer
(** One federation query transaction (scatter-gather). Defaults: all
    attributes, no condition. Must run inside a simulation process.

    The answer's [tuples] are the bag union of the targeted live
    shards' answers; [reflect] is the {!Merge.merge_reflect} of their
    vectors; [quality] is [Fresh] only if every contributing shard
    answered fresh {e and} no targeted shard was dead — a dead shard
    contributes [shardN:source] staleness markers instead of tuples
    (partial-answer policy); [trace_id] is [None]: the shards' query
    spans are in their own mediators' traces. Queries may overlap: the
    coordinator's own state is its counters. *)

val run_to_quiescence : t -> unit
(** {!Workload.Scenario.quiesce} over every shard: advance the
    simulation until every shard's queue is empty and no messages
    arrived for two consecutive slices.
    @raise Workload.Scenario.No_quiescence after 100k slices, naming
    each shard's in-flight messages per source. *)

(** {1 Failure injection} *)

val kill : t -> int -> unit
(** Take a shard out: mark it dead (the router stops fanning to it —
    its partition's answers degrade) and cut its source links, so
    announcements committed meanwhile are lost and the shard must
    detect the gap and resync after {!revive}. Idempotent. *)

val revive : t -> int -> unit
(** Bring a killed shard back: links up, routing resumes. The shard's
    own gap-detection/heartbeat machinery drives the resync; the
    [fed_shard_resyncs] counter surfaces it federation-side.
    Idempotent. *)

val partition_links : t -> int -> bool -> unit
(** Network partition without the coordinator noticing: cut (or heal)
    the shard's source links while the router keeps treating it as
    alive — its answers silently go stale until resync, the federation
    reconverges after healing. *)

val describe : t -> string
(** Multi-line topology rendering: shard ids, liveness, sources, queue
    depths, transaction counts, store sizes. *)
