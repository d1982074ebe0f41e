(** Squirrel integration mediators: the public face of the library.

    A mediator supports an integrated relational view over multiple
    autonomous source databases, with every view relation fully
    materialized, fully virtual, or hybrid, per its VDP annotation
    (Sec. 4). Build one with {!create} (or generate VDP + annotation
    from view definitions with {!Vdp.Builder} and {!Vdp.Advisor}),
    [connect] it to its sources, [initialize] it, and run the
    simulation: updates committed at the sources flow in through the
    update queue and the IUP; queries are served by the QP.

    Sources are {!Sources.Source_db} values: a relational database
    itself, a triple store's export ([Triple_store.source_db]), or
    another mediator's export mirror ([Med_source.source_db];
    mediators compose). Per-source connection
    delays live in {!Med.Config.t} ([delays]), one config surface for
    [create] and [connect]:

    {[
      let vdp = (* Vdp.Builder *) ... in
      let med =
        Mediator.create ~engine ~vdp
          ~annotation:(Vdp.Annotation.fully_materialized vdp)
          ~config:(Med.Config.make ())
          ~sources:[ db1; db2 ] ()
      in
      Mediator.connect med ();
      Engine.spawn engine (fun () ->
          Mediator.initialize med;
          let answer = Mediator.query med ~node:"T" () in
          ...)
    ]} *)

open Relalg
open Vdp
open Sim
open Sources

type t = Med.t

val create :
  engine:Engine.t ->
  vdp:Graph.t ->
  annotation:Annotation.t ->
  ?config:Med.config ->
  sources:Source_db.t list ->
  unit ->
  t
(** See {!Med.create}. *)

val connect : t -> unit -> unit
(** Wire every source's FIFO channel to this mediator's update queue
    and answer dispatch, with the per-source network/processing delays
    of [config.delays], and declare to each source its
    {!Med.index_plan}, so every index a keyed poll can probe is built
    here rather than inside a transaction. Also starts the periodic
    update-queue flusher and, when configured, the anti-entropy
    heartbeat. *)

val initialize : t -> unit
(** [t_view_init]: poll every source once (a single source transaction
    each), populate all materialized tables bottom-up, and record the
    initial reflect vector. Must run inside a simulation process.
    Stale announcements that raced with the snapshot are discarded by
    version guards. *)

val query :
  t ->
  node:string ->
  ?attrs:string list ->
  ?cond:Predicate.t ->
  ?max_staleness:float ->
  unit ->
  Qp.answer
(** One query transaction against an export relation. The answer
    record carries the tuples, the answer quality ([Stale] marks a
    degraded answer served from the materialized store because a
    source was unreachable), the reflect vector, the online Theorem
    7.2 freshness bound, and the id of the transaction's trace span
    (see {!Qp.query}). [max_staleness] demands a freshness SLO the QP
    must satisfy — by strategy choice or a forced poll — or refuse
    with {!Qp.Slo_unsatisfiable}. *)

(** {1 Theorem 7.2's a-priori freshness bound} *)

type delay_profile = {
  ann_delay : string -> float;  (** per source *)
  comm_delay : string -> float;
  q_proc_delay : string -> float;
  u_hold_delay : float;
  u_proc_delay : float;
  q_proc_delay_med : float;
}

val theorem_7_2_bound :
  sources:string list ->
  contributor:(string -> Ledger.contributor_kind) ->
  delay_profile ->
  string ->
  float
(** [f_i] per source, with [sources] the sources in scope: for
    materialized- and hybrid-contributors,
    [ann + comm + u_hold + u_proc + Σ_k (q_proc_k + comm_k)]; for
    virtual contributors, [Σ_k (q_proc_k + comm_k) + q_proc_med] —
    where [k] ranges over the {e polled} sources in scope only (those
    whose contributor kind is not [Materialized_contributor]), since
    the VAP never waits on a round-trip to a store-served source. A
    whole run's vector takes [Graph.sources]; {!freshness_bound} a
    node's sources. *)

val freshness_bound : t -> node:string -> (string * float) list
(** The vector f̄ for a node: {!theorem_7_2_bound} over the sources
    below the node, from the delays the simulation models — per
    source, its announcement holding ([infinity] for a source that
    never announces), channel and query-processing delays; the flush
    interval; and the observed mean update and query transaction
    times. *)

val enable_source_filtering : t -> unit
(** Install the Sec. 6.2 optimization of "filtering the incremental
    updates at the source databases": each source ships, per relation,
    only the atoms that can pass some leaf-parent's selection,
    projected onto the union of the leaf-parents' attribute needs
    (plus the selection attributes, so the mediator's own filters
    still evaluate). Purely a traffic optimization — propagation,
    ECA and the correctness properties are unchanged. *)

val process_updates : t -> bool
(** Run an update transaction now (see {!Iup}); [false] if the queue
    was empty. *)

(** {1 Mediator as source}

    The paper's composability claim: a mediator's export relations can
    themselves serve as sources to another tier ({!Med_source}). *)

val subscribe : t -> (Med.event -> unit) -> unit
(** Observe the events {!events} gains after {!initialize}, as they
    happen: a batch's [Update_tx] carries its export deltas
    ([ut_exports]), a resync's has [ut_txs = 0]. See {!Med.subscribe}. *)

(** {1 Introspection} *)

val annotation : t -> Annotation.t
val events : t -> Med.event list
val stats : t -> Med.stats

val trace : t -> Obs.Trace.t
(** The mediator's span recorder: every update/query transaction, poll
    (with per-attempt children), and resync appears here as
    a span tree on the simulated clock. Render with {!Obs.Trace.render}
    or export with {!Obs.Trace.to_jsonl}. *)

val metrics : t -> Obs.Metrics.t
(** The registry behind {!stats} — snapshot it for
    [squirrel run --report metrics] or serialization. *)

val contributor_kind : t -> string -> Ledger.contributor_kind
val store_bytes : t -> int
(** Space held by materialized tables (the space side of Sec. 5.3's
    trade-off). *)

val queue_length : t -> int

val describe : t -> string
(** Multi-line description: VDP, annotation, rulebase, contributor
    kinds — the "mediator specification" a Squirrel user would review. *)
