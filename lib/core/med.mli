(** Shared state of a Squirrel integration mediator (Sec. 4).

    A mediator owns: the annotated VDP, the local store (materialized
    portions of VDP nodes + ΔR repositories), the incremental update
    queue, per-source reflection bookkeeping (the [ref'] function of
    Sec. 6.1 in executable form), a transaction log for the
    correctness checker, and counters. The processors ({!Vap}, {!Iup},
    {!Qp}) operate over this state; user code goes through
    {!Mediator}. *)

open Relalg
open Delta
open Vdp
open Sim
open Storage
open Sources

type delays = { comm_delay : float; q_proc_delay : float }
(** Per-source connection delays: channel latency and source
    query-processing time, fixed when {!Mediator.connect} attaches the
    source. *)

(** Mediator configuration. Build values with {!Config.make} — the
    smart constructor defaults every knob, so construction sites name
    only what they change and new knobs never break callers. *)
module Config : sig
  type t = {
    flush_interval : float;
        (** period of the update-queue flusher (the paper's
            [u_hold_delay] policy knob) *)
    op_time : float;
        (** simulated time charged per tuple operation of mediator
            compute ([u_proc]/[q_proc] of the mediator) *)
    eca_enabled : bool;
        (** Eager-Compensation on polled answers; disabling it is the
            E6 ablation and breaks consistency *)
    key_based_enabled : bool;
        (** Example 2.3's key-based construction of temporaries *)
    poll_timeout : float option;
        (** give up on a poll after this much simulated time ([None] =
            wait forever — only safe on fault-free channels) *)
    poll_retries : int;
        (** total attempt budget per poll ({!poll_with_retry}); [1]
            disables retrying *)
    poll_backoff : float;
        (** wait before the first retry; doubles on every further one *)
    version_check_interval : float option;
        (** when set, the mediator periodically polls each announcing
            source with an empty query list — an anti-entropy
            heartbeat: the poll's flush pushes any silently-lost tail
            announcement again, and a version mismatch in the answer
            marks the source for resync. Needed for convergence when
            the {e last} announcement of a run can be dropped; without
            it nothing later would reveal the gap. *)
    release_history : bool;
        (** after each update transaction, advance every source's
            release watermark ({!Sources.Source_db.release}) to the reflected
            version so snapshot history stays bounded. Incompatible
            with running a {!Correctness.Checker} afterwards, which
            replays history. *)
    answer_cache_enabled : bool;
        (** cache query answers keyed by (node, attrs, cond) and serve
            repeats without re-polling or re-reading the store; the IUP
            maintains scan-served store answers with the table's delta,
            and delta arrivals invalidate the others in the announcing
            source's upward closure. Also extends the anti-entropy
            heartbeat to virtual contributors so cached virtual answers
            notice silently dropped announcements. *)
    trace_enabled : bool;
        (** record {!Obs.Trace} span trees for every transaction;
            disable to measure instrumentation overhead (bench e16) *)
    trace_capacity : int;
        (** ring-buffer retention: how many closed root spans the
            trace keeps before overwriting the oldest *)
    max_batch : int;
        (** group-commit cap: how many queued announcements one IUP
            pass may coalesce into a single kernel pass ([1] restores
            the paper's one-transaction-per-pass behaviour; a
            mid-batch version gap always ends the batch early) *)
    delays : string -> delays;
        (** per-source connection delays, by source name;
            {!Mediator.connect} draws from this when attaching each
            source — one config surface for [create] and [connect] *)
  }

  val make :
    ?flush_interval:float ->
    ?op_time:float ->
    ?eca_enabled:bool ->
    ?key_based_enabled:bool ->
    ?poll_timeout:float ->
    ?poll_retries:int ->
    ?poll_backoff:float ->
    ?version_check_interval:float ->
    ?release_history:bool ->
    ?answer_cache_enabled:bool ->
    ?trace_enabled:bool ->
    ?trace_capacity:int ->
    ?max_batch:int ->
    ?delays:(string -> delays) ->
    unit ->
    t
  (** Defaults: [flush_interval 1.0], [op_time 1e-4], ECA and
      key-based construction on, no poll timeout, [poll_retries 3],
      [poll_backoff 0.25], no heartbeat, history retained, answer
      cache on, tracing on with capacity 4096, [max_batch 64],
      [delays] constantly [{ comm_delay = 0.05; q_proc_delay = 0.01 }].
      @raise Invalid_argument when [max_batch < 1]. *)

  val default : t
end

type config = Config.t

type queue_entry = {
  q_source : string;
  q_version : int;
  q_prev_version : int;
      (** the version this delta applies on top of — consecutive
          entries of a source must chain ([q_prev_version] = previous
          entry's [q_version]) for the queue to compose; a break means
          an announcement was lost *)
  q_commit_time : float;
  q_send_time : float;
  q_delta : Multi_delta.t;  (** over the source's (leaf) relations *)
}

type reflected = {
  r_version : int;
      (** one applied batch advances a source's version by the whole
          interval its entries cover at once *)
  r_commit_time : float;
      (** commit time of the {e oldest} constituent of the jump — the
          conservative Theorem 7.2 witness under batching *)
  r_send_time : float;
      (** send time of the oldest constituent (same convention) *)
}

type contributor_kind =
  | Materialized_contributor
  | Hybrid_contributor
  | Virtual_contributor

type reflect_entry =
  | Version of int  (** the view reflects this source version *)
  | Current  (** source not involved: reflects its current state *)

type staleness = {
  st_source : string;
  st_version : int;  (** the source version the answer does reflect *)
  st_age : float;  (** now − commit time of that version *)
}
(** Marker attached to a degraded answer: fresh data from [st_source]
    was unreachable, so the answer was served from the materialized
    store as of [st_version]. *)

type event =
  | Update_tx of {
      ut_time : float;
      ut_reflect : (string * int) list;
      ut_atoms : int;
      ut_txs : int;
          (** constituent announcements applied atomically by this
              batch ([0] for a snapshot rebuild) *)
      ut_intervals : (string * (int * int)) list;
          (** per advanced source, the version interval [(from, to]]
              the batch covered in one jump; the checker verifies the
              intervals of successive events never overlap *)
    }
  | Query_tx of {
      qt_time : float;
      qt_node : string;
      qt_attrs : string list;
      qt_cond : Predicate.t;
      qt_answer : Bag.t;
      qt_reflect : (string * reflect_entry) list;
      qt_stale : staleness list;
          (** empty for a normal answer; non-empty marks a degraded
              answer (restricted to materialized attributes) whose
              validity the checker must not enforce *)
      qt_bound : (string * float) list;
          (** the online Theorem 7.2 bound reported with the answer:
              per source, an upper bound on how stale the served data
              can be ({!answer_bound}); the checker verifies measured
              staleness never exceeds it *)
    }

type stats = {
  registry : Obs.Metrics.t;
      (** the registry every handle below lives in; snapshot it for
          rendering ([squirrel run --report profile,metrics]) *)
  update_txs : Obs.Metrics.counter;
      (** applied update transactions: group-commit batches, one
          temp-determination / VAP / kernel-pass / apply cycle each *)
  query_txs : Obs.Metrics.counter;
  queries_from_store : Obs.Metrics.counter;
      (** answered without any polling *)
  polls : Obs.Metrics.counter;
  polled_tuples : Obs.Metrics.counter;
  propagated_atoms : Obs.Metrics.counter;
  temps_built : Obs.Metrics.counter;
  key_based_constructions : Obs.Metrics.counter;
  ops_update : Obs.Metrics.counter;
  ops_query : Obs.Metrics.counter;
  messages_received : Obs.Metrics.counter;
  atoms_received : Obs.Metrics.counter;
      (** total update atoms arriving in announcements *)
  poll_retries : Obs.Metrics.counter;
      (** retry attempts beyond the first *)
  poll_failures : Obs.Metrics.counter;
      (** polls that exhausted their budget *)
  self_maintained_txs : Obs.Metrics.counter;
      (** update transactions whose delta propagation needed no source
          poll at all (every needed child attribute was covered by the
          store, auxiliary views included) *)
  slo_polls : Obs.Metrics.counter;
      (** forced polls issued by the QP to satisfy a [max_staleness]
          SLO (empty poll → announcement flush → queue drain) *)
  slo_refusals : Obs.Metrics.counter;
      (** queries refused with {!Qp.Slo_unsatisfiable}: no strategy
          could meet the requested bound *)
  degraded_answers : Obs.Metrics.counter;
      (** queries served with [Stale] markers *)
  gaps_detected : Obs.Metrics.counter;
      (** announcements whose [prev_version] exceeded what was seen *)
  dup_messages_dropped : Obs.Metrics.counter;
      (** duplicated announcements discarded by version monotonicity *)
  resyncs : Obs.Metrics.counter;
      (** snapshot rebuilds triggered by gaps *)
  update_deferrals : Obs.Metrics.counter;
      (** update transactions aborted and requeued on poll failure *)
  version_checks : Obs.Metrics.counter;
      (** anti-entropy heartbeat polls *)
  cache_hits : Obs.Metrics.counter;
      (** queries served from the answer cache without recomputation *)
  cache_misses : Obs.Metrics.counter;
      (** cache-enabled queries that had to compute their answer *)
  cache_invalidations : Obs.Metrics.counter;
      (** cached answers dropped by deltas, dirty sources, resyncs,
          or the maintained-entry eviction rule *)
  coalesced_txs : Obs.Metrics.counter;
      (** constituent update transactions folded into applied batches
          (equal to [update_txs] when [max_batch] is 1) *)
  annihilated_pairs : Obs.Metrics.counter;
      (** +t/−t atom pairs that cancelled while smashing a batch's
          announcements into its coalesced super-delta *)
  batch_size : Obs.Metrics.histogram;
      (** announcements coalesced per applied batch (its mean is the
          observed amortization factor) *)
  update_tx_time : Obs.Metrics.histogram;
      (** simulated seconds per applied update transaction *)
  query_tx_time : Obs.Metrics.histogram;
      (** simulated seconds per query transaction *)
  poll_rtt : Obs.Metrics.histogram;
      (** simulated seconds per poll, retries and backoff included *)
  queue_depth : Obs.Metrics.gauge;
      (** update-queue depth, held-back entries included, after the
          latest enqueue or batch take *)
}

type export_event =
  | Export_delta of {
      ee_time : float;
      ee_reflect : (string * int) list;
          (** source versions the export relations reflect after the
              transaction — the announcement version a downstream
              consumer would chain on *)
      ee_deltas : (string * Rel_delta.t) list;
          (** non-empty full-width deltas of export nodes, in
              {!Vdp.Graph.exports} order *)
    }
  | Export_snapshot of { es_time : float }
      (** the store was rebuilt wholesale (resync): any derived state a
          consumer holds over the exports is void and must re-read *)
(** What a downstream consumer of this mediator's export relations —
    another mediator, per the paper's composability claim — observes:
    the change stream of the exports. *)

type leaf_parent = {
  lp_node : string;
  lp_leaf : string;  (** its single child, a leaf *)
  lp_source : string;  (** the leaf's source, which the VAP polls *)
  lp_def : Expr.t;  (** the definition a poll evaluates at the source *)
  lp_columns : (string * string) list;
      (** per attribute of the node, in schema order, the one column of
          the leaf its value copies, followed through the definition
          ({!Delta.Inc_eval.origins}), when there is exactly one: a key
          set of a request on the attribute reaches the poll as a key
          on that column *)
  lp_filter : Rel_delta.t -> Rel_delta.t;
      (** the node's select/project/rename definition compiled over the
          leaf's schema into one fused pass ({!Delta.Delta_plan.unary}):
          a leaf delta's image at the node, charging no tuple op. The
          IUP's leaf-parent deltas and the VAP's Eager Compensation
          run it. *)
}

type node_plan = {
  np_mat : string list;
      (** the node's materialized attributes, in schema order: what
          {!mat_attrs} returns *)
  np_leaf : leaf_parent option;  (** [Some] for a leaf-parent *)
  np_children : (string * Schema.t) list;
      (** the definition's children with their declared schemas, in
          {!Vdp.Graph.children} order *)
  np_delta : Delta_plan.t;
      (** the compiled delta plan of the full-width restricted
          definition ({!Vdp.Derived_from.restrict} at every attribute,
          no condition) — what the IUP's kernel pass runs —
          compiled against the children's declared schemas, with its
          index joins prepared into the stored tables *)
  np_stage : (Table.t * (Rel_delta.t -> Rel_delta.t)) option;
      (** the node's table, if it has one, and the projection of the
          node's deltas onto the table's attributes *)
  np_keyed : (string * Schema.t * string list) list;
      (** [(child, schema, key)] for every child whose whole key the
          node materializes, in child order — the children Example
          2.3's key-based plan may use; empty unless the definition is
          SPJ *)
  np_rule : Derived_from.rule;
      (** the node's VAP closure rule ({!Vdp.Derived_from.rule}): the
          request-independent half of [derived_from] and of the
          restricted definition *)
}
(** The static plan of one derived node under the mediator's
    annotation. *)

type derived
(** Every annotation-dependent fact the processors read, computed once
    by {!create} (the annotation never changes afterwards): the IUP's
    update steps with their child reads ({!update_steps}), the
    leaf-parents with their leaves and poll data, parent tables for
    affected-closure walks, a {!node_plan} per derived node (with its
    VAP closure rule) in the closure's order, the per-source
    invalidation closures of the answer cache, each source's
    {!contributor_kind} and its {!index_plan}. *)

type ledger
(** The Sec. 6.1 announcement bookkeeping, reached only through the
    functions below: the update queue, and per source the reflected
    version ([ref']), the highest announcement version seen (the
    baseline for duplicate and gap detection) and the dirty mark (a
    detected gap: ECA is off until a resync). *)

type cache
(** The query answer cache and the per-source highest observed
    version that invalidates it, reached only through the functions
    below (the query answer cache section). *)

type t = {
  engine : Engine.t;
  vdp : Graph.t;
  ann : Annotation.t;  (** fixed for the mediator's lifetime *)
  tables : (string, Table.t) Hashtbl.t;
      (** the local store: one table per node with at least one
          materialized attribute, by node name; read through
          {!node_table} *)
  mutex : Engine.Mutex.t;
  config : config;
  trace : Obs.Trace.t;
      (** per-transaction span trees on the simulated clock; every
          processor opens spans here (see docs/OBSERVABILITY.md) *)
  source_tbl : (string, Source_db.t) Hashtbl.t;
  ledger : ledger;
  stats : stats;
  mutable log : event list;  (** newest first *)
  mutable initialized : bool;
  derived : derived;
  cache : cache;
  mutable export_subs : (export_event -> unit) list;
      (** mediator-as-source consumers, notified in subscription order *)
}

exception Mediator_error of string

type poll_exhausted = {
  pe_source : string;
  pe_attempts : int;
  pe_error : Source_db.poll_error;  (** the last attempt's failure *)
}

exception Poll_failed of poll_exhausted
(** {!poll_with_retry} ran out of attempts. QP degrades to a stale
    answer; IUP defers the update transaction. *)

exception Desync of string
(** A polled answer reflected a source version that disagrees with the
    announcements received — a message was lost or reordered, so the
    ECA compensation baseline is wrong. The transaction must abort and
    the source resync. *)

val err : ('a, Format.formatter, unit, 'b) format4 -> 'a

val create :
  engine:Engine.t ->
  vdp:Graph.t ->
  annotation:Annotation.t ->
  ?config:config ->
  sources:Source_db.t list ->
  unit ->
  t
(** Builds the local store: one table per node with at least one
    materialized attribute, holding the projection of the node's
    relation onto its materialized attributes. Sources are
    {!Sources.Source_db} values: a relational database, a triple
    store's export ([Triple_store.source_db]), or another mediator's
    export mirror ([Med_source.source_db]). It also builds the {!derived}
    table, compiling every definition's value and delta plans; the
    annotation is fixed from then on.
    @raise Mediator_error when a VDP source has no matching database,
    or a leaf's schema disagrees with the source's. *)

val source : t -> string -> Source_db.t

val subscribe_exports : t -> (export_event -> unit) -> unit
(** Register a consumer of the export change stream ({!export_event}).
    Subscribers run synchronously inside the producing transaction (in
    subscription order) and must not block. *)

val notify_exports : t -> export_event -> unit
(** Deliver an event to every subscriber — called by the IUP after its
    apply phase and by {!Resync.snapshot}. *)

val export_schemas : t -> (string * Schema.t) list
(** The export relations this mediator offers downstream, with their
    full schemas. *)

val mat_attrs : t -> string -> string list
val is_covered : t -> node:string -> attrs:string list -> bool
(** All the attributes are materialized on the node. *)

val node_table : t -> string -> Storage.Table.t option
val store_env : t -> string -> Bag.t option
(** Materialized portions, as an evaluation environment. *)

val contributor_kind : t -> string -> contributor_kind
(** Classification of Sec. 4, derived from the annotation: which
    portions (materialized/virtual) the source's leaves feed. A lookup
    in the {!derived} table; a source the VDP lacks feeds nothing and
    counts as virtual. *)

val watched_sources : t -> string list
(** The sources the anti-entropy heartbeat polls, in
    {!Vdp.Graph.sources} order: every announcing contributor, and with
    the answer cache on every virtual one too, so that answers cached
    against it notice versions whose announcements were dropped. *)

val reflected_version : t -> string -> reflected
(** The source's entry of [ref']. Only {!after_batch} and
    {!after_snapshot} advance it. *)

val dirty_sources : t -> string list

val gap_event : t -> source:string -> via:string -> (string * int) list -> unit
(** Record a detected announcement gap from the source: count it,
    record a ["gap_detected"] root event in the trace, with the int
    attributes [attrs] between its [source] and [via] attributes, and
    mark the source dirty. [via] names the detector (["announcement"],
    ["heartbeat"], ["desync"], ["slo_poll"]). The first mark drops
    every cached answer in the source's closure, maintained entries
    included: an answer over the gap cannot be served [Fresh]. *)

val enqueue : t -> Message.update -> unit
(** Queue an arriving announcement — after fault screening: a version
    at or below the seen version is a duplicate and is dropped
    ([dup_messages_dropped]); a [prev_version] above the seen version
    reveals a lost predecessor and marks the source dirty
    ([gaps_detected]) while still queueing the delta. *)

val take_batch : t -> queue_entry list
(** Take up to [config.max_batch] announcements off the head of the
    queue in arrival order, keeping each source's entries chaining
    gaplessly: the first entry per source must apply on top of its
    reflected version, each later one on top of the previous batch
    member. A non-chaining entry ends the batch at the boundary (it
    stays queued with everything behind it); entries at or below the
    reflected version (already covered by the initialization or a
    resync snapshot) are dropped. Entries of a dirty source are held
    back in place, and clean sources' entries flow past them. *)

val requeue : t -> queue_entry list -> unit
(** Put a taken batch back at the head of the queue, in order (an
    update transaction aborted). *)

val after_batch :
  t ->
  queue_entry list ->
  staged:(string * Table.t * Rel_delta.t) list ->
  affected:string list ->
  (string * (int * int)) list
(** [after_batch t entries ~staged ~affected], right after the IUP
    applied each [(node, table, ΔT)] of [staged] to its table ([ΔT]
    projected to the table's attributes) for the batch [entries]
    ({!take_batch}), whose kernel pass reached the [affected] nodes.
    Every maintained cache entry on a staged node becomes
    [apply answer (π_attrs σ_cond ΔT)], charged one tuple op per atom
    of [ΔT], or is evicted when its absorbed atoms reach the table's
    support cardinality; every other cached answer on an affected node
    is dropped. Then each source of the batch advances its reflected
    version to its newest entry in one jump, keeping the oldest
    constituent's commit and send times (the conservative Theorem 7.2
    witness), and with [config.release_history] every source releases
    its history up to its reflected version. Returns the version
    interval [(from, to]] each advanced source covered. *)

val after_snapshot : t -> (string * int * float) list -> unit
(** [after_snapshot t versions], once a snapshot polled each
    [(source, version, state_time)] of [versions]: drop every cached
    answer, set each source's reflected version to [version] (commit
    and send times [state_time]) and raise its seen version and
    observed high-water mark to it, drop the queued entries the
    snapshot covers, and mark dirty exactly the sources whose remaining
    entries do not chain gaplessly from their reflected version. *)

val queue_length : t -> int
(** Queued announcements, held-back ones included (constant time). *)

val unseen_delta :
  t -> pending:Multi_delta.t -> source:string -> leaf:string -> Rel_delta.t
(** The smash of all updates from [source] to [leaf] that the
    mediator has received (or taken) but whose effect is not yet in
    the materialized data: [pending] — during an update transaction,
    the batch's delta taken from the queue but not yet applied — then
    the queue entries newer than the reflected version. The ECA
    compensation is the inverse of this. *)

val log_event : t -> event -> unit
val events : t -> event list
(** Chronological. *)

val charge_ops : t -> [ `Update | `Query ] -> int -> unit
(** Account tuple operations to a transaction class and advance the
    simulated clock by [op_time] per operation (must run in a
    process). *)

(** {1 Theorem 7.2 online: freshness bounds} *)

val answer_bound :
  t ->
  ?polled_times:(string * float) list ->
  ?stale:staleness list ->
  unit ->
  (string * float) list
(** The per-source freshness bound an answer served {e now} can
    honestly report. For each source the bound is [now - w] where [w]
    is a witness instant at which the served data was current at the
    source: the poll answer's [state_time] for sources in
    [polled_times], the reflected version's send time for announcing
    contributors, the reflected commit time for sources in [stale]
    (degraded answers), and [0] (i.e. bound 0) for unpolled virtual
    contributors whose reflect entry is [Current]. The checker's
    measured staleness never exceeds this bound. *)

val poll_with_retry :
  t ->
  Source_db.t ->
  ?keys:(string * Source_db.key) list ->
  (string * Expr.t) list ->
  Message.answer
(** {!Source_db.try_poll} under the config's timeout, retried up to
    [poll_retries] attempts with exponential backoff from
    [poll_backoff]; [keys] is passed through. Must run in a process.
    @raise Poll_failed when the budget is exhausted. *)

(** {1 The derived table} *)

val update_steps : t -> Derived_from.step list
(** {!Vdp.Derived_from.update_steps} under the mediator's annotation:
    the non-leaf-parent nodes whose delta the IUP computes, in
    topological order, with their child reads. *)

val leaf_parents : t -> leaf_parent list
(** Every leaf-parent, in {!Vdp.Graph.nodes} order. *)

val nodes_down : t -> (string * node_plan) list
(** Every derived node with its plan, parents before children (the
    reverse of {!Vdp.Graph.topo_order}): the order the VAP closure
    walks. *)

val node_parents : t -> string -> string list
(** {!Graph.parents} through the derived table (no graph walk). *)

val node_plan : t -> string -> node_plan
(** @raise Mediator_error when the node is a leaf or unknown. *)

val eval : t -> env:(string -> Bag.t option) -> Expr.t -> Bag.t
(** {!Relalg.Eval.eval} through the mediator's own plan memo: the plan
    below the expression's top-level select/project/rename chain is
    compiled once per mediator (the definitions and full-width
    restricted definitions at {!create}), the chain on each call. What
    the VAP's temporaries and a resync evaluate. *)

val index_plan : t -> string -> (string * string) list
(** The source's index plan: the sorted [(relation, column)] pairs its
    keyed polls can name, which {!Mediator.connect} declares to it
    ({!Source_db.declare_indexes}). For a virtual or hybrid contributor,
    the leaf columns ({!Delta.Inc_eval.origins} followed down to the
    leaves) behind the columns the update steps' reads can be
    restricted on ({!Vdp.Derived_from.step_restrictable}) and, when
    [config.key_based_enabled], of the keys of {!node_plan}'s keyed
    children of a node with virtual attributes (what the key-based
    construction polls by), counting only children with virtual
    attributes; empty for a materialized contributor, which is never
    polled after initialization. *)

(** {1 Query answer cache}

    Holds only [Fresh] answers, keyed by (node, attrs, cond). A hit is
    served with a reflect vector and bound recomputed at serve time
    from the entry's recorded polled versions and the current
    reflected versions. Two classes of entry:

    - {e maintained}: a store answer π_attrs σ_cond T computed by a
      scan of T's table. It is what a recompute would read until the
      IUP changes the table, and {!after_batch} then updates it with
      the same delta. It is dropped on resync snapshots
      ({!after_snapshot}), when a source in its node's closure turns
      dirty ({!gap_event}), and once the delta atoms absorbed since its
      last hit reach the table's support cardinality.
    - {e invalidated}: every other answer. Dropped by the upward
      closure of an announcing source ({!enqueue}), by the IUP's
      affected closure after tables are updated ({!after_batch}), by
      any observed per-source version advance
      ({!observe_source_version}), and by the snapshots and dirty
      marks above. *)

val cache_serve :
  t ->
  node:string ->
  attrs:string list ->
  cond:Predicate.t ->
  (answer:Bag.t ->
  polled:(string * int) list ->
  polled_times:(string * float) list ->
  trace_id:int option ->
  'a option) ->
  'a option
(** [cache_serve t ~node ~attrs ~cond serve] offers the answer cached
    for the query, if any, to [serve] with the polled versions and
    poll state times of the VAP that produced it and the query_tx span
    that computed it. A [Some] result is a hit: it counts in
    [cache_hits] and restarts the entry's eviction count. [None] (no
    entry, or [serve] declined it, e.g. it cannot meet a freshness SLO:
    the entry is bypassed, not evicted) counts in [cache_misses].
    Always [None], counting nothing, when disabled by config. *)

val cache_store :
  t ->
  node:string ->
  attrs:string list ->
  cond:Predicate.t ->
  polled:(string * int) list ->
  ?polled_times:(string * float) list ->
  ?trace_id:int ->
  ?scanned:bool ->
  Bag.t ->
  unit
(** No-op when disabled by config or while a source is dirty (a gap
    found after the answer was computed). Only [Fresh] answers may be
    stored. [~scanned:true] (default [false]) marks a store answer
    π_attrs σ_cond [node] read by a scan of the node's table: the entry
    is maintained instead of invalidated. *)

val observe_source_version : t -> string -> int -> int
(** [observe_source_version t src version]: a poll answer showed [src]
    at [version]. When this advances the per-source high-water mark,
    cached answers in the source's closure are invalidated — this is
    how answers cached against a virtual contributor notice versions
    whose announcements were dropped. Returns the highest announcement
    version received from [src]: the baseline the poller's gap check
    compares [version] against. *)
