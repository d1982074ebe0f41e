(** Shared state of a Squirrel integration mediator (Sec. 4).

    A mediator owns: the annotated VDP, the local store (materialized
    portions of VDP nodes + ΔR repositories), the Sec. 6.1 {!Ledger}
    (the incremental update queue, [ref'] in executable form, the seen
    versions, dirty marks and the answer cache), a transaction log for
    the correctness checker, and counters. The ledger decides; the
    transitions here record what it decided. The processors ({!Vap},
    {!Iup}, {!Qp}) operate over this state; user code goes through
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
  lp_def : Expr.t;  (** the definition a poll asks of the source *)
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
  mutable lp_poll : Source_db.prepared option;
      (** [lp_def] prepared at the leaf's source with the leaf's
          {!index_plan} columns as its keys ({!Source_db.prepare}):
          [None] until {!Mediator.connect} sets it; every VAP poll of
          the node then names this handle *)
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
    VAP closure rule) in the closure's order, and each source's
    {!index_plan}. *)

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
  leaf_reads : (string, Source_db.prepared) Hashtbl.t;
      (** per leaf, its whole-relation read prepared at its source by
          {!Mediator.connect}: what a snapshot polls *)
  ledger : Ledger.t;
      (** the Sec. 6.1 bookkeeping and the answer cache, built with each
          source's {!Ledger.contributor_kind} and invalidation closure;
          read it directly, and change it through the instrumented
          transitions below *)
  stats : stats;
  mutable log : event list;  (** newest first *)
  mutable initialized : bool;
  derived : derived;
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

(** {1 The ledger's transitions}

    Each runs one {!Ledger} transition and records its outcome: dropped
    cached answers count in [cache_invalidations]; a {!Ledger.Gap}
    counts in [gaps_detected] and records a ["gap_detected"] root event
    with the attributes [source], the version that revealed it, [seen]
    and [via] (the detector). *)

val enqueue : t -> Message.update -> unit
(** Counts an arriving announcement; a duplicate counts in
    [dup_messages_dropped] with a ["dup_dropped"] root event; a queued
    one sets [queue_depth] and records an ["enqueue"] root event. Its
    gap says [prev_version] and [version], [via "announcement"]. *)

val observe_poll : t -> via:string -> string -> int -> Ledger.outcome
(** [observe_poll t ~via source version] for a poll answer. Its gap says
    [answer_version]; [via] is ["heartbeat"], ["desync"] or
    ["slo_poll"]. *)

val take_batch : t -> Message.update list
(** Up to [config.max_batch] entries; sets [queue_depth]. *)

val after_batch :
  t ->
  Message.update list ->
  staged:(string * Table.t * Rel_delta.t) list ->
  affected:string list ->
  (string * (int * int)) list
(** {!Ledger.after_batch}, charging one tuple op per maintained atom and
    counting the dropped answers; then, with [config.release_history],
    every source releases its history up to its reflected version.
    Returns the version interval [(from, to]] each advanced source
    covered. *)

val after_snapshot : t -> (string * int * float) list -> unit
(** {!Ledger.after_snapshot}, counting the dropped answers. *)

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
(** {!Ledger.cache_serve}, counted in [cache_hits] or [cache_misses];
    always [None], counting nothing, when the config disables the
    cache. *)

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
  t -> Source_db.t -> (string * Source_db.request) list -> Message.answer
(** {!Source_db.try_poll} of the prepared requests under the config's
    timeout, retried up to [poll_retries] attempts with exponential
    backoff from [poll_backoff]. Must run in a process.
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
    (the key columns of the {!Source_db.prepare} of each leaf-parent).
    For a virtual or hybrid contributor,
    the leaf columns ({!Delta.Inc_eval.origins} followed down to the
    leaves) behind the columns the update steps' reads can be
    restricted on ({!Vdp.Derived_from.step_restrictable}) and, when
    [config.key_based_enabled], of the keys of {!node_plan}'s keyed
    children of a node with virtual attributes (what the key-based
    construction polls by), counting only children with virtual
    attributes; empty for a materialized contributor, which is never
    polled after initialization. *)
