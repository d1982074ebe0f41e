(** The Query Processor (Sec. 4, Sec. 6.3, Example 2.3).

    Queries take the form [π_attrs σ_cond E] for an export relation
    [E] — the same shape the VAP consumes. The QP:

    {ul
    {- answers from the local store alone when every attribute touched
       (projected or tested) is materialized;}
    {- otherwise tries the {e key-based construction} of Example 2.3:
       if every virtual attribute belongs to a child whose key is
       materialized on the export (so that key determines it), the
       answer is the export's materialized portion joined with
       (projections of) those children. It is a semijoin: the
       materialized portion is read first and, when a condition on
       materialized attributes restricted it, each child is read only
       under the keys it holds — a probe of a stored child, a keyed
       poll of a virtual one. An unrestricted portion is the whole
       node; the construction is then taken only when it polls fewer
       children than the general one;}
    {- otherwise hands the VAP a request for a general temporary.}}

    Store reads probe a table index when the condition has a key-set
    conjunct ({!Relalg.Predicate.key_sets}) on an indexed column, so
    a point query reads its answer's rows, not the relation.

    Every query is one serialized query transaction; the answer and
    the reflect vector (which source versions it corresponds to) are
    logged for the Sec. 3 correctness checker. *)

open Relalg

type quality =
  | Fresh  (** normal answer, consistent at its reflect vector *)
  | Stale of Med.staleness list
      (** degraded answer: the named sources were unreachable, so the
          result was served from the materialized store (restricted to
          materialized attributes) as of the reflected versions *)

type answer = {
  tuples : Bag.t;  (** the answer relation *)
  quality : quality;
  reflect : (string * Med.reflect_entry) list;
      (** which source versions the answer corresponds to (one entry
          per VDP source) *)
  bound : (string * float) list;
      (** the online Theorem 7.2 freshness bound: per source, an upper
          bound on the staleness of the data served
          ({!Med.answer_bound}); the correctness checker verifies the
          measured staleness never exceeds it *)
  trace_id : int option;
      (** id of the transaction's [query_tx] root span in
          [t.Med.trace], [None] when tracing is disabled *)
}

type slo_miss = {
  sm_node : string;
  sm_slo : float;  (** the requested [max_staleness] *)
  sm_bound : (string * float) list;
      (** the best bound the chosen strategy could achieve *)
}

exception Slo_unsatisfiable of slo_miss
(** No strategy — cache, store, key-based, VAP, or a forced poll —
    could produce an answer within the requested [max_staleness]. *)

val query :
  Med.t ->
  node:string ->
  ?attrs:string list ->
  ?cond:Predicate.t ->
  ?max_staleness:float ->
  unit ->
  answer
(** One query transaction. Defaults: all attributes, no condition.
    Must run inside a simulation process.

    [max_staleness] demands a freshness SLO: the answer's reported
    {!answer.bound} must not exceed it for any source. The QP walks
    its strategy ladder under the SLO — a cached answer is bypassed
    when its recomputed bound misses; announcing contributors whose
    reflected state already lags get a forced empty poll (flushing
    their pending announcements) followed by an in-place drain of the
    update queue before planning; and the usual store / key-based /
    VAP choice then runs against refreshed state. Forced polls show as
    [slo_poll] spans and in the [slo_polls] counter.
    @raise Slo_unsatisfiable when even the escalated strategy cannot
    meet the bound (a source is down, or the poll round-trip itself
    exceeds the SLO).

    When the answer cache is enabled (config), a [Fresh] answer for
    the exact (node, attrs, cond) triple is stored after computation
    and replayed on repeats until some delta arrival, table update,
    observed source-version advance, or resync invalidates
    it; hits are logged as full query transactions with a reflect
    vector recomputed from the entry's recorded polled versions.

    When fresh data is needed and its source cannot be polled within
    the config's retry budget, the QP degrades instead of failing: the
    answer carries only the materialized subset of the requested
    attributes, applies only the conditions expressible over them, and
    is marked [Stale] with the age of the data served. The correctness
    checker exempts stale-marked transactions from validity checking.
    @raise Med.Mediator_error for a non-export node or unknown
    attributes.
    @raise Med.Poll_failed when degradation is impossible too (the
    node has no materialized portion covering any requested
    attribute). *)

val key_based_plan :
  Med.t ->
  node:string ->
  needed:string list ->
  (string * string list) list option
(** The key-based construction the QP would use for the given needed
    attributes: the [(child, key)] pairs it reads, each child's key
    materialized on the node — exposed for tests and the E3
    experiment. *)

val semijoin_cond :
  Predicate.t -> attrs:string list -> (string * Value.t list) list -> Predicate.t
(** [semijoin_cond cond ~attrs keys]: the condition the key-based
    construction polls a keyed child under — [cond] restricted to the
    child's [attrs] ({!Relalg.Predicate.restrict_to}), conjoined with
    each semijoin key set [(column, values)] it does not already hold
    (a point query on the key holds its own), so each conjunct appears
    once. *)
