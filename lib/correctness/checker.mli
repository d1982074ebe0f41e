(** Empirical verification of the Sec. 3 correctness notions.

    Theorems 7.1 and 7.2 claim Squirrel mediators are consistent and
    (given delay bounds) guaranteed fresh. This module checks both on
    real runs: sources record their full version histories, the
    mediator logs every query transaction with its reflect vector, and
    the checker independently re-evaluates the view definition
    (recovered from the VDP via [Graph.expanded_def]) against the
    claimed source versions:

    {ul
    {- {b validity}: [state(V,t) = ν(state(DB, reflect(t)))] — the
       logged answer equals the recomputed one;}
    {- {b chronology}: every reflected version was committed at or
       before the query time (the view never forecasts the future);}
    {- {b order preservation}: reflect vectors are monotone over
       successive query transactions.}}

    Because the checker recomputes from the {e claimed} versions, a
    mediator cannot pass by logging a convenient lie about one
    property without violating another: a wrong answer fails validity,
    and doctoring the vector to make it valid breaks chronology or
    monotonicity exactly as in Remark 3.1. *)

open Relalg
open Vdp
open Sources
open Squirrel

type violation = {
  v_time : float;
  v_kind :
    [ `Validity
    | `Chronology
    | `Order
    | `Freshness of string * float
    | `Bound of string * float ];
      (** [`Bound (src, observed)]: a query transaction's self-reported
          per-source freshness bound ([qt_bound]) was smaller than the
          staleness the checker measured from the source history — the
          online Theorem 7.2 bound was violated. *)
  v_detail : string;
}

type report = {
  checked_queries : int;
  degraded_queries : int;
      (** stale-marked query transactions ([qt_stale <> []]): served
          from old materialized data during a fault; chronology and
          order are still checked, validity is not — the answer
          deliberately differs from ν(reflect) *)
  update_batches : int;
      (** update transactions with at least one constituent
          announcement (snapshot/resync markers excluded) — each was
          applied as one atomic kernel pass *)
  batched_txs : int;
      (** total constituent announcements folded into those batches;
          [batched_txs / update_batches] is the mean realized batch
          size the log witnessed *)
  violations : violation list;
  max_staleness : (string * float) list;
      (** per source: the largest observed staleness over all query
          transactions (0 when always current) *)
}

val consistent : report -> bool
(** No validity/chronology/order violations ([`Freshness] and
    [`Bound] violations are reported but judged separately). *)

val bound_violations : report -> violation list
(** The [`Bound] violations of a report: query transactions whose
    measured staleness exceeded their self-reported online bound. *)

val check :
  vdp:Graph.t ->
  sources:Source_db.t list ->
  events:Med.event list ->
  unit ->
  report
(** Validate every logged query transaction against the sources'
    recorded histories. Update transactions are validated as batches:
    each advertised version interval (from, to] must be non-empty and
    must not overlap versions already reflected (an overlap means a
    constituent transaction was applied twice). *)

val check_freshness : report -> bound:(string -> float) -> violation list
(** Compare observed staleness against a per-source bound (e.g. the
    Theorem 7.2 vector of {!Squirrel.Mediator.theorem_7_2_bound}):
    returns the freshness violations. *)

(** {1 Search-based checkers (Remark 3.1 / Figure 2)}

    Independent of any self-reported reflect vector: given raw
    observations of the view and full source histories, decide
    pseudo-consistency (per-pair version vectors) and consistency
    (one global monotone assignment) by exhaustive search. Intended
    for small scenarios such as Figure 2. *)

type observation = { o_time : float; o_export : string; o_state : Bag.t }

val pseudo_consistent :
  vdp:Graph.t -> sources:Source_db.t list -> observation list -> bool

val consistent_assignment :
  vdp:Graph.t ->
  sources:Source_db.t list ->
  observation list ->
  (float * (string * int) list) list option
(** A witness monotone, chronological, valid reflect assignment — or
    [None] if none exists (then the run is {e not} consistent even
    though it may be pseudo-consistent). *)
