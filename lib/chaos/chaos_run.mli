(** One cell of the chaos matrix: a scenario run under an injected
    fault profile, driven past the fault window, healed, quiesced, and
    checked for convergence, consistency and trace invariants. Shared
    by the e14 bench harness (the full matrix) and the CLI's [chaos]
    subcommand (one cell, for reproducing a failing seed). *)

open Workload

(** {1 Scenarios} *)

type scenario = { entry : Scenario.t; annotation : string }
(** A catalogue scenario under one of its named annotations. *)

val scenarios : scenario list
(** [fig1] (hybrid: polls exposed to outages), [ex51] (deep VDP),
    [retail] (fully materialized premium view). *)

val scenario_names : string list
val scenario_by_name : string -> scenario option

(** {1 Single-mediator cells} *)

type run = {
  c_scenario : string;
  c_profile : string;
  c_seed : int;
  c_quiesced : bool;
  c_converged : bool;
  c_consistent : bool;
  c_fresh : int;
  c_stale : int;
  c_refused : int;
  c_sent : int;
  c_delivered : int;
  c_dropped : int;
  c_duplicated : int;
  c_polls : int;
  c_retries : int;
  c_poll_failures : int;
  c_degraded : int;
  c_gaps : int;
  c_dups_dropped : int;
  c_resyncs : int;
  c_deferrals : int;
  c_heartbeats : int;
  c_retry_spans : int;
      (** poll spans that needed more than one attempt *)
  c_degraded_spans : int;  (** query_tx spans marked degraded *)
  c_resync_spans : int;  (** resync spans in the trace *)
  c_trace_ok : bool;  (** trace invariants held *)
  c_bound_violations : int;
      (** answers whose observed staleness exceeded their reported bound *)
  c_bounds_ok : bool;  (** no answer overran its online freshness bound *)
  c_batches : int;  (** group-commit batches applied *)
  c_batched_txs : int;  (** constituent announcements folded into them *)
  c_note : string;
}

val passed : run -> bool
(** Quiesced, converged to the fault-free reference, transaction
    framework consistent, trace invariants held, and every answer's
    observed staleness within its reported online bound. *)

val run_one : ?max_batch:int -> ?tag:string -> scenario -> Faults.profile -> int -> run
(** Run one (scenario, fault profile, seed) cell end to end.
    [?max_batch] overrides the mediator's group-commit cap (the
    batching sub-matrix runs with a small cap so fault windows land on
    batch boundaries); [?tag] is appended to the recorded profile name
    to keep such cells distinguishable in reports. *)

(** {1 Federation cells}

    The same discipline applied to the sharded federation
    ({!Fed.Coordinator}): a 4-shard {!Fed.Fed_scenario} federation
    runs the deterministic {!Fed.Fed_workload} mix while one shard is
    taken away mid-window, then brought back. *)

val fed_profiles : string list
(** [["kill"; "partition"]]: [kill] marks the shard dead (the router
    degrades, staleness markers must name only the lost shard);
    [partition] severs its source links while the router keeps fanning
    to it (answers go silently stale until resync). *)

type fed_run = {
  f_profile : string;
  f_seed : int;
  f_shards : int;
  f_victim : int;  (** the shard taken away *)
  f_outage_queries : int;  (** queries landing inside the outage *)
  f_outage_stale : int;  (** of those, degraded answers *)
  f_bad_markers : int;
      (** outage staleness markers naming anything but the victim
          (must be 0 under [kill]) *)
  f_resyncs : int;  (** shard resyncs observed federation-side *)
  f_final_fresh : bool;  (** post-heal full-export answers fresh *)
  f_converged : bool;  (** ... and equal to the fault-free reference *)
  f_note : string;
}

val fed_passed : fed_run -> bool
(** Converged fresh after heal with at least one resync, no marker
    ever blaming a healthy shard, and (under [kill]) the outage
    actually surfaced degraded answers. *)

val run_federation : profile:string -> seed:int -> fed_run
(** Run one federation chaos cell. @raise Invalid_argument for a
    profile outside {!fed_profiles}. *)
