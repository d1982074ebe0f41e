(** A deterministic mixed workload over the {!Fed_scenario} exports,
    runnable against any system offering the {!sys} operations — an
    N-shard federation ({!of_fed}) or, in the tests, a plain single
    mediator. It is the engine behind the differential test (N-shard
    must equal 1-mediator answer for answer) and bench e18 (same plan,
    bigger numbers). *)

open Relalg
open Delta
open Sim
open Squirrel

type sys = {
  s_commit : Multi_delta.t -> unit;
  s_query :
    node:string -> ?attrs:string list -> ?cond:Predicate.t -> unit -> Qp.answer;
  s_quiesce : unit -> unit;
}
(** What the driver needs from a system under test. *)

val of_fed : Coordinator.t -> sys

type spec = {
  w_seed : int;
  w_keys : int;
  w_groups : int;
  w_txs : int;  (** update transactions (single-key replaces) *)
  w_queries : int;  (** interleaved queries *)
  w_commit_start : float;
  w_commit_horizon : float;  (** commits spread over this window *)
  w_query_start : float;
  w_query_horizon : float;
}

val default_spec : spec
(** Differential-test sized: 4096 keys, 512 txs, 48 queries. *)

type update_choice = {
  ch_key : int;
  ch_grp : int;
  ch_amt : int;
  ch_tag : int option;  (** every fourth transaction also retags *)
}

type query_kind =
  | Point of int  (** Enriched restricted to one key: single-shard *)
  | Group_scan of int  (** Enriched restricted to one group: scatter *)
  | Hot_scan  (** full Hot export: scatter *)

type outcome = {
  o_answers : (query_kind * Qp.answer) array;  (** in plan order *)
  o_finals : (string * Qp.answer) list;  (** full exports at the end *)
  o_last_done : float;
      (** simulated completion time of the last scheduled operation *)
  o_quiesced : float;  (** simulated time when the system went quiet *)
}

val run : engine:Engine.t -> spec:spec -> sys -> outcome
(** Load the base bags into the system beforehand; [run] schedules the
    planned commits and queries at fixed simulated times (identical
    across systems built from the same spec), drains to quiescence,
    then reads both exports in full. Call from outside any simulation
    process. *)
