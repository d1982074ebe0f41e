(** Adaptive annotation policy: the closed loop between the running
    mediator and the {!Vdp.Advisor}.

    A policy owns a {!Monitor} and runs as a periodic simulation
    process (like the update-queue flusher). Each tick it refreshes
    the smoothed workload rates, asks the advisor for a target
    annotation under the {e measured} profile, and — when the target
    differs from the live annotation — applies the migration, guarded
    by three hysteresis knobs so transient workload wiggles don't
    cause plan thrash:

    - {b warmup}: no migration before this simulated time (the first
      windows are unrepresentative);
    - {b cooldown}: minimum time between two migrations;
    - {b min_gain}: the analytic cost model ({!Vdp.Cost.estimate})
      must predict at least this relative improvement of
      [update_cost + query_cost] under the measured profile. *)

open Vdp
open Squirrel

type config = {
  interval : float;  (** tick period, simulated time (default 5.0) *)
  warmup : float;  (** earliest migration time (default 10.0) *)
  cooldown : float;  (** min time between migrations (default 10.0) *)
  min_gain : float;
      (** required relative predicted-cost improvement (default 0.05) *)
  smoothing : float;  (** monitor EMA weight (default 0.5) *)
  self_maintain : bool;
      (** extend every target with {!Selfmaint.target}'s auxiliary
          views, so materialized nodes maintain themselves without
          source polls. The extension is not cost-gated (it trades
          store space for poll-freedom, which the cost model does not
          price) and is torn down statelessly: a node the advisor
          stops materializing stops generating its auxiliaries, and
          the next diff demotes them. Default [false]. *)
  advisor : Advisor.config;
      (** default: {!Advisor.default_config} with
          [update_pressure_weight = 1.0], so measured update pressure
          can demote export attributes *)
}

val default_config : config

type event = {
  e_time : float;
  e_plan : Migrate.plan;
  e_ops : int;  (** tuple operations the migration cost *)
  e_gain : float;
      (** predicted relative gain that justified the advisor part; 0.0
          for a pure auxiliary-view migration *)
  e_aux : (string * string list) list;
      (** auxiliary attributes materialized by the selfmaint extension
          after this migration *)
}

type t

val create : ?config:config -> Med.t -> t
val monitor : t -> Monitor.t

val tick : t -> event option
(** One observation + decision + (possibly) migration. Must run inside
    a simulation process. Exposed for tests and step-wise drivers;
    {!start} calls it periodically. *)

val events : t -> event list
(** Migrations applied so far, chronological. *)

val start : t -> unit
(** Spawn the periodic process: sleep [interval], {!tick}, repeat —
    forever, like [Iup.start_flusher] (bound the run with
    [Engine.run ~until]). *)
