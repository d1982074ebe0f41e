(** Deterministic, seed-driven fault injection.

    A {!profile} bundles the fault knobs of the source→mediator
    channels ({!Sim.Channel.policy}: drop, duplicate, delay jitter,
    optional reordering) with source outage windows
    ({!Sources.Source_db.set_outages}). {!apply} installs a profile on
    a set of sources for a window of simulated time, seeding one
    independent RNG per (seed, source) — two runs with the same seed,
    profile, and workload replay the exact same fault sequence, so a
    failing chaos-matrix entry reproduces from its seed alone.

    The paper (Sec. 4) assumes reliable, order-preserving channels;
    every profile except [reorder] keeps the FIFO clamp and merely
    delays, loses, or repeats messages — faults the mediator's
    recovery layer (gap detection, retry/backoff, degraded answers,
    resync) must absorb. [reorder] relaxes the ordering assumption
    itself. *)

open Sim
open Sources

type profile = {
  p_name : string;
  p_drop : float;  (** per-message drop probability *)
  p_dup : float;  (** per-message duplication probability *)
  p_jitter : float;  (** extra delay, uniform in [0, p_jitter) *)
  p_reorder : bool;  (** disable the FIFO clamp (paper relaxation) *)
  p_outage : (float * float) list;
      (** outage windows as fractions of the fault window *)
  p_outage_mode : Source_db.outage_mode;
}

(** {1 Named profiles} *)

val none : profile

val jitter : profile
(** Delay noise only; FIFO preserved. *)

val drop : profile
(** Lost announcements: gap detection must trigger resync. *)

val dup : profile
(** Replayed messages: deduplicated by version monotonicity. *)

val outage : profile
(** Refused polls: retry/backoff, then degraded answers. *)

val blackhole : profile
(** Vanished polls: only per-poll timeouts reveal the failure. *)

val reorder : profile
(** Unordered delivery: the desync check must force resync. *)

val chaos : profile
(** All of the above at once. *)

val all : profile list
val names : string list
val name : profile -> string
val by_name : string -> profile option

(** {1 Installation} *)

val apply :
  engine:Engine.t ->
  seed:int ->
  window:float * float ->
  profile ->
  Source_db.t list ->
  unit
(** Install the profile's channel policy on every source (sources must
    be connected) and schedule its outage windows, all scaled into
    [window] — outside it the policy injects nothing, so runs can
    initialize cleanly, suffer faults, heal, and be checked for
    convergence. *)

val clear : Source_db.t list -> unit
(** Remove policies and outage windows. *)
