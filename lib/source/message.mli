(** Messages travelling from a source database to a mediator.

    Both incremental-update announcements and poll answers ride the
    {e same} FIFO channel. This ordering is load-bearing: it guarantees
    that when a poll answer reflecting source version [v] arrives,
    every update announcement up to [v] has already arrived (it is in
    the mediator's update queue or already processed) — exactly the
    precondition the Eager-Compensation step of Sec. 6.3 needs to roll
    a polled answer back to the state the mediator's materialized data
    reflects. *)

open Relalg
open Delta
open Sim

type update = {
  source : string;
  prev_version : int;
      (** source version the previous announcement brought the
          receiver to — the delta covers versions
          [(prev_version, version]]. Lets a mediator detect a dropped
          announcement: an arriving update whose [prev_version]
          exceeds every version it has seen implies a gap. *)
  version : int;  (** source version after the last included commit *)
  commit_time : float;  (** commit time of the last included commit *)
  send_time : float;
  delta : Multi_delta.t;
      (** net delta over the source's relations since the previous
          announcement (one "undividable" message, Sec. 4) *)
}

type answer = {
  answer_source : string;
  answer_version : int;  (** source version the results reflect *)
  state_time : float;  (** when the source evaluated the queries *)
  results : (string * Bag.t) list;  (** keyed by request label *)
}

type t =
  | Update of update
  | Answer of answer Engine.Ivar.t * answer
      (** the receiving end fills the ivar on delivery, waking the
          mediator process blocked in [Source_db.try_poll] *)
