(** Ordered, delayed message channels with optional fault injection.

    Sec. 4's correctness argument assumes "the messages transferred
    from one source database to the mediator must be in order": by
    default a channel delivers messages FIFO, each after (at least)
    the channel's delay — a later message is never delivered before an
    earlier one even if delays would allow it. One channel models one
    direction of one source-to-mediator link.

    A {!policy} relaxes the perfect-link assumption: per-message the
    policy may drop the message, deliver extra duplicate copies, or
    add delay jitter. Jittered messages still respect FIFO order
    (arrival is clamped to the previous delivery) unless the policy
    explicitly sets [reorder] — the one knob that breaks a stated
    paper assumption, kept behind a flag for that reason. A link can
    also be taken down entirely ({!set_link}), dropping every send
    until it comes back up. All randomness lives inside the policy's
    [decide] closure, so seeded policies make fault runs fully
    deterministic. *)

type 'a t

(** Per-message fault verdict. *)
type decision = {
  d_drop : bool;  (** lose the message entirely *)
  d_dup : int;  (** deliver this many extra copies *)
  d_jitter : float;  (** extra delay beyond the channel's base delay *)
}

val no_fault : decision
(** [{d_drop = false; d_dup = 0; d_jitter = 0.0}] *)

type policy = {
  decide : unit -> decision;
      (** called once per send (and once more per duplicate copy, for
          its jitter); owns whatever seeded randomness it needs *)
  reorder : bool;
      (** allow jitter to violate FIFO delivery order (explicitly
          relaxes the paper's ordered-channel assumption) *)
}

val create : Engine.t -> delay:float -> ('a -> unit) -> 'a t
(** [create engine ~delay handler]: messages are delivered by invoking
    [handler] (as a plain event, not a process) after [delay],
    preserving send order. Created with no fault policy and the link
    up: a perfect FIFO link. *)

val send : 'a t -> 'a -> unit

val set_policy : 'a t -> policy option -> unit
(** Install ([Some]) or remove ([None]) the fault policy. *)

val set_link : 'a t -> up:bool -> unit
(** Take the link down (every send is dropped) or bring it back up.
    Messages already in flight still arrive. *)

val delay : 'a t -> float
val sent_count : 'a t -> int
val delivered_count : 'a t -> int
val dropped_count : 'a t -> int
(** Messages lost to the policy or a downed link. *)

val duplicated_count : 'a t -> int
(** Extra copies delivered beyond the original sends. *)

val in_flight : 'a t -> int
(** Deliveries scheduled but not yet handed to the handler. *)
