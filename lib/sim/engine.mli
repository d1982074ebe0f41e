(** Discrete-event simulation engine with cooperative processes.

    The integration environment of Sec. 3 — autonomous source
    databases, a mediator, and an asynchronous network between them —
    is simulated on a single logical clock. Events are callbacks
    scheduled at absolute times; {e processes} are ordinary OCaml
    functions that may block ([sleep], [Ivar.read], [Mutex.lock]),
    implemented with OCaml 5 effect handlers, so protocol code (e.g.
    the VAP polling a source and waiting for the answer) is written in
    direct style.

    Determinism: simultaneous events fire in scheduling order. *)

type t

exception Blocked_outside_process

val create : unit -> t

val now : t -> float
(** Current simulation time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] time units from now ([delay >= 0]). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** @raise Invalid_argument if [time] is in the past. *)

val spawn : t -> (unit -> unit) -> unit
(** Start a process now. The body may use the blocking operations
    below. Uncaught exceptions in a process propagate out of [run]. *)

val sleep : t -> float -> unit
(** Block the current process for a duration.
    @raise Blocked_outside_process outside [spawn]. *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the queue is empty (or the
    clock would pass [until]; remaining events stay queued and the
    clock is left at [until]). *)

val run_process : t -> (unit -> 'a) -> 'a
(** [run_process t f] spawns [f] and runs the engine in slices of one
    time unit until [f] returns, then returns its result; events still
    queued (other processes' timers) stay queued. For driving a
    simulation from outside any process: a test, a benchmark.
    @raise Failure when [f] has not returned after 100,000 slices. *)

val pending : t -> int
(** Number of queued events. *)

val parallel : t -> (unit -> 'a) list -> 'a list
(** Fork/join: run every thunk as its own process (in list order, so
    simultaneous events stay deterministic) and block the calling
    process until all of them have finished; results are returned in
    input order. A thunk's exception is re-raised from [parallel]
    (first by input order) once every thunk has completed. Blocks only
    if some thunk blocks — otherwise usable outside a process too. *)

(** Write-once cells for cross-process synchronization. *)
module Ivar : sig
  type engine := t
  type 'a t

  val create : unit -> 'a t
  val fill : engine -> 'a t -> 'a -> unit
  (** @raise Invalid_argument if already filled. *)

  val is_filled : 'a t -> bool

  val read : engine -> 'a t -> 'a
  (** Return the value, blocking the current process until filled. *)

  val read_timeout : engine -> 'a t -> timeout:float -> 'a option
  (** Like {!read} but give up after [timeout] time units, returning
      [None]. A later [fill] still succeeds (the value is simply never
      observed by this reader) — the mechanism behind per-poll
      timeouts when an answer message is lost in transit. *)
end

(** FIFO mutex: the mediator serializes its query and update
    transactions with one of these (Sec. 6.1). *)
module Mutex : sig
  type engine := t
  type t

  val create : unit -> t
  val lock : engine -> t -> unit
  val unlock : engine -> t -> unit
  (** @raise Invalid_argument when not locked. *)

  val with_lock : engine -> t -> (unit -> 'a) -> 'a
end
