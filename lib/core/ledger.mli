(** The Sec. 6.1 bookkeeping of a mediator as plain rules: the update
    queue; per source the reflected version ([ref']), the highest
    announcement version seen, the dirty mark and the highest version
    observed; and the query answer cache, whose entries no announcement
    may outlive (Sec. 3, Theorem 7.1).

    It keeps no clock, records no trace or metric, polls no source and
    charges no tuple op: each transition returns what it did, and
    {!Med} instruments that at one place per transition. *)

open Relalg
open Delta
open Storage
open Sources

type contributor_kind =
  | Materialized_contributor
  | Hybrid_contributor
  | Virtual_contributor
(** Classification of Sec. 4: which portions (materialized/virtual) the
    source's leaves feed. Materialized and hybrid contributors
    announce; a virtual one is polled at query time. *)

type reflected = {
  r_version : int;
      (** one applied batch advances it by the whole interval its
          entries cover *)
  r_commit_time : float;
      (** commit time of the {e oldest} constituent of that jump — the
          conservative Theorem 7.2 witness under batching *)
  r_send_time : float;  (** send time of the oldest constituent *)
}

type t

val create : (string * contributor_kind * string list) list -> t
(** Every source, with its kind and its invalidation closure (every node
    whose value can depend on it), at version 0 and clean; the queue
    and the cache are empty. The list's order is {!reflect_vector}'s. *)

(** {1 Reading} *)

val contributor_kind : t -> string -> contributor_kind
(** An untracked source feeds nothing and counts as virtual. *)

val reflected : t -> string -> reflected
(** @raise Invalid_argument when the source is not tracked. *)

val reflect_vector : t -> (string * int) list
val dirty_sources : t -> string list
val queue_length : t -> int

val unseen_delta :
  t ->
  pending:Multi_delta.t ->
  source:string ->
  leaf:string ->
  schema:Schema.t ->
  Rel_delta.t
(** The smash of the updates from [source] to [leaf] (of schema
    [schema]) received but not yet applied: [pending], the batch taken
    but not yet applied, then the queued entries above the reflected
    version. Eager Compensation applies its inverse. *)

(** {1 Transitions} *)

type outcome =
  | Duplicate
      (** {!enqueue} only: at or below the seen version, a replay;
          nothing changed *)
  | Clean  (** no gap, no cached answer dropped *)
  | Dropped of int
      (** no gap; the observed version rose and dropped this many
          cached answers in the source's closure *)
  | Gap of { seen : int; dropped : int }
      (** a lost announcement, against the seen version [seen]: the
          source is dirty until a snapshot, and [dropped] cached
          answers are gone, maintained ones in its closure included *)

val enqueue : t -> Message.update -> outcome
(** Queue an announcement unless it is a {!Duplicate}; one whose
    [prev_version] is above the seen version is queued as a {!Gap}.
    The seen and observed versions rise to its [version]. *)

val observe_poll : t -> string -> int -> outcome
(** [observe_poll t source version]: a poll answer showed the source at
    [version], which raises its observed version. The poll-gap rule:
    the poll flushed every announcement ahead of its answer, so an
    announcing contributor's [version] other than the seen version is a
    {!Gap}. Never {!Duplicate}. *)

val take_batch : t -> max:int -> Message.update list
(** Up to [max] entries off the head of the queue in arrival order,
    each source's chaining gaplessly from its reflected version. A
    non-chaining entry ends the batch and stays queued with everything
    behind it; entries the reflected version covers are dropped; a
    dirty source's entries are held back in place while clean sources'
    flow past them. *)

val requeue : t -> Message.update list -> unit
(** Put a taken batch back at the head of the queue, in order. *)

type batch_effect = {
  intervals : (string * (int * int)) list;
      (** per advanced source, in {!create} order, the interval
          [(from, to]] the batch covered *)
  dropped : int;  (** cached answers invalidated or evicted *)
  maintained_atoms : int;  (** delta atoms applied to maintained answers *)
}

val after_batch :
  t ->
  Message.update list ->
  staged:(string * Table.t * Rel_delta.t) list ->
  affected:string list ->
  batch_effect
(** Once each [(node, table, ΔT)] of [staged] is applied for the batch
    [entries], whose kernel pass reached the [affected] nodes: every
    maintained answer on a staged node takes π_attrs σ_cond ΔT, or is
    evicted once the atoms it absorbed since its last hit reach the
    table's support; every other answer on an affected node is dropped.
    Then each source of the batch jumps to its newest entry, keeping
    the oldest constituent's times. *)

val after_snapshot : t -> (string * int * float) list -> int
(** Once a snapshot polled each [(source, version, state_time)]: drop
    every cached answer (returns how many), reflect [version] as of
    [state_time], raise the seen and observed versions to it, drop the
    queued entries it covers, and mark dirty exactly the sources whose
    remaining entries do not chain from it. *)

(** {1 The answer cache}

    [Fresh] answers by (node, attrs, cond). A {e maintained} entry, a
    store answer read by a scan of its node's table, follows the
    table's deltas ({!after_batch}). Every other entry is dropped when
    its node's source observes a new version or a batch reaches its
    node. Snapshots and dirty marks drop both kinds. *)

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
(** Offer the cached answer, with the polled versions and poll times of
    the VAP that produced it and the id of the query_tx span that
    computed it, to [serve]. [Some] is a hit and restarts the entry's
    eviction count; on [None] the entry is bypassed, not evicted. *)

val cache_store :
  t ->
  node:string ->
  attrs:string list ->
  cond:Predicate.t ->
  polled:(string * int) list ->
  polled_times:(string * float) list ->
  trace_id:int option ->
  scan:(Rel_delta.t -> Rel_delta.t) option ->
  Bag.t ->
  unit
(** Cache an answer, unless a source is dirty (a gap found during the
    computation has already dropped its closure). [scan], π_attrs
    σ_cond over the table's deltas, makes it a maintained entry. *)
