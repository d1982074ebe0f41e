(** Simulated autonomous source databases.

    A source database owns a set of relations, commits transactions
    against them, and interacts with a mediator in exactly the two
    ways the paper's algorithms rely on:

    {ul
    {- {b active announcement} of net update deltas (for
       materialized- and hybrid-contributors): commits accumulate into
       a pending net delta which is flushed onto the FIFO channel —
       immediately, or periodically (the paper's [ann_delay]);}
    {- {b query answering} (for hybrid- and virtual-contributors):
       {!try_poll} answers a batch of prepared requests against one
       state of the source (a single source transaction, Sec. 6.3) and
       returns the answer through the same FIFO channel, after
       flushing pending announcements so the answer never reflects
       updates the mediator cannot yet see.}}

    A poll is prepared once and asked many times, as a prepared
    statement is: {!prepare} compiles a definition over one relation
    (a leaf-parent's select/project/rename chain, or the bare leaf)
    and indexes its candidate key columns, and each {!request} names
    the handle with the attributes, condition and key of one ask. A
    poll streams the probed rows (or the whole relation) through the
    compiled chain into one answer; it plans nothing.

    Every commit produces a new {e version}; the full version history
    (with state snapshots — persistent bags make this cheap) is kept
    so the correctness checker of Sec. 3 can evaluate what the view
    {e should} have reflected.

    This is the only source type the mediator, the checker and the
    fault injectors see. Other storage families sit behind one: a
    {!Triple_store} keeps its entities aligned with an embedded
    database, and a mediator's exports are mirrored into one
    ([Squirrel.Med_source]). They differ only in how writes arrive,
    which {!Adapter} dispatches. *)

open Relalg
open Delta
open Sim

type t

type announce_mode =
  | Immediate  (** flush the net delta at every commit *)
  | Periodic of float  (** flush every [ann_delay] time units *)
  | Never  (** virtual contributor: never announces *)

(** What a poll experiences while the source is inside an outage
    window. *)
type outage_mode =
  | Refuse  (** a fast failure: a refusal travels straight back *)
  | Black_hole
      (** the request vanishes; the poller only learns via its
          timeout (polling without one is an error — it would
          deadlock the simulation) *)

type poll_error =
  | Unavailable of { u_source : string; u_until : float option }
  | Timed_out of { t_source : string; t_timeout : float }

(** A request's key: it needs only the rows of the prepared relation
    whose [k_column] equals one of [k_values] (see {!try_poll}). *)
type key = { k_column : string; k_values : Value.t list }

type prepared
(** A definition over one relation, compiled once by {!prepare}. *)

(** One ask of a prepared definition [def]: the answer is
    [π_attrs σ_cond def] over the source's current state, computed as
    one fused pass. [rq_attrs = None] projects nothing (the
    definition's own attributes), and [rq_cond = True] filters
    nothing: neither adds a step or a charge. *)
type request = {
  rq_prepared : prepared;
  rq_attrs : string list option;
  rq_cond : Predicate.t;
  rq_key : key option;
      (** every row [def] reads must pass [k_column = v] for some [v]
          in [k_values]: a conjunct of [rq_cond] or of [def] *)
}

exception Source_error of string
(** Raised by operations a source cannot honour: an unknown relation
    or version, a [load] after the first commit, a write against a
    read-only mirror, a mutation a triple store cannot render. *)

val err : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Source_error} with a formatted message. *)

val create :
  engine:Engine.t ->
  name:string ->
  relations:(string * Schema.t) list ->
  announce:announce_mode ->
  unit ->
  t

val connect :
  t -> comm_delay:float -> q_proc_delay:float -> (Message.t -> unit) -> unit
(** Attach the mediator end: messages (announcements and answers) are
    delivered to the handler over a FIFO channel with [comm_delay].
    [q_proc_delay] is the source's query-processing time. Starts the
    periodic announcer if the mode is [Periodic]. *)

val name : t -> string
val engine : t -> Engine.t
val schema : t -> string -> Schema.t
val relation_names : t -> string list

val announce_mode : t -> announce_mode
(** The announcement mode the source was created with. *)

val announces : t -> bool
(** [true] unless the mode is [Never] — i.e. the source's deltas do
    eventually reach the mediator without polling, the precondition
    for self-maintained views over it. *)

val ann_delay : t -> float
(** Worst-case announcement holding delay ([d_ann] of Theorem 7.2):
    [0] for [Immediate], the period for [Periodic], and [infinity]
    for [Never] (deltas are never pushed). *)

val comm_delay : t -> float
(** The channel delay set at {!connect} ([0] when unconnected). *)

val q_proc_delay : t -> float
(** The query-processing delay set at {!connect} ([0] when
    unconnected). *)

val load : t -> string -> Bag.t -> unit
(** Set a relation's initial (version 0) contents, rebuilding in bulk
    every index {!prepare} declared on it. Only before the first
    commit.
    @raise Source_error otherwise. *)

val set_filter :
  t -> relation:string -> attrs:string list -> cond:Predicate.t -> unit
(** Install the "filter the incremental updates at the source" 
    optimization (Sec. 6.2): announcements for the relation carry only
    the atoms satisfying [cond], projected onto [attrs] (which must
    cover the attributes of [cond] and of every leaf-parent definition
    over this relation — {!Squirrel.Mediator} computes this from the
    VDP). Commits whose announcement filters to nothing still produce
    a version heartbeat so the mediator's reflect bookkeeping stays
    exact. Polling is unaffected: polls read full relations, through an
    index when the request names a key on a declared column.
    @raise Source_error on unknown relations/attributes. *)

val commit : t -> Multi_delta.t -> unit
(** Apply a transaction atomically: bump the version, snapshot, bring
    the declared indexes in step, and stage the delta for
    announcement.
    @raise Source_error on a delta mentioning unknown relations. *)

val current : t -> string -> Bag.t
val version : t -> int

val prepare : t -> ?keys:string list -> Expr.t -> prepared
(** [prepare t ~keys def] compiles [def], a select/project/rename
    chain over one relation of the source (or the bare relation), once:
    its steps, with their slot memos kept warm across polls, and its
    output schema. Each column of [keys] (default none) is a candidate
    key column of the relation that requests may name: its index is
    built at once, in bulk, from the current relation; {!commit} keeps
    it in step and {!load} rebuilds it. Declarations accumulate:
    several handles (from several mediators) index the union of their
    columns. A mediator prepares its leaf-parents and its leaves'
    whole-relation reads when it connects.
    @raise Source_error when [def] is not such a chain over a relation
    of the source, is ill-formed over it, or a key column is unknown. *)

val try_poll :
  t ->
  ?timeout:float ->
  (string * request) list ->
  (Message.answer, poll_error) result
(** Answer labelled requests against a single state of the source and
    wait for the answer to travel back. Must be called from a
    simulation process. Pending announcements are flushed first so the
    FIFO guarantees the ECA precondition (see {!Message}).
    Failures are values: [Unavailable] when the
    source is down ({!set_outages}), [Timed_out] when no answer
    arrived within [timeout] of the call — whether because the source
    was slow, a [Black_hole] outage ate the request, or the answer
    message was lost on a faulty channel. With no [timeout] the wait
    is unbounded (and a [Black_hole] outage is an error).

    Each request streams its rows through the prepared chain, then its
    own filter and projection (the projection resolved once per
    attribute list, so only [rq_cond] is compiled per poll), straight
    into one answer bag, charging one tuple op per row for each step
    executed, in the order of [π_attrs σ_cond def]. A request that
    adds no step to a bare relation answers with the relation itself,
    uncharged. A key reads only the matching rows, so the answer is
    the unkeyed one and the cost follows the probed rows: one tuple op
    per key, plus the steps over those rows. [Null] values never match
    and are not keys; values equal under {!Value.equal} are one key.
    When the key's column was declared ({!prepare}) the rows are the
    probed buckets of its index; otherwise a scan finds them
    ({!scanned_keys}), at the same charge. A key set at least as large
    as the relation's distinct rows reads the whole relation instead,
    charging no key op. A poll never builds an index; history
    snapshots are never indexed.
    @raise Source_error when a request was prepared by another source
    or its key names an unknown column. *)

val indexed : t -> (string * string) list
(** The [(relation, column)] pairs {!prepare} declared, all of them
    indexed, sorted. *)

val scanned_keys : t -> int
(** Keys of polls served so far by a scan because their column was
    not declared. Stays 0 while every keyed poll names a declared
    column. *)

val poll_error_to_string : poll_error -> string
(** The wording the mediator records in a failed poll's trace
    attribute [result]. *)

(** {1 Fault injection} *)

val set_outages : t -> ?mode:outage_mode -> (float * float) list -> unit
(** Declare [[start, stop)] windows of simulated time during which the
    source's query interface is down. Commits and announcements are
    unaffected (the source itself stays live; only polling fails) —
    the separation lets outage tests distinguish query-path from
    update-path failures. Default mode is [Refuse]. *)

val set_channel_policy : t -> Sim.Channel.policy option -> unit
(** Install a fault policy on the source→mediator channel.
    @raise Source_error before [connect]. *)

val set_link_up : t -> bool -> unit
(** Take the source→mediator link down or up (see
    {!Sim.Channel.set_link}). @raise Source_error before [connect]. *)

val channel : t -> Message.t Sim.Channel.t option
(** The connected channel, for fault-counter inspection. *)

val in_flight : t -> int
(** Messages scheduled on the channel but not yet delivered ([0] when
    not connected). *)

(** {1 History access (for the correctness checker)} *)

val history : t -> (float * int * (string * Bag.t) list) list
(** Chronological [(commit_time, version, state)] list, starting with
    version 0 at creation time. Bounded below by the release
    watermark. *)

val release : t -> upto:int -> unit
(** Advance the release watermark: versions below [upto] will never be
    asked for again (the caller — typically a mediator whose reflected
    version has passed them) and their snapshots are pruned. The
    watermark never retreats. *)

val state_at_version : t -> int -> (string * Bag.t) list
(** @raise Source_error for an unknown (or pruned) version. *)

val commit_time_of_version : t -> int -> float

val next_commit_time_after : t -> int -> float option
(** Time at which version [v] stopped being current, if it has. *)

(** {1 Statistics} *)

val polls_served : t -> int

val poll_failures : t -> int
(** Polls that ended in [Unavailable] or [Timed_out]. *)
