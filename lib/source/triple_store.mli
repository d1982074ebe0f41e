(** A triple (entity–attribute–value) store serving a relational
    export.

    The native data model is not relational: the store holds
    {e entities}, each a bag of [(entity, attribute, value)] triples,
    and its native mutations are {!put} (assert a new entity with its
    property triples) and {!delete} (retract one entity). Following
    the RDF-integration line of work, the store {e exports} a
    relational façade: each entity classified under relation [R]
    renders as one tuple of [R], with bag multiplicity given by the
    number of entities rendering to the same tuple.

    The bridge into Squirrel's update algebra is the delta mapping:
    every native mutation is translated into a signed-bag delta
    against the relational export and committed through an embedded
    {!Source_db}, which supplies versioning, history snapshots,
    announcement channels, outage windows and the release watermark — so a triple
    store participates in announcement-based view maintenance, VAP
    polling and the Sec. 3 correctness checker without the mediator
    knowing its shape: the mediator is handed {!source_db}.
    Conversely a relational {!commit} (e.g. from the workload driver
    through {!Adapter.commit}) is translated back into entity
    asserts/retracts, keeping both views of the data aligned. *)

open Relalg
open Delta
open Sim

type t

val create :
  engine:Engine.t ->
  name:string ->
  relations:(string * Schema.t) list ->
  announce:Source_db.announce_mode ->
  unit ->
  t
(** An empty store whose relational export has the given schemas. *)

val put : t -> relation:string -> (string * Value.t) list -> int
(** Assert a new entity classified under [relation], with one triple
    per property. Returns the fresh entity id. The properties must
    bind exactly the relation's schema (export rendering is total).
    Commits one version of the relational export: a single-tuple
    insertion delta.
    @raise Source_db.Source_error on schema mismatch. *)

val delete : t -> int -> unit
(** Retract an entity by id; commits the matching single-tuple
    deletion delta. @raise Source_db.Source_error if the id is unknown
    (already retracted, or never asserted). *)

val get : t -> int -> (string * (string * Value.t) list) option
(** [(relation, properties)] of a live entity. *)

val name : t -> string
val source_db : t -> Source_db.t
(** The embedded relational export: what the mediator polls and the
    checker replays. Treat it as read-only: write through {!commit},
    {!load} or the native mutations, or the native state
    desynchronizes. *)

val commit : t -> Multi_delta.t -> unit
(** Apply a relational delta as native asserts/retracts (retracting,
    per tuple, the most recently asserted matching entity), then commit
    it to the export as one version, so reflect vectors and version
    cadence are identical to a relational twin fed the same deltas.
    The whole delta is validated first: on an unknown relation, a
    tuple that does not render into its schema, or a retraction no
    entity renders, nothing changes.
    @raise Source_db.Source_error on an invalid delta. *)

val load : t -> string -> Bag.t -> unit
(** Set a relation's initial contents: one entity per tuple copy.
    @raise Source_db.Source_error after the first commit or on a tuple
    that does not render into the schema. *)
