(** The workload-side write front end of a source.

    The mediator, the checker and the fault injectors all take a
    {!Source_db.t}: every backend embeds one, and the paper's mediator
    needs nothing beyond FIFO announcements and polls answered from a
    single source state. Backends differ only in how writes arrive. An
    adapter pairs a backend's embedded database with a tag that routes
    writes to the backend's own mutation path:

    {ul
    {- [Relational]: straight into the database;}
    {- [Triple ts]: native entity asserts/retracts first
       ({!Triple_store.commit}), then one export version;}
    {- [Mirror]: a mediator's exports mirrored as a source
       ([Squirrel.Med_source]), read-only upstream — the child
       mediator's own sources take the writes.}} *)

open Relalg
open Delta

type backend = Relational | Triple of Triple_store.t | Mirror

type t = { db : Source_db.t; backend : backend }

val relational : Source_db.t -> t
val triple : Triple_store.t -> t

val mirror : Source_db.t -> t
(** Wrap a mediator's export mirror ([Squirrel.Med_source.source_db]). *)

val db : t -> Source_db.t
(** The database the mediator is handed. *)

val kind : t -> string
(** ["relational"], ["triple"] or ["mediator"] — informational (CLI
    listings, tests). *)

val name : t -> string
val schema : t -> string -> Schema.t
val current : t -> string -> Bag.t

val commit : t -> Multi_delta.t -> unit
(** Apply a transaction atomically through the backend's mutation
    path: one new version of the database, staged for announcement.
    @raise Source_db.Source_error on an invalid delta or a mirror. *)

val load : t -> string -> Bag.t -> unit
(** Set a relation's initial (version 0) contents.
    @raise Source_db.Source_error after the first commit or on a
    mirror. *)
