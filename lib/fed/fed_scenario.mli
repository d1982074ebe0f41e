(** The canonical federated scenario: two base relations keyed by [k]
    ([Items(k, grp, amt)] and [Tags(k, tag)]) on separate source
    databases, exporting [Enriched] (their natural join projected to
    all four attributes) and [Hot] (items with [amt >= hot_threshold]).
    Both exports are partitionable on [k], so the same VDP serves any
    shard count — the scenario behind the differential test, the chaos
    federation profile and bench e18. *)

open Relalg
open Sim
open Sources
open Vdp

val partition_key : string
(** ["k"] — the shared key of both base relations. *)

val schema_items : Schema.t
val schema_tags : Schema.t

val hot_threshold : int
(** [Hot] keeps items with [amt >= hot_threshold] (90 of 0..99). *)

val fed_vdp : unit -> Graph.t
(** Exports [Enriched] and [Hot] over sources [dbItems] and [dbTags]. *)

val make_sources :
  engine:Engine.t -> ?announce:Source_db.announce_mode -> unit -> Adapter.t list
(** Fresh [dbItems]/[dbTags] adapter pair over relational databases
    (default announce: [Immediate]) — call once per shard; every shard
    uses the same logical names. *)

val base_bags : seed:int -> keys:int -> groups:int -> Bag.t * Bag.t
(** [(items, tags)] for keys [0..keys-1]: group, amount and tag drawn
    from one deterministic sequence, so every system seeded alike
    starts from identical relations. *)
