(** Mutable stored relations with optional hash indexes.

    A table holds the "current population" repository of a VDP node
    (the ['R'] repository of Sec. 6.4). Tables are bags; set nodes
    simply never acquire multiplicities above one. Secondary hash
    indexes support the key-based lookups of Example 2.3 and give join
    evaluation its cheap equality probes. *)

open Relalg
open Delta

type t

exception Table_error of string

val create : ?indexes:string list list -> name:string -> Schema.t -> t
(** [create ~indexes ~name schema] makes an empty table. Each element
    of [indexes] is an attribute list to maintain a hash index on; the
    schema's key (if any) is always indexed, and a composite key is
    also indexed one attribute at a time. *)

val name : t -> string
val schema : t -> Schema.t

val insert : ?mult:int -> t -> Tuple.t -> unit
val delete : ?mult:int -> t -> Tuple.t -> unit
(** Monus deletion (clamped at zero), keeping indexes in sync. *)

val load : t -> Bag.t -> unit
(** Replace the whole contents. *)

val clear : t -> unit

val contents : t -> Bag.t
(** The current population (O(1): tables share the persistent bag). *)

val apply_delta : t -> Rel_delta.t -> unit

val cardinal : t -> int
val support_cardinal : t -> int

val mem : t -> Tuple.t -> bool
val mult : t -> Tuple.t -> int

val lookup : t -> string list -> Value.t list -> Bag.t
(** [lookup t attrs values] returns all tuples with the given values
    on [attrs], using a hash index when one exists on exactly those
    attributes (in order), otherwise scanning.
    @raise Table_error if an attribute is unknown. *)

val has_index_on : t -> string list -> bool

val probe : t -> string list -> Value.t list -> (Tuple.t -> int -> unit) -> unit
(** [probe t attrs values f] calls [f tuple mult] for every stored
    tuple matching [values] on [attrs], through the hash index on
    exactly those attributes — the O(1)-per-probe path used by
    incremental join propagation.
    @raise Table_error when no such index exists. *)

val probe1 : t -> string -> Value.t -> (Tuple.t -> int -> unit) -> unit
(** Single-attribute {!probe} without the key-list allocation. *)

val delta_join :
  ?on:Predicate.t ->
  ?filter:(Tuple.t -> bool) ->
  Rel_delta.t ->
  t ->
  Rel_delta.t option
(** [delta_join d t]: the signed join [d ⋈ contents t], computed by
    probing [t]'s persistent join-key index — one probe per delta atom
    instead of a key table rebuilt over the whole stored bag. [None]
    when no index matches the join keys of [on]; callers fall back to
    the generic hash join. [filter] (default: keep all) screens stored
    tuples before they are combined — the push-down of a selection
    sitting over the table in the joined expression. *)

(** {1 Statistics}

    Table statistics feed the cost-based join chooser ({!Joinopt} via
    the mediator's stats hook) and the CLI profile report. *)

type index_stats = {
  ix_on : string list;  (** indexed attributes, in order *)
  ix_distinct : int;  (** distinct key values currently present *)
  ix_max_chain : int;  (** longest per-key chain (distinct tuples) *)
}

type stats = {
  st_rows : int;  (** bag cardinality, multiplicities included *)
  st_support : int;  (** distinct tuples *)
  st_indexes : index_stats list;
}

val stats : t -> stats
(** O(distinct keys) per index: cells are counted, not tuples. *)

val pp_stats : Format.formatter -> stats -> unit

val bytes_estimate : t -> int
(** Rough space estimate (for the space-vs-performance tables of the
    Sec. 5.3 experiments): tuples * arity * word size. *)

val pp : Format.formatter -> t -> unit
