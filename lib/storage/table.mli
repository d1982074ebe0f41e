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

val create : ?indexes:string list -> name:string -> Schema.t -> t
(** [create ~indexes ~name schema] makes an empty table with a hash
    index on each attribute of [indexes] and on each attribute of the
    schema's key (if any). *)

val name : t -> string
val schema : t -> Schema.t

val insert : ?mult:int -> t -> Tuple.t -> unit
val delete : ?mult:int -> t -> Tuple.t -> unit
(** Monus deletion (clamped at zero), keeping indexes in sync. *)

val load : t -> Bag.t -> unit
(** Replace the whole contents by [bag], adopting its storage rather
    than copying it: pass a bag no other holder goes on updating, or a
    {!Relalg.Bag.copy} of it.
    @raise Relalg.Bag.Bag_error if [bag]'s attributes or their types
    differ from the table's. *)

val contents : t -> Bag.t
(** The current population: the table's live version of its persistent
    bag, in O(1), not a copy. It stays valid across later updates, but
    a holder that outlives the transaction or updates the bag must take
    a {!Relalg.Bag.copy}: an update derived from the live version forks
    its diff chain from the table's, and every later access to either
    walks the other's updates. *)

val apply_delta : t -> Rel_delta.t -> unit

val support_cardinal : t -> int

val mult : t -> Tuple.t -> int

val has_index_on : t -> string -> bool

val probe : t -> string -> Value.t -> (Tuple.t -> int -> unit) -> unit
(** [probe t attr value f] calls [f tuple mult] for every stored tuple
    whose [attr] equals [value], through the hash index on [attr] —
    the O(1)-per-probe path used by incremental join propagation and
    keyed store reads.
    @raise Table_error when [attr] is not indexed. *)

val delta_join :
  t ->
  left:Schema.t ->
  ?on:Predicate.t ->
  ?test:(Tuple.t -> bool) ->
  ?filter:(Tuple.t -> bool) ->
  unit ->
  (Rel_delta.t -> Rel_delta.t) option
(** [delta_join t ~left ()] prepares the signed join [d ⋈ contents t]
    for deltas [d] over [left], computed by probing [t]'s persistent
    index on one join-key column — one probe (and one tuple op) per
    delta atom instead of a key table rebuilt over the whole stored
    bag. The key column, the compiled residual and the tuple merger are
    fixed when it is prepared; a call builds only its delta-sized
    output. [None] when no join-key column of [on] is indexed; callers
    fall back to the generic hash join. [test], when given, must be the
    compiled form of [on] (as for {!Relalg.Bag.join}). [filter]
    (default: keep all) screens stored tuples before they are combined
    — the push-down of a selection sitting over the table in the joined
    expression. The prepared join stays valid across {!load}. *)

(** {1 Statistics}

    Table statistics feed the CLI profile report. *)

type index_stats = {
  ix_on : string;  (** the indexed attribute *)
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
