(** Tuples: finite maps from attribute names to values.

    Attribute-based (rather than positional) tuples match the paper's
    attribute-based relational algebra: projection, natural join and
    delta filtering all operate by attribute name.

    Physically, a tuple is an immutable [Value.t array] over an
    interned schema descriptor fixing a canonical (name-sorted)
    attribute order and an attr -> slot table. Tuples over the same
    attribute set share one descriptor, so equality, comparison and
    hashing are positional array walks; hashes are cached per tuple.

    The descriptor intern table is the module's only process-wide
    state: it is identity, not a cache. Every slot plan (projection,
    renaming, key extraction, join merge, schema check) belongs to the
    closure or value its caller holds — a {!projector}, a {!merger}, a
    bag's {!shape} — so mediators running side by side share none. *)

type t

val empty : t

val of_list : (string * Value.t) list -> t
(** Later bindings override earlier ones. *)

val maker : string list -> Value.t list -> t
(** [maker names] is [fun values -> of_list (List.combine names
    values)] with the descriptor interned and the slot order resolved
    once, at partial application: each tuple is then an array fill.
    Use to build many tuples over one attribute list.
    @raise Invalid_argument on a duplicate name, or when a value list's
    length differs from the names'. *)

val to_list : t -> (string * Value.t) list
(** Bindings in attribute-name order. *)

val get : t -> string -> Value.t
(** @raise Not_found if the attribute is absent. *)

val set : t -> string -> Value.t -> t

val projector : string list -> t -> t
(** [projector names] keeps only the named attributes of a tuple, with
    the slot plan resolved once per source descriptor and memoized in
    the closure: partial application pays the name lookups, each
    projected tuple is then a plain array gather.
    @raise Not_found if an attribute is absent. *)

val renamer : (string * string) list -> t -> t
(** [renamer mapping] rewrites attribute names through [mapping]
    ((old, new) pairs; unmapped names kept) with the gather plan
    resolved once per source descriptor — the array-tuple fast path
    behind algebra renaming, replacing the [of_list]/[to_list]
    assoc-list round-trip. @raise Invalid_argument if the mapping
    collapses two attributes of the tuple into one name. *)

val keyer : string list -> t -> Value.t list
(** [keyer names] extracts the values of [names] (in the given order)
    with the slot plan memoized per source descriptor, as used for
    join-key extraction. @raise Not_found if an attribute is absent. *)

val keyer1 : string -> t -> Value.t
(** Single-attribute [keyer] without the list allocation.
    @raise Not_found if the attribute is absent. *)

val merger : unit -> t -> t -> t option
(** [merger ()] merges two tuples as natural join does: [None] when
    they disagree on a shared attribute, otherwise the union of their
    bindings. The merge plan is resolved per pair of source
    descriptors and memoized in the closure (one entry), so a join
    owns one merger per pair of inputs it merges. *)

type shape
(** A schema's slot plan for type checks: its descriptor and the
    declared type of each slot. A bag that checks tuples resolves its
    schema's shape once and keeps it. *)

val shape : Schema.t -> shape

val fits : shape -> t -> bool
(** True when the tuple binds exactly the shape's attributes, with
    values of the declared types ([Null] matches any type). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed by tuples (cached tuple hashes, [equal] above);
    the physical backing of {!Bag.t} and of table indexes. *)
