(** Tuples: finite maps from attribute names to values.

    Attribute-based (rather than positional) tuples match the paper's
    attribute-based relational algebra: projection, natural join and
    delta filtering all operate by attribute name.

    Physically, a tuple is an immutable [Value.t array] over an
    interned schema descriptor fixing a canonical (name-sorted)
    attribute order and an attr -> slot table. Tuples over the same
    attribute set share one descriptor, so equality, comparison and
    hashing are positional array walks; hashes are cached per tuple. *)

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

val find_opt : t -> string -> Value.t option
val mem : t -> string -> bool
val set : t -> string -> Value.t -> t
val attrs : t -> string list
val arity : t -> int

val project : t -> string list -> t
(** Keep only the named attributes. @raise Not_found if one is absent. *)

val projector : string list -> t -> t
(** [projector names] is [fun t -> project t names] with the slot plan
    resolved once per source descriptor and memoized: partial
    application pays the name lookups, each projected tuple is then a
    plain array gather. Use for bag-wide projections. *)

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

val concat : t -> t -> t option
(** Merge of two tuples, as used by natural join: [None] when the tuples
    disagree on a shared attribute, otherwise the union of bindings. *)

val matches_schema : t -> Schema.t -> bool
(** True when the tuple binds exactly the schema's attributes, with
    values of the declared types ([Null] matches any type). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed by tuples (cached tuple hashes, [equal] above);
    the physical backing of {!Bag.t} and of table indexes. *)
