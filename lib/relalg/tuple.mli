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
    composed gather, key extraction, join merge, schema check) belongs
    to the closure or value its caller holds — a {!projector}, a
    {!gather}, a {!key}, a {!merger}, a bag's {!shape} — so mediators
    running side by side share none. *)

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

val keyer1 : string -> t -> Value.t
(** Single-attribute [keyer] without the list allocation.
    @raise Not_found if the attribute is absent. *)

type gather
(** The projections and renamings of a unary chain composed into one
    gather from a source row: a target descriptor and the source slot
    of each target slot, resolved against the descriptor of the row it
    starts from. *)

val gather_of : t -> gather
(** The identity gather over the tuple's descriptor. *)

val gather_project : gather -> string list -> gather
(** Followed by a projection. @raise Not_found if an attribute is
    absent. *)

val gather_rename : gather -> (string * string) list -> gather
(** Followed by a renaming: [(old, new)] pairs, unmapped names kept.
    @raise Invalid_argument if the mapping collapses two attributes. *)

val gather_source : gather -> string -> string option
(** The source attribute that an attribute of the gather's output
    reads, or [None] when the output lacks it. *)

val gather_passes : gather -> bool
(** The gather maps every source row to itself. *)

val gather : gather -> t -> t
(** Build the output row from a row over the gather's source
    descriptor (one array gather). *)

val same_desc : t -> t -> bool
(** The two tuples bind the same attribute set (they share one
    interned descriptor). *)

type key
(** A join key: the values of named attributes, in the given order,
    read through a slot plan memoized per source descriptor. *)

val key : string list -> key
val key_arity : key -> int

val key_value : key -> t -> int -> Value.t
(** [key_value k t i] is the value of [k]'s [i]-th attribute in [t].
    @raise Not_found if an attribute of [k] is absent from [t]. *)

type merger
(** A natural-join merge: the merge plan of a pair of descriptors,
    memoized (one entry), so a join owns one merger per pair of inputs
    it merges. *)

val merger : ?keep:string list -> unit -> merger
(** With [keep], a merged row binds only the kept attributes: the
    projection of the natural-join row, gathered straight from both
    inputs. *)

val agree : merger -> t -> t -> bool
(** The two tuples agree on every attribute they share (a natural-join
    match); allocates nothing.
    @raise Not_found if a kept attribute is absent from both. *)

val merge : merger -> t -> t -> t
(** The union of the two tuples' bindings (restricted to the kept
    attributes), for a pair that {!agree}s; only the merged row is
    allocated. *)

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
