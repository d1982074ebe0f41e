(** Relation schemas: an ordered list of typed attributes plus an
    optional primary key.

    Attribute names are globally meaningful in the Squirrel view
    definition language (the paper's attribute-based algebra assumes
    attribute names are not reused across unrelated relations, and
    defers renaming); joins are theta-joins combined with natural
    equality on shared attribute names. *)

type t

exception Schema_error of string

val make : ?key:string list -> (string * Value.ty) list -> t
(** [make ~key attrs] builds a schema. Attribute names must be distinct
    and the key (if any) must be a subset of the attributes.
    @raise Schema_error otherwise. *)

val attrs : t -> string list
(** Attribute names in declaration order. *)

val typed_attrs : t -> (string * Value.ty) list

val key : t -> string list
(** Primary key attributes; empty if none declared. *)

val has_key : t -> bool

val mem : t -> string -> bool

val arity : t -> int

val project : t -> string list -> t
(** [project s names] restricts [s] to [names] (reordered to [names]'
    order). The key is kept only if all key attributes survive.
    @raise Schema_error if a name is absent. *)

val join : t -> t -> t
(** Schema of a (natural + theta) join: union of attributes, shared
    names merged (types must agree). Keys combine as the union of the
    two keys when both sides have keys, otherwise no key.
    @raise Schema_error on a type conflict for a shared attribute. *)

val union_compatible : t -> t -> bool
(** True when both schemas have the same attribute names and types,
    in the same order. *)

val equal : t -> t -> bool

val restrict_key : t -> string list -> t
(** Replace the declared key. @raise Schema_error if not a subset. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
