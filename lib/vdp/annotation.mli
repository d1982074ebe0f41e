(** Per-attribute materialized/virtual annotations of a VDP (Sec. 5.1).

    An annotation maps every attribute of every non-leaf node to
    [M]aterialized or [V]irtual. The notation [\[a^m, b^v\]] of the
    paper corresponds to [of_list ["T", ["a", M; "b", V]]]. *)


type mark = M | V

type t

exception Annotation_error of string

val fully_materialized : Graph.t -> t
(** Every attribute of every non-leaf node marked [M] (Example 2.1). *)

val fully_virtual : Graph.t -> t
(** Every attribute of every non-leaf node marked [V]: the classical
    virtual-view approach. *)

val of_list : Graph.t -> (string * (string * mark) list) list -> t
(** Explicit per-node annotations; unlisted nodes default to fully
    materialized, unlisted attributes of a listed node to [M].
    @raise Annotation_error on unknown nodes/attributes. *)

val with_node : t -> Graph.t -> string -> (string * mark) list -> t
(** Functional update of one node's annotation. *)

val mark : t -> node:string -> attr:string -> mark
val materialized_attrs : t -> string -> string list
(** In the node's schema attribute order. *)

val virtual_attrs : t -> string -> string list

val materialized_nodes : t -> string list
(** Nodes with at least one materialized attribute (these have a table
    in the local store). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
