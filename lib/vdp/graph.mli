(** View Decomposition Plans (Sec. 5.1).

    A VDP is a labelled DAG [(V, E, relation, source, def, Export)]:
    leaves are relations of source databases; each non-leaf node [v]
    carries a definition [def v] — an algebra expression over the
    relations of its children — and the edge set is implied by the
    base names occurring in the definitions. Export nodes form the
    integrated view's interface.

    Structural restrictions (Def. 5.1) enforced by [make]:
    {ul
    {- a {e leaf-parent} (parent of a leaf) may only select/project a
       single leaf — restriction (a);}
    {- any other node is either an arbitrary select/project/join
       combination — restriction (b) — or a top-level union or
       difference with only select/project chains underneath —
       restriction (c);}
    {- leaves may only appear as children of leaf-parents, the graph
       is acyclic, and every maximal node is exported.}}

    Nodes whose definition involves difference are {e set nodes} and
    store sets; all other non-leaf nodes are {e bag nodes}. *)

open Relalg

type node_kind =
  | Leaf of { source : string }
      (** A relation of the named source database. *)
  | Derived of Expr.t
      (** [def v], over the names of the node's children. *)

type node = {
  name : string;
  schema : Schema.t;
  kind : node_kind;
  export : bool;
}

type t

exception Vdp_error of string

val make : node list -> t
(** Validate and build. @raise Vdp_error on any violation of the
    structural restrictions, a dangling child name, a schema mismatch
    between a definition and its node's declared schema, or a cycle. *)

val node : t -> string -> node
(** @raise Vdp_error if absent. *)

val node_opt : t -> string -> node option
val nodes : t -> node list
val def : t -> string -> Expr.t
(** Definition of a non-leaf node. @raise Vdp_error for a leaf. *)

val children : t -> string -> string list
(** Distinct children, in definition order; empty for leaves. *)

val parents : t -> string -> string list
val edges : t -> (string * string) list
(** All (parent, child) pairs. *)

val leaves : t -> node list
val leaf_parents : t -> node list
val exports : t -> node list
val non_leaves : t -> node list

val source_of_leaf : t -> string -> string
(** Source database of a leaf. @raise Vdp_error for a non-leaf. *)

val is_leaf : t -> string -> bool
val topo_order : t -> string list
(** Non-leaf node names, children before parents — the processing
    order of the IUP's upward traversal. *)

val descendants : t -> string -> string list
(** All nodes reachable downward (not including the node itself). *)

val ancestors : t -> string -> string list

val schema_env : t -> string -> Schema.t
(** Schemas of all nodes, for [Expr.schema_of]. *)

val expanded_def : t -> string -> Expr.t
(** The node's definition with every non-leaf base recursively
    replaced by its own definition: an expression over source (leaf)
    relations only. For an export node this is exactly the view
    definition ν of Sec. 3 — the correctness checker evaluates it
    against source-state histories. *)

val sources : t -> string list
(** Distinct source database names, sorted. *)

val leaves_of_source : t -> string -> string list
(** Leaf relation names contributed by the given source. *)

val pp : Format.formatter -> t -> unit
(** Render the VDP structure, one node per line (leaves marked with
    [[]], exports with doubled circles, per the paper's figures). *)
