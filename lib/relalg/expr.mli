(** The Squirrel view-definition language: attribute-based relational
    algebra over named base relations (Sec. 5).

    An expression is used both for whole view definitions (over source
    relation names) and for VDP node definitions [def(v)] (over the
    names of the node's children). *)

type t =
  | Base of string
  | Select of Predicate.t * t
  | Project of string list * t
  | Rename of (string * string) list * t
      (** [(old, new)] pairs; attribute renaming for schema alignment
          across sources. The paper defers renaming "in the interest
          of clarity"; we support it in the place integration needs
          it — select/project/rename chains over a single source
          relation (leaf-parent definitions), where it is absorbed
          below every other operator. *)
  | Join of t * Predicate.t * t  (** natural-on-shared-attrs + theta *)
  | Union of t * t
  | Diff of t * t  (** set difference; a "set node" in VDP terms *)

exception Expr_error of string

(** {1 Constructors} *)

val base : string -> t
val select : Predicate.t -> t -> t
val project : string list -> t -> t
val rename : (string * string) list -> t -> t
val join : ?on:Predicate.t -> t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

(** {1 Analysis} *)

val base_names : t -> string list
(** Distinct base relation names, in first-occurrence order. A name may
    occur several times in the expression (self-joins). *)

val base_occurrences : t -> string list
(** Base names with duplicates, in left-to-right order. *)

val schema_of : (string -> Schema.t) -> t -> Schema.t
(** Output schema given schemas of base relations.
    @raise Expr_error on arity/compatibility violations (e.g. union of
    incompatible schemas, projection of unknown attributes). *)

val contains_diff : t -> bool
val is_select_project_of : string -> t -> bool
(** True when the expression is (a chain of) select/project/rename
    over a single occurrence of the given base — the only shape
    allowed for leaf-parent nodes (restriction (a) of Def. 5.1). *)

val is_spj : t -> bool
(** True for arbitrary combinations of select/project/join over bases
    (restriction (b)). *)

val is_setop_of_sp : t -> bool
(** True for a top-level union or difference with only select/project
    chains underneath (restriction (c)). *)

val rewrite_bases : (string -> t) -> t -> t
(** Substitute each base occurrence by an expression. *)

val size : t -> int
(** Node count, used by cost heuristics. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
