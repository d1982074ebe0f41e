(** Relations with bag (multiset) semantics.

    The paper's view-definition language has set semantics, but
    relations stored inside a mediator are bags whenever the view
    involves projection or union (Sec. 5): multiplicities are exactly
    what makes projections incrementally maintainable. Relations of
    "set nodes" (difference) are the set-images of bags.

    A bag is a schema plus a multiplicity map; all stored
    multiplicities are strictly positive.

    Physically a bag is a tuple -> multiplicity hash table. The
    persistent API is kept with diff chains: deriving a new version by
    [add]/[remove] is O(1) and reading a superseded version reroots
    the table back through the recorded diffs (iterations pin the
    table, so any access pattern is safe). [cardinal],
    [support_cardinal] and [is_empty] are O(1). [to_list],
    [support] and [pp] are sorted by {!Tuple.compare}; [fold] and
    [iter] enumerate in unspecified (hash) order. *)

type t

exception Bag_error of string

val empty : Schema.t -> t
val schema : t -> Schema.t

val of_tuples : Schema.t -> Tuple.t list -> t
(** @raise Bag_error if a tuple does not match the schema. *)

val add : ?mult:int -> t -> Tuple.t -> t
(** [add ~mult b t] inserts [mult] (default 1) copies.
    @raise Bag_error if [mult <= 0] or the tuple is ill-typed. *)

val remove : ?mult:int -> t -> Tuple.t -> t
(** Monus removal: removes up to [mult] copies, never below zero. *)

val mult : t -> Tuple.t -> int
val mem : t -> Tuple.t -> bool

val cardinal : t -> int
(** Total multiplicity. *)

val support_cardinal : t -> int
(** Number of distinct tuples. *)

val is_empty : t -> bool

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> int -> unit) -> t -> unit
val to_list : t -> (Tuple.t * int) list
val support : t -> Tuple.t list

(** {1 Algebra operations} *)

val select : Predicate.t -> t -> t
(** [select True b] returns its input [b] itself; any other condition
    is compiled once ({!Predicate.compile}) and tested per distinct
    tuple. *)

val project : string list -> t -> t
(** Bag projection: multiplicities of coinciding images add up. A
    projection onto exactly [b]'s own attributes, in any order, returns
    its input's storage under the requested attribute order (bags are
    persistent, so sharing is sound); see {!copy} for a holder that must
    not share.
    @raise Schema.Schema_error on an unknown or duplicate attribute. *)

val retype : Schema.t -> t -> t
(** [retype s b]: [b]'s storage under schema [s], which has the same
    typed attributes as [b]'s schema in any order and any key. The
    check is made once, not per tuple.
    @raise Bag_error otherwise. *)

val copy : t -> t
(** A bag equal to its input over storage of its own. A holder that
    keeps a bag and updates it while another holder (a stored table)
    updates the same version takes a copy: two live versions derived
    from one would make every later access to either walk the other's
    updates. *)

val shares : t -> t -> bool
(** [shares a b]: [a] and [b] are one version of one storage, as a
    [select True] or an own-attribute [project] is of its input. *)

val union : t -> t -> t
(** Additive (bag) union [⊎]. @raise Bag_error unless union-compatible. *)

val monus : t -> t -> t
(** Bag difference [∸]: multiplicities subtract, clamped at zero. *)

val set_diff : t -> t -> t
(** Set difference of the set-images, result a set (multiplicities 1). *)

val join_keys :
  Schema.t -> Schema.t -> Predicate.t -> string list * string list
(** [join_keys sa sb on] is the pair of equi-join key attribute lists
    (left side, right side) that {!join} hashes on: the shared
    attribute names plus the cross-side equi-pairs of [on]. Exposed so
    delta propagation can match persistent table indexes against the
    join's key. *)

val join : ?on:Predicate.t -> ?test:(Tuple.t -> bool) -> t -> t -> t
(** Natural join on shared attribute names combined with the optional
    theta condition [on]. Uses a hash join on shared attributes and on
    equi-pairs of [on] when available, falling back to nested loops.
    Result multiplicity is the product of input multiplicities.
    [test], when given, is the compiled [on] that screens merged
    tuples, so a caller that joins repeatedly compiles once (the plan
    compiler passes [Predicate.compile on] here); without it the join
    compiles [on] itself. [on] still drives join-key planning, so
    [test] must be semantically equal to [on]. *)

val join_signed :
  ?on:Predicate.t ->
  ?test:(Tuple.t -> bool) ->
  Schema.t ->
  Counts.t ->
  t ->
  Counts.t
(** [join_signed sa counts b]: {!join} of signed rows over [sa] with
    [b], multiplicities multiplied (so a negative row's matches come
    out negative) — one key table over [b] for both signs. The result
    is over [Schema.join sa (schema b)]. *)

val equal : t -> t -> bool
(** Bag equality: same schema attributes and same multiplicity map. *)

val filter : (Tuple.t -> bool) -> t -> t

(** {1 Builder}

    Mutable accumulation of a fresh bag, sealed in O(1) — the arena
    every algebra operator builds its result in. Exposed so the plan
    compiler ({!Plan}) can stream fused operator pipelines straight
    into one output bag without materializing intermediates. *)

type builder

val builder : ?size:int -> Schema.t -> builder

val badd : builder -> Tuple.t -> int -> unit
(** Accumulate [mult] copies of a tuple (multiplicities of coinciding
    tuples add up). The tuple is not checked against the builder's
    schema: add only tuples produced by schema-correct plans. *)

val seal : builder -> t
(** Transfer ownership; the builder must not be used afterwards. *)

val pp : Format.formatter -> t -> unit
