(** Heraclitus-style deltas for a single relation (Sec. 6.2),
    generalized to bags.

    A delta is represented as a signed multiplicity map: positive
    entries are insertion atoms [+R(t)], negative entries are deletion
    atoms [-R(t)]. The consistency condition of the paper — no tuple
    occurs both inserted and deleted — is inherent to the
    representation.

    Operators: [apply], [smash] ('!'), [inverse], and commutation with
    select/project. Following the paper we assume deltas are
    {e non-redundant} for the states they are applied to (no insertion
    of an already-present set tuple, no deletion below multiplicity
    zero); [apply ~strict:true] checks this. Under non-redundancy,
    smash of bag deltas is pointwise signed addition and satisfies
    [apply db (smash d1 d2) = apply (apply db d1) d2]. *)

open Relalg

type t

exception Delta_error of string

val empty : Schema.t -> t
val schema : t -> Schema.t
val is_empty : t -> bool

val relabel : Schema.t -> t -> t
(** The same atoms under another schema, sharing their storage (no
    copy): a delta plan's join terms, normalized to the join's
    canonical schema. *)

val insert : ?mult:int -> t -> Tuple.t -> t
(** Add an insertion atom (cancels pending deletions of the tuple). *)

val delete : ?mult:int -> t -> Tuple.t -> t

val of_diff : old_bag:Bag.t -> new_bag:Bag.t -> t
(** The net delta turning [old_bag] into [new_bag]. *)

val insertions : t -> Bag.t
val deletions : t -> Bag.t

val signed_mult : t -> Tuple.t -> int

val atom_count : t -> int
(** Total multiplicity over all atoms (size of the delta). *)

val support_cardinal : t -> int

val apply : ?strict:bool -> Bag.t -> t -> Bag.t
(** Apply the delta to a bag. Deletions clamp at zero multiplicity
    unless [strict] is set, in which case redundancy raises
    [Delta_error]. *)

val smash : t -> t -> t
(** [smash d1 d2] = d1 ! d2: pointwise signed addition. *)

val inverse : t -> t
(** Reverses the sign of every atom; [apply (apply db d) (inverse d) =
    db] for non-redundant [d]. *)

val select : Predicate.t -> t -> t
(** Commutes with apply:
    [select p (apply db d) = apply (select p db) (select p d)]. *)

val transform : Schema.t -> (Tuple.t -> Tuple.t option) -> t -> t
(** One-pass fused filter+map: each atom's tuple is rewritten (or
    dropped on [None]) keeping its signed multiplicity; signed
    multiplicities of coinciding images accumulate and zero sums drop
    out. [schema] is the schema of the rewritten atoms. Backs fused
    unary chains in compiled delta plans. *)

val collect : Schema.t -> size:int -> ((Tuple.t -> int -> unit) -> unit) -> t
(** [collect schema ~size produce] is the delta of the signed atoms
    [produce] emits through its argument, built in one arena presized
    for [size] atoms: multiplicities of coinciding tuples accumulate
    and zero sums drop out. The output of a prepared index join
    ({!Storage.Table.delta_join}). *)

val project : string list -> t -> t
(** Bag projection of a delta (signed multiplicities of coinciding
    images add up). Commutes with apply on bags. *)

val join_bag : ?on:Predicate.t -> ?test:(Tuple.t -> bool) -> t -> Bag.t -> t
(** [join_bag d b]: the signed join [d ⋈ b], the building block of the
    SPJ propagation rules of Sec. 5.2, computed as one hash join over
    [b] for both signs ({!Relalg.Bag.join_signed}). [test], when given, must be the
    compiled form of [on], which is then not compiled again (see
    {!Relalg.Bag.join}). *)

val join : ?on:Predicate.t -> ?test:(Tuple.t -> bool) -> t -> t -> t
(** Signed join of two deltas (ΔA ⋈ ΔB): multiplicities multiply, so
    the cross term of the both-sides-changed Join propagation rule is
    delta-sized and needs no materialized new state. *)

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
