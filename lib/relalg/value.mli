(** Atomic values stored in relations.

    The Squirrel view-definition language is relational; tuples carry
    typed atomic values. [Null] is included for completeness (it arises
    when outer data is missing) but the algorithms of the paper never
    produce it; comparisons involving [Null] are three-valued-collapsed
    to [false]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

(** Runtime types of values. *)
type ty = TBool | TInt | TFloat | TStr

val compare : t -> t -> int
(** Total order used for deterministic relation storage. Values of
    distinct types are ordered by type tag; [Int] and [Float] compare
    numerically against each other, exactly: [Int (2{^53} + 1)] is
    above [Float 2{^53}], which equals [Int 2{^53}]. A float NaN is
    below every other number. *)

val equal : t -> t -> bool

val hash : t -> int
(** Compatible with {!equal}: [Int 1] and [Float 1.] hash alike. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!equal}/{!hash}. *)

exception Type_error of string
(** Raised by arithmetic on non-numeric operands. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Numeric arithmetic with int/float promotion.
    @raise Type_error on non-numeric operands.
    @raise Division_by_zero for integer division by zero. *)

val neg : t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val pp_ty : Format.formatter -> ty -> unit
