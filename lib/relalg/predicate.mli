(** Selection and join conditions.

    Conditions are boolean combinations of comparisons between
    arithmetic terms over attributes — rich enough for every condition
    in the paper, including Example 5.1's non-equi join
    [a1^2 + a2 < b2^2]. *)

(** Arithmetic terms. *)
type term =
  | Const of Value.t
  | Attr of string
  | Neg of term
  | Add of term * term
  | Sub of term * term
  | Mul of term * term
  | Div of term * term

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * term * term
  | And of t * t
  | Or of t * t
  | Not of t

(** {1 Convenience constructors} *)

val attr : string -> term
val int : int -> term

val eq : term -> term -> t
val lt : term -> term -> t
val le : term -> term -> t
val gt : term -> term -> t
val ge : term -> term -> t
val conj : t list -> t
val disj : t list -> t

val eq_attrs : string -> string -> t
(** [eq_attrs a b] is the equi-join condition [a = b]. *)

(** {1 Evaluation and analysis} *)

val eval : t -> Tuple.t -> bool
(** Evaluate against a tuple. Comparisons involving [Null] are [false]
    (so [Not] of such a comparison is [true]: two-valued collapse). *)

val compile : t -> Tuple.t -> bool
(** [compile p] is [eval p] with attribute slots memoized per
    descriptor; partial application pays the closure construction
    once, each tuple test then performs no name lookups. A key set
    ([a = v1 ∨ … ∨ a = vn], see {!key_sets}) compiles to one hash
    lookup per tuple. Semantics identical to {!eval}. *)

val attrs : t -> string list
(** Attribute names mentioned, sorted, without duplicates. This is the
    set [D] used by [derived_from] (Sec. 6.3). *)

val equi_pairs : t -> (string * string) list
(** Top-level conjunct equalities of the form [Attr a = Attr b]; used
    to pick hash-join keys. *)

val conjuncts : t -> t list
(** Flatten top-level [And]s, dropping [True]. Linear in the size of
    the chain. *)

val disjuncts : t -> t list
(** Flatten top-level [Or]s. Linear in the size of the chain. *)

val key_sets : t -> (string * Value.t list) list
(** The conjuncts of the form [a = v1 ∨ … ∨ a = vn] — one attribute
    compared with constants, in either operand order — as
    [(a, [v1; …; vn])]. A row passing the condition has [a] equal to
    some non-[Null] [vi]; that is what lets a store, a source or a
    semijoin read only the rows under those keys. *)

val one_of : string -> Value.t list -> t
(** [one_of a vs] is the key set [a = v1 ∨ … ∨ a = vn]; [False] when
    [vs] is empty. *)

val simplify : t -> t
(** Constant folding of [True]/[False] through connectives. *)

val restrict_to : t -> string list -> t
(** [restrict_to p attrs] keeps only the top-level conjuncts of [p]
    whose attributes all fall within [attrs]; other conjuncts become
    [True]. Sound for push-down (the result is implied by [p]). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
