(** Selection and join conditions.

    Conditions are boolean combinations of comparisons between
    arithmetic terms over attributes — rich enough for every condition
    in the paper, including Example 5.1's non-equi join
    [a1^2 + a2 < b2^2].

    {b Key sets.} A condition [a = v1 ∨ … ∨ a = vn] that confines one
    attribute to a set of constants is a key set: it lets a store, a
    source or a semijoin read only the rows under those keys (the
    Sec. 6.3 VAP restricted to a delta's join keys, the key-based
    construction of Example 2.3). Its one format is [In (a, vs)] with
    at least two values, or [a = v] for one. {!one_of} is the only code
    that normalizes the values — sorted and distinct under
    {!Value.compare}, without [Null], which no comparison matches — and
    {!or_} merges two key sets on one attribute through it, so every
    key set {!key_sets} reports is already normalized. The [Or] of two
    [a = v] comparisons, as the parser reads it, is the same [In]. *)

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
  | In of string * Value.t list
      (** a key set; only {!one_of} builds one (see above) *)

(** {1 Convenience constructors} *)

val attr : string -> term
val int : int -> term

val eq : term -> term -> t
val lt : term -> term -> t
val ge : term -> term -> t
val conj : t list -> t

val or_ : t -> t -> t
(** Disjunction. Two key sets on one attribute merge into one
    ({!one_of} of both value lists); otherwise the disjuncts of the
    right operand already among the left's are dropped, so
    [or_ p p = p]. [True] absorbs and [False] is the unit. *)

val disj : t list -> t
(** [or_] folded left; [False] when empty. *)

val eq_attrs : string -> string -> t
(** [eq_attrs a b] is the equi-join condition [a = b]. *)

val rename : (string * string) list -> t -> t
(** [rename m p] renames every attribute [a] with [(a, b)] in [m] to
    [b]; other attributes keep their names. *)

(** {1 Evaluation and analysis} *)

val compile : t -> Tuple.t -> bool
(** The evaluator: [compile p t] tells whether tuple [t] passes [p].
    Comparisons involving [Null] are [false] (so [Not] of such a
    comparison is [true]: two-valued collapse). Attribute slots are
    memoized per descriptor; partial application pays the closure
    construction once, each tuple test then performs no name lookups.
    An [In] compiles to one hash lookup per tuple, or to one
    comparison per key when a key is an integral number past 2^53,
    which compares equal to neighbours that hash apart. *)

val attrs : t -> string list
(** Attribute names mentioned, sorted, without duplicates. This is the
    set [D] used by [derived_from] (Sec. 6.3). *)

val equi_pairs : t -> (string * string) list
(** Top-level conjunct equalities of the form [Attr a = Attr b]; used
    to pick hash-join keys. *)

val conjuncts : t -> t list
(** Flatten top-level [And]s, dropping [True]. Linear in the size of
    the chain. *)

val key_sets : t -> (string * Value.t list) list
(** The key-set conjuncts — an [In], or one attribute compared with
    one constant in either operand order — as [(a, vs)], [vs]
    normalized ([a = Null] gives no key). A row passing the condition
    has [a] equal to some [v] of [vs]. *)

val normalize_keys : Value.t list -> Value.t list
(** Key values in normal form: sorted, distinct under {!Value.compare},
    without [Null]. *)

val one_of : string -> Value.t list -> t
(** [one_of a vs] is the key set [a = v1 ∨ … ∨ a = vn] over
    [normalize_keys vs]: [False] when that is empty, [a = v] for one
    value, an [In] otherwise. *)

val simplify : t -> t
(** Constant folding of [True]/[False] through connectives. *)

val restrict_to : t -> string list -> t
(** [restrict_to p attrs] keeps only the top-level conjuncts of [p]
    whose attributes all fall within [attrs]; other conjuncts become
    [True]. Sound for push-down (the result is implied by [p]). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints in the syntax {!Parser.predicate} reads. A non-negative
    [Int], [Float] or [Str] constant reads back as itself; a negative
    number reads back as the negation of its magnitude, and NaN, the
    infinities, [Bool] and [Null] have no literal. *)
