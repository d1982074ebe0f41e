(** Persistent tuple -> count hash maps: the shared physical backing
    of {!Bag} multiplicities and of delta repositories.

    Counts stored are nonzero; [set _ _ 0] removes the binding. The
    physical layout is a dense insertion-ordered arena (parallel tuple
    and count arrays) plus a tuple -> slot hash index whose positions
    carry hash tags, so point operations are O(1) (amortized), a probe
    reads a tuple only on a tag match, and iteration is a sequential
    scan in insertion order rather than a cache-hostile hash-order
    walk.

    The persistent interface is backed by one physical arena per
    version family plus reversing diffs (rerooted on access), so
    fold-and-update accumulator patterns cost O(1) amortized per
    update. Iterations pin the arena, making every access pattern safe
    (at worst a private copy). *)

type t

val empty : ?size:int -> unit -> t

val get : t -> Tuple.t -> int
(** Current count, 0 when absent. *)

val add_to : t -> Tuple.t -> int -> t
(** [add_to t tup m] is [set t tup (get t tup + m)] with a single
    index probe for the old count — the per-atom hot path of delta
    application and smash. *)

val size : t -> int
(** Number of bindings (distinct tuples), O(1). *)

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Insertion order (deterministic, but carries no semantic meaning). *)

val iter : (Tuple.t -> int -> unit) -> t -> unit

val bindings : t -> (Tuple.t * int) list
(** Sorted by {!Tuple.compare} (deterministic output). *)

val equal : t -> t -> bool

(** Mutable accumulation of a fresh map, sealed into a persistent
    value in O(1). Algebra operators build their results here and
    never pay the diff-chain machinery; insertion order is preserved
    into the sealed value, keeping later scans sequential. *)
module Builder : sig
  type counts := t
  type t

  val create : ?size:int -> unit -> t

  val of_counts : counts -> t
  (** Start from a copy of an existing map (order-preserving). *)

  val add : t -> Tuple.t -> int -> unit
  (** Accumulate a signed count; a sum reaching 0 removes the binding. *)

  val get : t -> Tuple.t -> int

  val seal : t -> counts
  (** Transfer ownership; the builder must not be used afterwards. *)
end
