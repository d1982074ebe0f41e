(** Mutable hash indexes over bags of tuples.

    An index maps the values of one attribute to the tuples carrying
    them, each with its multiplicity. Keys compare with {!Value.equal}
    and hash with {!Value.hash}, so [Int 1] and [Float 1.] share a key,
    and [Null] is keyed like any other value (callers that follow
    predicate semantics, where [Null] never matches, skip it).

    An index is a counted {!Relalg.Key_table}: each distinct tuple is a
    row of flat arrays (tuple, key value, multiplicity and the link to
    the next row under its key), with a head table over the keys and a
    row table over the tuples, both open-addressing arrays of tagged
    ints. A write finds the tuple's row with one tag probe however
    crowded its key, and a removal frees the key's head row after
    moving its tuple into the removed one, so maintenance is O(1) per
    atom and, once the arrays have room, allocates nothing.

    The stored tables of the mediator ({!Table}) and the keyed polls of
    a source database ([Sources.Source_db]) both index through this
    module. *)

open Relalg

type t

val create : string -> t
(** An empty index on the given attribute. *)

val of_bag : string -> Bag.t -> t
(** An index holding every tuple of the bag, built in bulk: its arrays
    are sized for the bag and a quarter more up front, and since the
    bag's tuples are distinct each one enters as a new row without a
    lookup. Equal to adding the tuples one by one with {!add}. *)

val on : t -> string

val add : t -> Tuple.t -> int -> unit
(** [add ix tuple mult] raises the tuple's count by [mult > 0]. *)

val remove : t -> Tuple.t -> int -> unit
(** [remove ix tuple mult] lowers the tuple's count by [mult],
    dropping it at zero (monus: an absent tuple is a no-op). *)

val probe : t -> Value.t -> (Tuple.t -> int -> unit) -> unit
(** [probe ix value f] calls [f tuple mult] for every indexed tuple
    whose indexed attribute equals [value], in no set order. [f] must
    not update the index. *)

val distinct : t -> int
(** Distinct key values present. *)

val max_chain : t -> int
(** Distinct tuples under the most crowded key. O(distinct tuples). *)
