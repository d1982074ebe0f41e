(** Mutable hash indexes over bags of tuples.

    An index maps the values of one attribute to the tuples carrying
    them, each with its multiplicity. Keys compare with {!Value.equal}
    and hash with {!Value.hash}, so [Int 1] and [Float 1.] share a
    bucket, and [Null] is keyed like any other value (callers that
    follow predicate semantics, where [Null] never matches, skip it).
    Maintenance is O(1) per atom. A key held by one distinct tuple (the
    common case for keys and near-keys) costs three words; a second
    distinct tuple promotes its cell to a tuple -> multiplicity table.

    The stored tables of the mediator ({!Table}) and the keyed polls of
    a source database ([Sources.Source_db]) both index through this
    module. *)

open Relalg

type t

val create : string -> t
(** An empty index on the given attribute. *)

val of_bag : string -> Bag.t -> t
(** An index holding every tuple of the bag, built in bulk: its buckets
    are sized for the bag up front, and since the bag's tuples are
    distinct each one joins its key's cell without an equality test or
    a lookup among the cell's tuples. Equal to adding the tuples one
    by one with {!add}. *)

val on : t -> string

val add : t -> Tuple.t -> int -> unit
(** [add ix tuple mult] raises the tuple's count by [mult > 0]. *)

val remove : t -> Tuple.t -> int -> unit
(** [remove ix tuple mult] lowers the tuple's count by [mult],
    dropping it at zero (monus: an absent tuple is a no-op). *)

val probe : t -> Value.t -> (Tuple.t -> int -> unit) -> unit
(** [probe ix value f] calls [f tuple mult] for every indexed tuple
    whose indexed attribute equals [value]. *)

val distinct : t -> int
(** Distinct key values present. *)

val max_chain : t -> int
(** Distinct tuples under the most crowded key. O(distinct keys). *)
