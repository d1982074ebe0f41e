(** Hash partitioning of export relations across mediator shards.

    Every relation of a federated scenario carries the partition key
    attribute; a tuple lives on the shard [Value.hash key mod N]. Both
    update routing (the coordinator splitting a committed delta) and
    query routing (bounding the scatter set from the predicate) go
    through this module, so the two can never disagree about
    ownership. *)

open Relalg
open Delta

val owner : shards:int -> Value.t -> int
(** Owning shard of a key value. @raise Invalid_argument when
    [shards <= 0]. *)

val split_bag : shards:int -> key:string -> Bag.t -> Bag.t array
(** Partition a bag by key ownership; multiplicities preserved. *)

val split_delta :
  shards:int -> key:string -> Multi_delta.t -> Multi_delta.t array
(** Partition a multi-relation transaction. Element [i] holds only the
    relations with atoms owned by shard [i] (possibly
    {!Multi_delta.empty}). *)

type target =
  | All_shards  (** predicate does not bound the key: full scatter *)
  | Some_shards of int list
      (** shard ids (sorted, distinct) whose partitions can intersect
          the predicate; the singleton case is the single-shard fast
          path, the empty case needs no shard at all *)

val targets : shards:int -> key:string -> Predicate.t -> target
(** Conservative routing analysis of a query predicate: equality
    conjuncts pinning the partition key bound the scatter set;
    disjunctions need both branches bounded; anything else scatters to
    every shard. Sound — never excludes a shard whose partition could
    satisfy the predicate. *)
