(** Key tables: rows chained per key in flat arrays under a flat
    open-addressing head table, the one implementation behind hash
    joins ({!Bag.join}, {!Bag.join_signed} and the plan compiler's join
    groups) and behind the persistent attribute indexes of stored
    tables and sources ([Storage.Hash_index]).

    Keys compare with {!Value.equal} and hash with {!Value.hash}, so
    [Int 1] and [Float 1.] are one key. A strict key component never
    matches Null: a row with Null there neither enters the table nor
    finds a match, as a comparison never matches Null. A non-strict
    component matches Null with Null, as natural join's agreement does.

    Adding a row allocates nothing once the arrays have room, and a
    probe allocates nothing. A join table keeps every row it is given,
    each key's rows most recent first; a {!counted} table holds each
    distinct tuple once with its multiplicity, finds a tuple's row in
    O(1) however crowded its key, and removes rows in O(1), so an
    index write costs a few probes. *)

type t

val create :
  size:int -> build:Tuple.key -> probe:Tuple.key -> strict:bool array -> t
(** A join table for about [size] build rows keyed by [build]; a probe
    row is keyed by [probe], component for component. *)

val counted : size:int -> Tuple.key -> t
(** An index for about [size] distinct tuples keyed by the given key,
    no component strict (Null is keyed like any other value). *)

val add : t -> Tuple.t -> int -> unit
(** Add a build row with its multiplicity, as the head of its key's
    chain. On a counted table the tuple must be absent. *)

val incr : t -> Tuple.t -> int -> unit
(** [incr tbl tuple mult] raises the tuple's multiplicity in a counted
    table by [mult > 0], adding its row when absent. *)

val decr : t -> Tuple.t -> int -> unit
(** [decr tbl tuple mult] lowers the tuple's multiplicity in a counted
    table by [mult], dropping its row at zero (monus: an absent tuple
    is a no-op). *)

val find : t -> Tuple.t -> int
(** The head row under the probe row's key, or [-1]. *)

val find_value : t -> Value.t -> int
(** The head row under a one-attribute key given by its value, or
    [-1]. *)

val row : t -> int -> Tuple.t
val mult : t -> int -> int

val next : t -> int -> int
(** The next row under the same key, or [-1]: in a join table the
    previously added one; in a counted table in no set order. *)

val clear : t -> unit
(** Empty the table, keeping its arrays, in time proportional to the
    rows it held, and drop its references to them. *)

val reset :
  t -> size:int -> build:Tuple.key -> probe:Tuple.key -> strict:bool array -> unit
(** Empty the table for a build of about [size] rows under new keys,
    as {!create} would make it, keeping its arrays when they hold
    [size] rows. *)

val keys : t -> int
(** Distinct keys present. *)

val max_chain : t -> int
(** Rows under the most crowded key. O(rows). *)
