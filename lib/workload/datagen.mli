(** Deterministic synthetic data generation.

    All generators take an explicit [Random.State.t] so every
    experiment is reproducible from its seed. *)

open Relalg

val state : int -> Random.State.t
(** Fresh PRNG from a seed. *)

type column_spec = {
  c_attr : string;
  c_min : int;
  c_max : int;  (** inclusive; values drawn uniformly *)
}

val tuple : Random.State.t -> column_spec list -> Tuple.t

val keyed_tuple :
  Random.State.t -> Schema.t -> column_spec list -> key_seed:int -> Tuple.t
(** A tuple whose key attributes are derived deterministically from
    [key_seed] (so successive seeds give distinct keys) and whose
    other columns are random. *)

val bag : Random.State.t -> Schema.t -> column_spec list -> size:int -> Bag.t
(** [size] tuples; when the schema has a key, keys are 0..size-1 so
    the bag is a valid keyed set. *)

val pick : Random.State.t -> 'a list -> 'a option
(** Uniform choice; [None] on an empty list. *)
