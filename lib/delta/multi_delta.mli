(** Deltas spanning several relations.

    A delta "can simultaneously contain atoms that refer to more than
    one relation" (Sec. 6.2); the update queue of a mediator holds
    multi-relation deltas and the IUP smashes the whole queue into a
    single one before propagation. *)

type t

val empty : t
val is_empty : t -> bool

val singleton : string -> Rel_delta.t -> t
val add : t -> string -> Rel_delta.t -> t
(** [add d name rd] smashes [rd] onto the delta already recorded for
    relation [name]. *)

val find : t -> string -> Rel_delta.t option
val relations : t -> string list
val bindings : t -> (string * Rel_delta.t) list

val smash : t -> t -> t

val atom_count : t -> int
