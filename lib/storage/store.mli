(** The local store of a Squirrel mediator (Sec. 4): a catalog of
    tables holding the materialized portions of VDP nodes. The IUP
    keeps the per-node delta repositories ['ΔR'] of an update
    transaction itself. *)

open Relalg

type t

exception Store_error of string

val create : unit -> t

val create_table :
  ?indexes:string list -> t -> name:string -> Schema.t -> Table.t
(** @raise Store_error if the name is taken. *)

val table : t -> string -> Table.t
(** @raise Store_error if absent. *)

val table_opt : t -> string -> Table.t option
val table_names : t -> string list

val total_bytes : t -> int
(** Space estimate across all tables (Sec. 5.3 space-vs-performance). *)
