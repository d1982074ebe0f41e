(** Compile declarative scenario files into live integration
    environments.

    A [.scn] file (grammar in {!Relalg.Parser}) describes a whole
    integration as data: source declarations (with a storage backend
    and announce mode per source), relation schemas, view definitions
    in the textual algebra, annotation hints, initial loads, and timed
    update events. {!of_file} turns it into the same {!Scenario.env}
    the programmatic constructors produce — sources are instantiated
    by {!Scenario.mk_source} ([backend relational] /
    [backend triple]), the views go through {!Vdp.Builder}, and
    [annotate auto] runs {!Vdp.Advisor} over a uniform profile, so a
    file plus [squirrel scenario] is a complete end-to-end run with no
    OCaml written. *)

open Sim
open Vdp

exception Scenario_error of string
(** Compile-time failure: unknown backend, unknown relation in a load
    or event, arity/type mismatch in a tuple literal, duplicate
    relation across sources, builder rejection. *)

type compiled = {
  c_env : Scenario.env;  (** engine, sources, VDP *)
  c_annotation : Annotation.t;
      (** hints applied over fully-materialized (or advisor) base *)
  c_exports : string list;  (** the declared views, in file order *)
  c_decl : Relalg.Parser.scenario_decl;  (** the parsed declaration *)
}

val compile :
  ?engine:Engine.t -> Relalg.Parser.scenario_decl -> compiled
(** Instantiate sources (loading initial bags as version-0 state),
    build the VDP, resolve the annotation, and schedule the timed
    update events as single-atom commits at the owning sources.
    Event times are absolute simulated times — leave the first second
    for mediator initialization. @raise Scenario_error. *)

val of_file : ?engine:Engine.t -> string -> compiled
(** Read, parse, compile; parse errors are rewrapped with the file
    name. @raise Scenario_error. *)
