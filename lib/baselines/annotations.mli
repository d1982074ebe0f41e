(** The [ZGHW95] warehouse, expressed as a Squirrel annotation.

    The paper's point is that the traditional virtual approach and the
    ZGHW95-style materialized warehouse are the two extreme points of
    the annotation space. The virtual extreme is
    {!Vdp.Annotation.fully_virtual}, the self-maintaining one
    {!Vdp.Annotation.fully_materialized}; this module adds the
    warehouse point so that experiments can run all of them on the
    same VDP and machinery. *)

open Vdp

val warehouse : Graph.t -> Annotation.t
(** The [ZGHW95] warehouse configuration: every export relation fully
    materialized, every auxiliary (non-export) relation fully virtual
    — so incremental maintenance polls the sources and relies on the
    Eager Compensation Algorithm, exactly the setting that paper
    studied for a single source and that Example 2.2 generalizes. *)
