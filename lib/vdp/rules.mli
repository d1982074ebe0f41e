(** Rendering of the VDP rulebase (Sec. 5.2): update-propagation rules
    attached to VDP edges.

    Every edge [(v, c)] carries a rule that turns an incremental update
    [Δc] into a contribution to [Δv]. The rules are derived mechanically
    from [def v]:

    {ul
    {- {b SPJ} (select/project/join): the linear rule
       [ΔT = π σ (R₁ ⋈ … ⋈ ΔRᵢ ⋈ … ⋈ Rₙ)];}
    {- {b Union}: [ΔT = ΔRᵢ] (filtered/projected);}
    {- {b Difference}: membership transitions (the paper's published
       [diff1] rule contains a typo — [(ΔT)⁻ = (ΔR₁)⁻ ∩ R₂] should be
       [(ΔT)⁻ = (ΔR₁)⁻ − R₂]; we implement the corrected rule — see
       DESIGN.md).}}

    When several children of a node change in the same update
    transaction, firing per-edge rules naively double-counts or misses
    the cross terms (Example 6.1); the IUP fires a node's rules at once
    through {!Delta.Delta_plan.run}, whose telescoped
    combination [ΔA ⋈ apply(B, ΔB) ⊎ A ⋈ ΔB] is exact. *)

val describe : Graph.t -> string
(** The whole rulebase, one rule per line. *)
