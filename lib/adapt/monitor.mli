(** Workload monitor: turns the raw counters the mediator accumulates
    ({!Squirrel.Med.stats}) into a measured {!Vdp.Cost.profile}.

    Two views are offered. {!observe}/{!profile} maintain
    exponentially-smoothed {e windowed} rates — each observation
    differences the cumulative counters against the previous snapshot
    and folds the window's rate into an EMA, so the profile tracks the
    {e recent} workload and forgets old phases (what the adaptive
    {!Policy} wants). The whole-run profile instead divides the
    all-time counters by the total elapsed time — a whole-run average
    (what the CLI's [profile] report shows). *)

open Vdp
open Squirrel

type t

val create : ?smoothing:float -> Med.t -> t
(** [smoothing] is the EMA weight of the newest window in [(0, 1]];
    1.0 means "latest window only". Default 0.5. The first time a
    counter is seen its rate seeds the EMA directly. *)

val observe : t -> unit
(** Take a snapshot: difference every monitor counter against the
    previous observation, divide by the elapsed simulated time, and
    fold into the smoothed rates. A zero-elapsed call is a no-op. *)

val profile : t -> Cost.profile
(** The smoothed rates as a cost-model profile: per-leaf update-atom
    rates, per-export query rates, per-attribute access fractions
    (attribute rate / node query rate), and live leaf-cardinality
    estimates. *)

val mean_batch : Med.t -> float
(** Observed mean group-commit batch size from the mediator's
    [batch_size] histogram ([1.0] before any batch has been applied) —
    the amortization factor {!Cost.estimate}'s [?batch] expects. *)

val render : t -> string
(** Human-readable dump of the smoothed rates (exports first, then
    leaves). *)

val render_cumulative : Med.t -> string
(** Human-readable dump of the whole-run measured profile. *)
