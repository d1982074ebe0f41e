(** The Incremental Update Processor (Sec. 6.4), group-commit style.

    Each kernel pass applies one {e batch} of up to
    [Config.max_batch] queued announcements (a version gap within a
    source ends the batch, and a dirty source's entries are held back
    — see {!Med.take_batch}):

    {ol
    {- {b drains a batch}: smashes up to [max_batch] contiguous
       announcements into a single coalesced multi-relation delta Δ
       (the paper's [empty_queue(tᵘ)] moment, amortized over the
       batch; +t/−t churn pairs annihilate in the signed-bag fold)
       and filters it through the leaf-parents' select/project
       definitions;}
    {- {b IUP Preparation}: simulates the kernel pass to find which
       nodes will be affected, and which children's relations the
       propagation rules will read at attributes that are not
       materialized — those become VAP requests;}
    {- {b populates temporaries} through the VAP, at the pre-update
       state [ref'(tᵘ_{i-1})] (Eager Compensation inverts both the
       queue and the in-flight Δ);}
    {- {b kernel pass}: one upward topological traversal; each node's
       Δ repository accumulates contributions from all its children
       before the node is processed (Example 6.1's cross terms are
       handled exactly), then the materialized projection of the delta
       is applied to the node's table.}}

    Only {e relevant} nodes — those with materialized attributes or
    with a relevant ancestor that needs their delta — are processed;
    purely virtual subgraphs that feed nothing materialized cost
    nothing on update. *)

val update_transaction : Med.t -> bool
(** Drain the whole queue, one batch per kernel pass (no-op returning
    [false] when the queue is empty). Must run inside a simulation
    process; takes the mediator mutex. *)

val run : Med.t -> bool
(** Apply ONE batch (up to [max_batch] announcements) without the
    lock; returns [false] when nothing was applied (empty queue, or
    the pass deferred). One source's reflect entry advances by a whole
    version interval per call. *)

val drain : Med.t -> bool
(** Loop {!run} until a pass applies nothing, without the lock — for
    callers that already hold the mediator mutex (the QP draining the
    queue to satisfy a freshness SLO; the engine mutex is not
    reentrant). Returns whether any batch was applied. *)

val start_flusher : Med.t -> unit
(** Spawn the periodic process that runs an update transaction every
    [flush_interval] (the paper's policy of how often the mediator
    empties its incremental update queue). *)
