(** Snapshot (re)construction of the mediator's materialized state.

    Shared by {!Mediator.initialize} and the fault-recovery path: when
    a dropped announcement leaves an irreparable gap in a source's
    update stream (the queue no longer composes to the source's
    state), the affected state is rebuilt the same way it was first
    built — poll the source for full leaf contents, re-derive every
    materialized table bottom-up, and reset the reflect vector. The
    paper's Sec. 4 assumes reliable FIFO channels; resync is the
    recovery mechanism this reproduction adds for when that assumption
    is relaxed. *)

val snapshot : ?trigger:string -> Med.t -> unit
(** Rebuild all materialized tables from fresh source polls. Polls run
    with the config's retry/timeout budget ({!Med.poll_with_retry}) and
    complete {e before} any mediator state mutates, so a failure
    ([Med.Poll_failed]) leaves the previous consistent state intact.
    Caller must hold the mediator mutex (or be initializing). Clears
    the dirty set and emits ({!Med.emit}) an [Update_tx] with [ut_txs =
    0] marking the new reflect vector. Records a ["snapshot"] span whose
    [trigger] attribute (default ["init"]) names what forced it. *)

val resync_if_dirty : Med.t -> unit
(** {!snapshot} when any source is marked dirty (counted in
    [stats.resyncs] and recorded as a ["resync"] span containing the
    [trigger=gap] snapshot); no-op otherwise. Same locking and failure
    contract as {!snapshot}. *)
