(** Transaction tracing: span trees over simulated time.

    A {e span} covers one phase of a mediator transaction — an update
    transaction, a VAP closure, a poll attempt, a kernel pass — with
    its simulated start/stop times, its tuple-operation cost
    (inclusive of children, sampled from the evaluator's op counter),
    and attributes. Spans nest through a single open stack: the
    mediator serializes transactions with its mutex, so at most one
    transaction's spans are open at a time; asynchronous arrivals
    (announcements, gap detections) record as {e root events} that
    bypass the stack.

    {b Records.} Each trace site of the mediator writes one typed
    {e record} of the facts it knows — the values a span tree shows as
    attributes — through the function named after it below. A span's
    id comes from the trace's counter when it opens, so ids follow
    open order even where a root event arrives while a transaction
    waits on a poll; its times and op count are sampled where it opens
    and closes, and kept unboxed. The two records every update
    transaction writes are built for it: an {!enqueue} event is one
    block, and a {!batch} keeps its [update_tx], [temp_determination],
    [kernel_pass], [delta] and [apply] spans in three columns (ints,
    floats, strings) that it copies out of the trace's scratch when it
    closes, so an update costs five blocks whatever its shape. The
    other sites ([query_tx], [slo_poll], [vap], [temp], [poll],
    [attempt], [eca], [snapshot], [resync]) are one small record each.
    A setter (such as {!determined} or {!served}) writes a fact into
    the innermost open record when that record is of its kind, and
    does nothing otherwise. A disabled trace records nothing, opens
    nothing, and costs one branch per site.

    {b Retention.} Closed root records are retained in a ring of
    [capacity] roots, in completion order; the oldest is overwritten
    first ({!dropped_roots} counts them), so a span is retained until
    [capacity] later roots have closed. The ring is allocated with the
    trace and never grows.

    {b Reading.} {!roots}, {!find} and {!iter_spans} build {!span}
    trees from the records on demand; {!render} and {!to_jsonl} print
    them. Everything is keyed off the simulated clock, never the wall
    clock, so identical seeds produce identical traces. *)

type span = {
  id : int;  (** unique per trace, assigned in open order from 1 *)
  parent : int option;
  name : string;
  start_time : float;
  end_time : float;
  ops : int;  (** tuple operations while the span was open (inclusive) *)
  attrs : (string * string) list;  (** insertion order *)
  children : span list;  (** chronological *)
}
(** A retained span as read back from the trace. *)

type t

val create :
  ?capacity:int ->
  ?enabled:bool ->
  now:(unit -> float) ->
  ?ops_counter:(unit -> int) ->
  unit ->
  t
(** [capacity] (default 4096) bounds retained {e root} records.
    [ops_counter] samples a monotone operation counter at span
    open/close to attribute op costs. *)

val enabled : t -> bool

(** {2 Root events} *)

val enqueue : t -> source:string -> version:int -> atoms:int -> depth:int -> unit
(** An announcement queued at [depth]. *)

val dup_dropped : t -> source:string -> version:int -> unit

val gap_detected :
  t -> source:string -> via:string -> prev_version:int option -> version:int ->
  seen:int -> unit
(** A gap seen by [via]: by an announcement ([prev_version] given) or
    by a poll's answer version. *)

(** {2 The update transaction}

    [batch_tx] and its phases. The phase and fact functions act on the
    innermost open record when it is a batch. *)

type outcome = Applied | Self_maintained | Deferred of string
(** [Self_maintained] is applied without a VAP request; [Deferred]
    carries the error that put the batch back. *)

val batch : t -> entries:int -> (unit -> 'a) -> 'a
(** Run the function inside a [batch_tx] record; it is closed even if
    the function raises. Batches do not nest. *)

val update_tx :
  t -> source:string -> version:int -> prev_version:int -> atoms:int -> unit
(** One constituent announcement, an instant child of the batch;
    every one precedes the batch's first {!delta}. *)

val coalesced : t -> atoms:int -> raw_atoms:int -> unit
val temp_determination : t -> (unit -> 'a) -> 'a
val determined : t -> affected:int -> requests:int -> unit
val kernel_pass : t -> (unit -> 'a) -> 'a
val delta : t -> node:string -> (unit -> 'a) -> 'a
val delta_atoms : t -> int -> unit
(** The atom count of the batch's last {!delta}. *)

val kernel_nodes : t -> int -> unit
val apply : t -> tables:int -> (unit -> 'a) -> 'a
val batch_outcome : t -> outcome -> unit

(** {2 Other transactions and their phases}

    Each runs the function inside its record and closes it even if the
    function raises. *)

val query_tx : t -> node:string -> (int option -> 'a) -> 'a
(** The function receives the [query_tx] span's id ([None] when the
    trace is disabled). *)

val served : t -> string -> unit
val query_error : t -> string -> unit
val slo_poll : t -> sources:string -> (unit -> 'a) -> 'a
val vap : t -> kind:string -> (unit -> 'a) -> 'a
val vap_temps : t -> int -> unit
val temp : t -> node:string -> (unit -> 'a) -> 'a
val temp_tuples : t -> int -> unit
val poll : t -> source:string -> (unit -> 'a) -> 'a
val poll_attempts : t -> int -> exhausted:bool -> unit
val attempt : t -> n:int -> (unit -> 'a) -> 'a
val attempt_result : t -> string -> unit
val eca : t -> source:string -> node:string -> (unit -> 'a) -> 'a
val eca_unseen : t -> int -> unit
val snapshot : t -> trigger:string -> (unit -> 'a) -> 'a
val resync : t -> sources:string -> (unit -> 'a) -> 'a

(** {2 Reading} *)

val attr : span -> string -> string option

val roots : t -> span list
(** Retained root spans in completion order (oldest first). *)

val find : t -> int -> span option
(** The retained span with this id, at any depth. *)

val iter_spans : (span -> unit) -> t -> unit
val spans_recorded : t -> int
(** Total spans ever recorded (including evicted ones). *)

val dropped_roots : t -> int

val render : t -> string
(** Indented tree rendering of every retained root span. *)

val to_jsonl : t -> string
(** One JSON object per span (preorder, oldest root first), newline
    separated: [{"id":…,"parent":…,"name":…,"start":…,"stop":…,
    "ops":…,"attrs":{…}}]. *)
