(** Transaction tracing: span trees over simulated time.

    A {e span} covers one phase of a mediator transaction — an update
    transaction, a VAP closure, a poll attempt, a kernel pass — with
    its simulated start/stop times, its tuple-operation cost
    (inclusive of children, sampled from the evaluator's op counter),
    and free-form string attributes. Spans nest through a single open
    stack: the mediator serializes transactions with its mutex, so at
    most one transaction's spans are open at a time; asynchronous
    arrivals (announcements, gap detections) record as {e root events}
    that bypass the stack.

    Closed root spans are retained in a bounded ring buffer; the
    oldest trees are evicted first ({!dropped_roots} counts them).
    Everything is keyed off the simulated clock, never the wall clock,
    so identical seeds produce identical traces. *)

type span = {
  id : int;  (** unique per trace, assigned in open order from 1 *)
  parent : int option;
  name : string;
  start_time : float;
  mutable end_time : float;
  mutable ops : int;
      (** tuple operations while the span was open (inclusive) *)
  mutable attrs : (string * string) list;  (** insertion order *)
  mutable children : span list;  (** chronological once closed *)
}

type t

val create :
  ?capacity:int ->
  ?enabled:bool ->
  now:(unit -> float) ->
  ?ops_counter:(unit -> int) ->
  unit ->
  t
(** [capacity] (default 4096) bounds retained {e root} spans.
    [ops_counter] samples a monotone operation counter at span
    open/close to attribute op costs. Disabled traces record nothing
    and cost one branch per [with_span]. *)

val enabled : t -> bool

val with_span :
  t -> ?attrs:(string * string) list -> string -> (span option -> 'a) -> 'a
(** Run the function inside a new span (child of the innermost open
    one). The callback receives [None] when tracing is disabled. The
    span is closed even if the function raises. *)

val fork_span :
  t ->
  ?attrs:(string * string) list ->
  parent:span option ->
  string ->
  span option
(** Open a span under an explicit parent, bypassing the open stack —
    for concurrent children (the federation coordinator's scatter
    phase) whose lifetimes overlap and would mis-nest under the stack
    discipline. The parent must still be open; close the child with
    {!join_span} before the parent closes. Returns [None] when tracing
    is disabled or [parent] is [None]. *)

val join_span : t -> span option -> unit
(** Close a span opened with {!fork_span}: stamps its end time, its op
    count since the fork (note: ops of siblings running concurrently
    in simulated time are attributed to every overlapping span), and
    fixes child order. No-op on [None]. *)

val root_event : t -> ?attrs:(string * string) list -> string -> unit
(** Record an instantaneous root span regardless of any open spans —
    for asynchronous arrivals that do not belong to the transaction
    currently executing. *)

val event : t -> ?attrs:(string * string) list -> string -> unit
(** Instantaneous child span of the innermost open span (a root event
    if none is open). *)

val set_attr : span option -> string -> string -> unit
(** No-op on [None], so instrumentation sites need no branching. *)

val set_attri : span option -> string -> int -> unit
val attr : span -> string -> string option
val span_id : span option -> int option

val roots : t -> span list
(** Retained root spans in completion order (oldest first). *)

val find : t -> name:string -> span list
(** All retained spans with the name, preorder, oldest root first. *)

val iter_spans : (span -> unit) -> t -> unit
val spans_recorded : t -> int
(** Total spans ever recorded (including evicted ones). *)

val dropped_roots : t -> int

val duration : span -> float

val render : t -> string
(** Indented tree rendering of every retained root span. *)

val to_jsonl : t -> string
(** One JSON object per span (preorder, oldest root first), newline
    separated: [{"id":…,"parent":…,"name":…,"start":…,"stop":…,
    "ops":…,"attrs":{…}}]. *)
