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

    {b Layout.} Recording a span allocates nothing that outlives the
    transaction. Each span is written at open time into a {e slot} of
    preallocated unboxed storage: one row of an int array holds its
    id, its parent's id, its op count, its last child, its previous
    sibling and its last attribute; a [Float.Array] holds its start and
    stop; a name array holds the call site's static string. Attributes
    take cells of a second store (key and string value; int value and
    link), chained per span. An attribute value is either an int,
    stored unboxed and turned into text only when read ({!set_attri}),
    or a string the caller already holds live — a static literal, a
    node or source name ({!set_attr}). The write side hands out and
    takes a {!slot}; it never builds a record, an option or a list.

    {b Retention.} Closed root spans are retained in a ring of
    [capacity] root slots, in completion order; the oldest tree is
    evicted first ({!dropped_roots} counts them), and a span is
    retained until [capacity] later roots have closed. Eviction goes by
    root, not by slot range — a root event recorded while a
    transaction is open takes a slot inside that transaction's range —
    and returns the tree's span slots and attribute cells to free
    lists. Both stores grow a fixed-size chunk at a time, copying
    nothing, until they hold [capacity] roots' spans, and are reused in
    place after that: a steady workload reaches a fixed trace size, and
    a trace that never fills its ring allocates no more than the trees
    it keeps.

    {b Reading.} {!roots}, {!find} and {!iter_spans} build {!span}
    records from the stores on demand; {!render} and {!to_jsonl} print
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

type slot [@@immediate]
(** The write-side handle of an open span. A disabled trace hands out
    a slot that every setter ignores. A slot is valid until its root
    is evicted. *)

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

val with_span : t -> string -> (slot -> 'a) -> 'a
(** Run the function inside a new span (child of the innermost open
    one). The span is closed even if the function raises. *)

val root_event : t -> string -> slot
(** Record an instantaneous root span regardless of any open spans —
    for asynchronous arrivals that do not belong to the transaction
    currently executing. The returned slot takes attributes. *)

val set_attr : t -> slot -> string -> string -> unit
(** Append a string attribute. The value is kept as given, so pass a
    string that is live anyway. *)

val set_attri : t -> slot -> string -> int -> unit
(** Append an int attribute, stored unboxed; it reads back as
    [string_of_int]. *)

val attr : span -> string -> string option
val span_id : t -> slot -> int option

val roots : t -> span list
(** Retained root spans in completion order (oldest first). *)

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
