(** Typed metrics registry (the observability layer's counter side).

    A registry holds named counters, gauges, and log-scale histograms.
    The mediator registers every cost counter of the Sec. 5.3
    framework here ({!Med.stats}); [snapshot] freezes the whole
    registry into a deterministic, sorted view that the CLI renders and
    the benches serialize.

    All values are process-local and single-threaded — the simulator
    runs on one logical clock, so there is no synchronization. *)

type t
(** A registry. *)

type counter
(** Monotone integer counter. *)

type gauge
(** Instantaneous float value (e.g. queue depth). *)

type histogram
(** Log-scale histogram: observation [v > 0] lands in the bucket whose
    upper boundary is the smallest exact power [base^k] ([k] integer,
    possibly negative) with [base^k >= v]; [v <= 0] lands in the [0.0]
    bucket. Boundaries are computed by repeated multiplication, never
    [log]/[exp], so they are bit-exact and deterministic. Exponents
    are clamped to [[-64, 64]]; anything beyond counts against the
    extreme bucket. *)

val create : unit -> t

val counter : t -> ?help:string -> string -> counter
(** Register (or retrieve — same name returns the same counter). *)

val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> ?base:float -> string -> histogram
(** [base] defaults to [2.0]; must be [> 1.0]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** Non-empty buckets as [(upper_boundary, count)], boundaries
    ascending. *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * (int * float * (float * int) list)) list;
      (** name → (count, sum, buckets) *)
}

val snapshot : t -> snapshot

val render : snapshot -> string
(** Stable multi-line rendering (used by [squirrel run --report
    profile] / [--report metrics]). *)

val to_json : snapshot -> string
(** One self-contained JSON object. *)

val json_escape : string -> string
(** JSON string-body escaping, shared with {!Trace.to_jsonl}. *)
