(** Cost-based physical join chooser.

    A join group — the inputs of a collapsed equi-join chain — can run
    as a left-deep pairwise hash cascade, as a worst-case optimal
    leapfrog triejoin ({!Leapfrog}), or as a nested loop (pure theta
    joins). This module holds the shared analysis: join-variable
    classes (attribute names united by sharing and by cross-input
    equi-pairs), per-input statistics, the cardinality-driven variable
    ordering, and the System-R style cost estimates from which
    {!choose} picks the physical operator and orders.

    The chooser reads only what the join group's inputs show at
    execution ({!Plan} scans them for distinct counts and second
    moments); it takes no statistics from the storage layer. On a
    two-input group the estimates never favour leapfrog, so it runs
    the hash join with the smaller input streamed first, whatever the
    statistics say. {!Plan.join_runs} counts the operators run. *)

type op = Nested_loop | Hash | Leapfrog

val op_name : op -> string
(** ["nested_loop"], ["hash"], ["leapfrog"]. *)

(** {1 Join-variable classes} *)

type var_class = {
  vc_attrs : string list;  (** member attribute names, sorted *)
  vc_inputs : int list;  (** indices of inputs containing a member, sorted *)
}

val classes :
  attrs:string list array -> equi:(string * string) list -> var_class list
(** Union-find over attribute names: two attributes fall in one class
    when they share a name across inputs (natural join) or appear in a
    cross- or same-input equi-pair of the join condition. Only classes
    spanning at least two inputs — the join {e variables} — are
    returned, ordered by first member name. *)

val class_attr_in : var_class -> string list -> string option
(** The input's representative attribute for a class: its first member
    present in the given attribute list. *)

(** {1 Statistics and decisions} *)

type input = {
  in_name : string option;  (** base-relation name when a stored leaf *)
  in_rows : int;  (** distinct-tuple count *)
  in_vars : string list;  (** classes present, by representative name *)
  in_distinct : (string * int) list;
      (** per-variable distinct-count estimates; absent means
          [in_rows] (every row distinct — the conservative bound) *)
  in_f2 : (string * float) list;
      (** per-variable second frequency moments (sum of squared chain
          lengths), estimated by a capped scan; absent means uniform,
          [in_rows^2 / distinct] *)
}

type decision = {
  op : op;
  order : int array;  (** input order: stream/probe first, build rest *)
  var_order : string list;  (** global variable order for leapfrog *)
}

val order_vars : input array -> string list
(** Cardinality-driven variable ordering: ascending minimum distinct
    count over containing inputs; ties broken toward variables shared
    by more inputs, then by name — fully deterministic. *)

val choose : input array -> decision
(** Pick the physical operator for a join group of two or more inputs.
    Leapfrog is considered only when {e every} input carries at least
    one join variable (an input without one has no usable sorted trie
    and would degrade to a cross product); this guard also overrides
    {!force}. A group with no join variables at all is a pure theta
    join and always runs nested-loop. *)

val force : op option ref
(** Test/bench override: when set, {!choose} returns the forced
    operator (subject to the leapfrog-usability guard). *)
