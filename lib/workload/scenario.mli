(** Canonical integration environments from the paper, shared by the
    tests, the examples, and the benchmark harness.

    {b Figure 1 / Examples 2.1–2.3}: two source databases, [db1]
    holding R(r1,r2,r3,r4) and [db2] holding S(s1,s2,s3), integrated
    view T = π(σ_{r4=100} R ⋈_{r2=s1} σ_{s3<50} S).

    {b Example 5.1 / Figure 4}: four sources holding A, B, C, D;
    exports E = π(A ⋈_{a1²+a2<b2²} B) and G = π_{a1,b1}E − F with
    F = π(C ⋈_{c1=d1} D). *)

open Sim
open Sources
open Vdp
open Squirrel

type backend = [ `Relational | `Triple ]
(** Storage family behind every source of an environment: plain
    {!Sources.Source_db} databases, or {!Sources.Triple_store}s whose
    relational export renders the same data — the seam the backend
    differential tests diff across. *)

type env = {
  engine : Engine.t;
  adapters : Adapter.t list;
      (** the workload's write front ends, one per source *)
  sources : Source_db.t list;
      (** [List.map Adapter.db adapters]: what the mediator, the
          checker and the fault injectors are handed *)
  vdp : Graph.t;
}

val make_env : engine:Engine.t -> vdp:Graph.t -> Adapter.t list -> env

val source : env -> string -> Adapter.t
(** The write front end of the named source.
    @raise Not_found on unknown name. *)

val mk_source :
  backend:backend ->
  engine:Engine.t ->
  name:string ->
  relations:(string * Relalg.Schema.t) list ->
  announce:Sources.Source_db.announce_mode ->
  unit ->
  Adapter.t
(** The one constructor seam behind every environment here (and behind
    {!Scn}): a fresh relational database or triple store serving the
    given relational export. *)

(** {1 Figure 1 environment} *)

val fig1_vdp : unit -> Graph.t
(** Built with {!Vdp.Builder} from the Example 2.1 view definition. *)

val make_fig1 :
  ?seed:int ->
  ?r_size:int ->
  ?s_size:int ->
  ?announce:Source_db.announce_mode ->
  ?backend:backend ->
  unit ->
  env
(** Sources [db1]/[db2] loaded with generated data: R keys [0..r_size),
    [r2] ranging over S's key space, [r4 ∈ {100,200}], [s3 ∈ [0,100)]
    — so selections and the join are all selective but non-empty. *)

val fig1_update_specs : string -> Datagen.column_spec list
(** Column generators for update drivers on "R" or "S" (same ranges
    as the initial data). *)

val ann_ex21 : Graph.t -> Annotation.t
(** Example 2.1: everything materialized. *)

val ann_ex22 : Graph.t -> Annotation.t
(** Example 2.2: R′ virtual, S′ and T materialized. *)

val ann_ex23 : Graph.t -> Annotation.t
(** Example 2.3: T hybrid [r1^m, r3^v, s1^m, s2^v], R′ and S′ virtual. *)

(** {1 Example 5.1 environment} *)

val ex51_vdp : unit -> Graph.t

val make_ex51 :
  ?seed:int ->
  ?size:int ->
  ?announce:Source_db.announce_mode ->
  ?backend:backend ->
  unit ->
  env

val ex51_update_specs : string -> Datagen.column_spec list
(** Column generators for leaves "A", "B", "C", "D". *)

val ann_ex51 : Graph.t -> Annotation.t
(** The paper's suggested annotation (Figure 4): B′ and F virtual,
    E hybrid [a1^m, a2^v, b1^m], everything else materialized. *)

(** {1 Assembly} *)

val mediator :
  env ->
  annotation:Annotation.t ->
  ?config:Med.config ->
  unit ->
  Mediator.t
(** Create and connect a mediator over the environment's sources (the
    periodic flusher starts immediately; call [Mediator.initialize]
    from a process). Per-source delays come from [config.delays]
    ({!Med.Config.make}). *)

exception
  No_quiescence of {
    nq_rounds : int;
    nq_time : float;  (** simulated time when we gave up *)
    nq_queue : int;  (** mediator update-queue depth *)
    nq_in_flight : (string * int) list;
        (** per source: messages scheduled on its channel but not yet
            delivered *)
    nq_pending_events : int;  (** engine events still scheduled *)
  }
(** The simulation would not settle. Carries a diagnostic snapshot so
    a harness (e.g. the chaos runner) can report {e what} was still
    moving — a stuck queue, an undeliverable message, a runaway
    process — together with the seed that produced it. *)

val quiesce :
  Engine.t ->
  flush_interval:float ->
  queued:(unit -> int) ->
  received:(unit -> int) ->
  in_flight:(unit -> (string * int) list) ->
  unit
(** The one quiescence loop: advance the engine in slices of twice the
    flush interval until [queued ()] (update-queue depth) is 0 and
    [received ()] (announcements received) has not moved for two
    consecutive slices. [in_flight] feeds the diagnostics only.
    @raise No_quiescence after 100_000 slices without settling. *)

val run_to_quiescence : env -> Mediator.t -> unit
(** {!quiesce} over one mediator and the environment's sources: drive
    the simulation until no load remains and the mediator has caught
    up — only the periodic flusher keeps the engine alive and the
    update queue is empty. *)

(** {1 Retail environment (union views)}

    The intro's motivating shape: two regional order databases whose
    relations are merged by a {e union} node, joined with a customer
    registry:

    - [AllOrders = π(OrdersE) ∪ π(OrdersW)] (a bag-union export), and
    - [Premium = π_{cust,region,amt}( σ_{amt ≥ 50} AllOrders ⋈ σ_{status=1} Cust )]
      (natural join on [cust]).

    This exercises the union propagation rule, restriction (c) node
    shapes, and natural joins end-to-end. *)

val schema_orders : Relalg.Schema.t
(** Orders(oid*, cust, amt) — the shared (aligned) order schema. *)

val retail_vdp : unit -> Graph.t

val make_retail :
  ?seed:int ->
  ?orders:int ->
  ?customers:int ->
  ?announce:Source_db.announce_mode ->
  ?backend:backend ->
  unit ->
  env
(** Sources [dbEast] (OrdersE), [dbWest] (OrdersW), [dbCust] (Cust);
    regional order keys are drawn from disjoint ranges. *)

val retail_update_specs : string -> Datagen.column_spec list

val ann_retail_hybrid : Graph.t -> Annotation.t
(** Premium materialized; AllOrders virtual (it is derivable locally
    from the materialized regional copies); leaf-parents materialized. *)

(** {1 Federated retail (schema alignment via rename)}

    Like the retail environment, but the west region's orders use
    different attribute names — OrdersW(wid, client, amount) — aligned
    by a [rename] in the view definition before the union. Exercises
    renaming through the whole stack: builder, IUP delta filtering,
    VAP polling, ECA, and source-side filtering. *)

val make_federated :
  ?seed:int ->
  ?orders:int ->
  ?announce:Source_db.announce_mode ->
  ?backend:backend ->
  unit ->
  env

val federated_update_specs : string -> Datagen.column_spec list

(** {1 The standard load run}

    Every caller that runs a named scenario under load (the CLI, the
    experiment harness) goes through these: start a mediator, spawn
    one update driver per relation and one query driver, quiesce. *)

type load = {
  l_updates_per_rel : int;  (** commits per update relation *)
  l_update_interval : float;
  l_queries : int;
  l_query_interval : float;
  l_delete_fraction : float;
}

val default_load : load
(** 10 commits per relation every 0.3, 10 queries every 0.5, a quarter
    of commits deletes. *)

val start : ?config:Med.config -> env -> annotation:Annotation.t -> Mediator.t
(** {!mediator}, then [Mediator.initialize] run to simulated time 1.0. *)

val spawn_updates :
  env ->
  rng:Random.State.t ->
  (string * string * Datagen.column_spec list) list ->
  load ->
  unit
(** One {!Driver.update_process} per [(source, relation, specs)], or
    none when [l_updates_per_rel] is 0. *)

val run_load :
  ?extra:(env -> unit) ->
  rng:Random.State.t ->
  env ->
  Mediator.t ->
  updates:(string * string * Datagen.column_spec list) list ->
  queries:string * (string list * Relalg.Predicate.t) list ->
  load ->
  unit
(** Spawn the update drivers, then [extra] (extra load the caller
    schedules on the engine), then a query driver posing
    [l_queries] queries against the node, each picking one
    (projection, condition) of the list; drive to quiescence, and on
    past the last query if the mediator went quiet before it. The
    drivers share [rng], so each caller keeps its own seed
    derivation. *)

(** {1 The catalogue}

    One entry per named scenario: what the CLI lists and runs, what
    the chaos matrix and the experiment harness draw their scenarios
    from. *)

type t = {
  sc_name : string;
  sc_doc : string;
  sc_make : seed:int -> env;
  sc_annotations : (string * (Graph.t -> Annotation.t)) list;
      (** named annotation variants; the first is the default *)
  sc_updates : (string * string * Datagen.column_spec list) list;
      (** [(source, relation, column specs)] the load updates *)
  sc_query : string * string list;  (** the main query: export, attributes *)
}

val catalogue : t list
(** [fig1], [retail], [federated], [ex51]. *)

val find : string -> t option
val annotation : t -> string -> (Graph.t -> Annotation.t) option
