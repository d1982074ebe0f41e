(* Shared experiment harness: build a scenario environment, run mixed
   update/query load against a mediator (or the query-shipper
   baseline), collect cost counters and the correctness report. *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Correctness
open Workload

type outcome = {
  r_polls : int;
  r_polled_tuples : int;
  r_atoms : int;
  r_ops_update : int;
  r_ops_query : int;
  r_bytes : int;
  r_store_hits : int;
  r_key_based : int;
  r_temps : int;
  r_update_txs : int;
  r_queries : int;
  r_messages : int;
  r_consistent : bool;
  r_violations : int;
  r_max_staleness : (string * float) list;
}

(* run a Squirrel mediator under the load and report *)
let run_squirrel ?(config = Med.Config.default) ?(seed = 42) ?extra ~make_env
    ~updates ~annotation_of ~query_sets ~query_node ~load () =
  let env = make_env seed in
  let med =
    Scenario.start ~config env ~annotation:(annotation_of env.Scenario.vdp)
  in
  let init_stats = Mediator.stats med in
  let polls0 = Obs.Metrics.value init_stats.Med.polls in
  let polled0 = Obs.Metrics.value init_stats.Med.polled_tuples in
  Scenario.run_load ?extra
    ~rng:(Datagen.state (seed * 17 + 3))
    env med ~updates ~queries:(query_node, query_sets) load;
  let s = Mediator.stats med in
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  let v = Obs.Metrics.value in
  {
    r_polls = v s.Med.polls - polls0;
    r_polled_tuples = v s.Med.polled_tuples - polled0;
    r_atoms = v s.Med.propagated_atoms;
    r_ops_update = v s.Med.ops_update;
    r_ops_query = v s.Med.ops_query;
    r_bytes = Mediator.store_bytes med;
    r_store_hits = v s.Med.queries_from_store;
    r_key_based = v s.Med.key_based_constructions;
    r_temps = v s.Med.temps_built;
    r_update_txs = v s.Med.update_txs;
    r_queries = v s.Med.query_txs;
    r_messages = v s.Med.messages_received;
    r_consistent = Checker.consistent report;
    r_violations = List.length report.Checker.violations;
    r_max_staleness = report.Checker.max_staleness;
  }

(* run the pure query-shipping baseline under the same load *)
let run_shipper ?(seed = 42) ~make_env ~updates ~query_attrs ~query_node
    ~load () =
  let env = make_env seed in
  let shipper =
    Baselines.Query_shipper.create ~engine:env.Scenario.engine
      ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources ()
  in
  Baselines.Query_shipper.connect shipper ();
  Scenario.spawn_updates env ~rng:(Datagen.state (seed * 17 + 3)) updates load;
  Engine.spawn env.Scenario.engine (fun () ->
      for _ = 1 to load.Scenario.l_queries do
        Engine.sleep env.Scenario.engine load.Scenario.l_query_interval;
        ignore
          (Baselines.Query_shipper.query shipper ~node:query_node
             ~attrs:query_attrs ())
      done);
  let horizon =
    (load.Scenario.l_update_interval
    *. float_of_int load.Scenario.l_updates_per_rel)
    +. (load.Scenario.l_query_interval *. float_of_int load.Scenario.l_queries)
    +. 20.0
  in
  Engine.run env.Scenario.engine ~until:horizon;
  let s = Baselines.Query_shipper.stats shipper in
  {
    r_polls = s.Baselines.Query_shipper.sq_polls;
    r_polled_tuples = s.Baselines.Query_shipper.sq_tuples_fetched;
    r_atoms = 0;
    r_ops_update = 0;
    r_ops_query = s.Baselines.Query_shipper.sq_ops;
    r_bytes = 0;
    r_store_hits = 0;
    r_key_based = 0;
    r_temps = 0;
    r_update_txs = 0;
    r_queries = s.Baselines.Query_shipper.sq_queries;
    r_messages = 0;
    r_consistent = true;
    r_violations = 0;
    r_max_staleness = [];
  }

(* a single composite cost figure for rankings: local ops plus a
   charge per poll round-trip, per tuple shipped, and per update
   announcement received — the three remote-interaction costs the
   paper's informal comparisons weigh against each other *)
let total_cost o =
  float_of_int (o.r_ops_update + o.r_ops_query)
  +. (100.0 *. float_of_int o.r_polls)
  +. (5.0 *. float_of_int o.r_polled_tuples)
  +. (50.0 *. float_of_int o.r_messages)

let entry name = Option.get (Scenario.find name)
let fig1_sc = entry "fig1"
let ex51_sc = entry "ex51"

let fig1 ~annotation_of ?config ?seed ?(load = Scenario.default_load)
    ?(query_sets = [ ([ "r1"; "s1" ], Predicate.True) ]) () =
  run_squirrel ?config ?seed
    ~make_env:(fun seed -> fig1_sc.Scenario.sc_make ~seed)
    ~updates:fig1_sc.Scenario.sc_updates ~annotation_of ~query_sets
    ~query_node:"T" ~load ()

let ex51 ~annotation_of ?config ?seed ?(load = Scenario.default_load)
    ?(query_sets = [ ([ "a1"; "b1" ], Predicate.True) ]) ?(query_node = "G") ()
    =
  run_squirrel ?config ?seed
    ~make_env:(fun seed -> ex51_sc.Scenario.sc_make ~seed)
    ~updates:ex51_sc.Scenario.sc_updates ~annotation_of ~query_sets
    ~query_node ~load ()

let recompute env node =
  let env_fn leaf =
    match Graph.node_opt env.Scenario.vdp leaf with
    | Some { Graph.kind = Graph.Leaf { source }; _ } ->
      Some (Adapter.current (Scenario.source env source) leaf)
    | Some _ | None -> None
  in
  Eval.eval ~env:env_fn (Graph.expanded_def env.Scenario.vdp node)
