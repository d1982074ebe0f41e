(* The intro's trade-off, live: "the virtual approach may be better if
   the information sources are changing frequently, whereas the
   materialized approach may be better if the information sources
   change infrequently and very fast query response time is needed."

   We run the same Figure 1 view three ways — fully materialized
   (Example 2.1), ZGHW95-style warehouse (export materialized, aux
   virtual), and fully virtual (query shipping) — under a query-heavy
   and an update-heavy load, and report where the work went.

   Run with: dune exec examples/warehouse_vs_virtual.exe *)

open Sim
open Squirrel
open Baselines
open Workload

type outcome = {
  o_name : string;
  o_polls : int;
  o_tuples_polled : int;
  o_atoms : int;
  o_ops_query : int;
  o_ops_update : int;
  o_bytes : int;
}

let run_squirrel name annotation_of ~updates ~queries =
  let env = Scenario.make_fig1 ~seed:33 () in
  let med =
    Scenario.mediator env ~annotation:(annotation_of env.Scenario.vdp) ()
  in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  let rng = Datagen.state 5 in
  if updates > 0 then
    Driver.update_process ~rng ~src:(Scenario.source env "db1")
      {
        Driver.u_relation = "R";
        u_interval = 0.3;
        u_count = updates;
        u_delete_fraction = 0.25;
        u_specs = Scenario.fig1_update_specs "R";
      };
  let _records =
    Driver.query_process ~rng ~med
      {
        Driver.q_node = "T";
        q_interval = 0.4;
        q_count = queries;
        q_attr_sets = [ ([ "r1"; "s1" ], Relalg.Predicate.True) ];
      }
  in
  Scenario.run_to_quiescence env med;
  let s = Mediator.stats med in
  {
    o_name = name;
    o_polls = Obs.Metrics.value s.Med.polls;
    o_tuples_polled = Obs.Metrics.value s.Med.polled_tuples;
    o_atoms = Obs.Metrics.value s.Med.propagated_atoms;
    o_ops_query = Obs.Metrics.value s.Med.ops_query;
    o_ops_update = Obs.Metrics.value s.Med.ops_update;
    o_bytes = Mediator.store_bytes med;
  }

let run_shipper ~updates ~queries =
  let env = Scenario.make_fig1 ~seed:33 () in
  let shipper =
    Query_shipper.create ~engine:env.Scenario.engine ~vdp:env.Scenario.vdp
      ~sources:env.Scenario.sources ()
  in
  Query_shipper.connect shipper ();
  let rng = Datagen.state 5 in
  if updates > 0 then begin
    let src = Scenario.source env "db1" in
    Driver.update_process ~rng ~src
      {
        Driver.u_relation = "R";
        u_interval = 0.3;
        u_count = updates;
        u_delete_fraction = 0.25;
        u_specs = Scenario.fig1_update_specs "R";
      }
  end;
  Engine.spawn env.Scenario.engine (fun () ->
      for _ = 1 to queries do
        Engine.sleep env.Scenario.engine 0.4;
        ignore (Query_shipper.query shipper ~node:"T" ~attrs:[ "r1"; "s1" ] ())
      done);
  Engine.run env.Scenario.engine
    ~until:(Engine.now env.Scenario.engine +. (0.5 *. float_of_int (updates + queries)) +. 10.0);
  let s = Query_shipper.stats shipper in
  {
    o_name = "virtual (query shipping)";
    o_polls = s.Query_shipper.sq_polls;
    o_tuples_polled = s.Query_shipper.sq_tuples_fetched;
    o_atoms = 0;
    o_ops_query = s.Query_shipper.sq_ops;
    o_ops_update = 0;
    o_bytes = 0;
  }

let print_table title outcomes =
  Printf.printf "\n=== %s ===\n" title;
  Printf.printf "%-28s %8s %10s %8s %10s %10s %8s\n" "approach" "polls"
    "tuples" "atoms" "ops(qry)" "ops(upd)" "bytes";
  List.iter
    (fun o ->
      Printf.printf "%-28s %8d %10d %8d %10d %10d %8d\n" o.o_name o.o_polls
        o.o_tuples_polled o.o_atoms o.o_ops_query o.o_ops_update o.o_bytes)
    outcomes

let () =
  let scenario ~updates ~queries =
    [
      run_squirrel "materialized (Example 2.1)" Vdp.Annotation.fully_materialized
        ~updates ~queries;
      run_squirrel "warehouse (ZGHW95)" Annotations.warehouse ~updates ~queries;
      run_shipper ~updates ~queries;
    ]
  in
  print_table "query-heavy, low churn (30 queries, 3 updates)"
    (scenario ~updates:3 ~queries:30);
  print_table "update-heavy, few queries (30 updates, 3 queries)"
    (scenario ~updates:30 ~queries:3);
  print_endline
    "\nReading: materialization spends work on update atoms and bytes but \
     answers queries locally;\nthe virtual approach polls per query; the \
     warehouse sits in between — matching the intro's claim."
