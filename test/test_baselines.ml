(* Tests for the baseline integrators: the pure query shipper and the
   classical annotations — and differential testing of Squirrel's
   answers against the query shipper at quiescence. *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Baselines
open Workload

let test_shipper_matches_recompute () =
  let env = Scenario.make_fig1 () in
  let shipper =
    Query_shipper.create ~engine:env.Scenario.engine ~vdp:env.Scenario.vdp
      ~sources:env.Scenario.sources ()
  in
  Query_shipper.connect shipper ();
  let answer = Engine.run_process env.Scenario.engine (fun () -> Query_shipper.query shipper ~node:"T" ()) in
  Tutil.check_bag "shipper = recompute" (Tutil.recompute env "T") answer;
  let stats = Query_shipper.stats shipper in
  Alcotest.(check int) "one poll per source" 2 stats.Query_shipper.sq_polls;
  Alcotest.(check bool)
    "push-down: fetched less than |R|+|S|" true
    (stats.Query_shipper.sq_tuples_fetched
    < Bag.cardinal (Adapter.current (Scenario.source env "db1") "R")
      + Bag.cardinal (Adapter.current (Scenario.source env "db2") "S"))

let test_shipper_always_current () =
  (* the virtual approach reflects updates immediately: commit, then
     query — no propagation machinery needed *)
  let env = Scenario.make_fig1 () in
  let shipper =
    Query_shipper.create ~engine:env.Scenario.engine ~vdp:env.Scenario.vdp
      ~sources:env.Scenario.sources ()
  in
  Query_shipper.connect shipper ();
  let db1 = Scenario.source env "db1" in
  let fresh =
    Tuple.of_list
      [
        ("r1", Value.Int 4242);
        ("r2", Value.Int 0);
        ("r3", Value.Int 1);
        ("r4", Value.Int 100);
      ]
  in
  Adapter.commit db1 (Driver.single_insert db1 "R" fresh);
  let answer = Engine.run_process env.Scenario.engine (fun () -> Query_shipper.query shipper ~node:"T" ()) in
  Tutil.check_bag "reflects the commit" (Tutil.recompute env "T") answer;
  Alcotest.(check bool)
    "new row visible" true
    (List.exists
       (fun t -> Value.equal (Tuple.get t "r1") (Value.Int 4242))
       (Bag.support answer))

let test_shipper_differential_vs_squirrel () =
  (* at quiescence, Squirrel (any annotation) and the query shipper
     agree on every export *)
  let env = Scenario.make_ex51 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex51 env.Scenario.vdp) ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let shipper =
    Query_shipper.create ~engine:env.Scenario.engine ~vdp:env.Scenario.vdp
      ~sources:env.Scenario.sources ()
  in
  (* sources are already connected to the mediator; the shipper shares
     the same channels? No: each source supports one link. Use a
     separate environment for the shipper side. *)
  ignore shipper;
  let rng = Datagen.state 3 in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.5;
          u_count = 5;
          u_delete_fraction = 0.2;
          u_specs = Scenario.ex51_update_specs rel;
        })
    [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C"); ("dbD", "D") ];
  Scenario.run_to_quiescence env med;
  List.iter
    (fun node ->
      let squirrel_answer =
        Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node ()).Qp.tuples)
      in
      Tutil.check_bag
        (node ^ ": Squirrel agrees with ground truth at quiescence")
        (Tutil.recompute env node) squirrel_answer)
    [ "E"; "G" ]

let test_warehouse_annotation_shape () =
  let vdp = Scenario.ex51_vdp () in
  let ann = Annotations.warehouse vdp in
  Alcotest.(check bool) "E materialized" true (Annotation.virtual_attrs ann "E" = []);
  Alcotest.(check bool) "G materialized" true (Annotation.virtual_attrs ann "G" = []);
  Alcotest.(check bool) "F virtual" true (Annotation.materialized_attrs ann "F" = []);
  Alcotest.(check bool) "A' virtual" true (Annotation.materialized_attrs ann "A'" = [])

let test_warehouse_runs_correctly () =
  (* ZGHW95 configuration on the Figure 1 view: T materialized, aux
     virtual — updates need polling + ECA, answers stay exact *)
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env
      ~annotation:(Annotations.warehouse env.Scenario.vdp)
      ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let db1 = Scenario.source env "db1" in
  let fresh =
    Tuple.of_list
      [
        ("r1", Value.Int 777);
        ("r2", Value.Int 1);
        ("r3", Value.Int 1);
        ("r4", Value.Int 100);
      ]
  in
  Adapter.commit db1 (Driver.single_insert db1 "R" fresh);
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "warehouse maintains T" (Tutil.recompute env "T") answer;
  Alcotest.(check bool)
    "maintenance required polling (aux virtual)" true
    (Source_db.polls_served (Adapter.db (Scenario.source env "db2")) > 1)

let test_virtual_annotation_runs_correctly () =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env
      ~annotation:(Annotation.fully_virtual env.Scenario.vdp)
      ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "fully virtual Squirrel = recompute" (Tutil.recompute env "T") answer;
  Alcotest.(check int)
    "nothing stored" 0
    (Mediator.store_bytes med)

let () =
  Alcotest.run "baselines"
    [
      ( "query shipper",
        [
          Alcotest.test_case "matches recompute" `Quick test_shipper_matches_recompute;
          Alcotest.test_case "always current" `Quick test_shipper_always_current;
          Alcotest.test_case "differential vs Squirrel" `Quick test_shipper_differential_vs_squirrel;
        ] );
      ( "classical annotations",
        [
          Alcotest.test_case "warehouse shape" `Quick test_warehouse_annotation_shape;
          Alcotest.test_case "warehouse runs" `Quick test_warehouse_runs_correctly;
          Alcotest.test_case "fully virtual runs" `Quick test_virtual_annotation_runs_correctly;
        ] );
    ]
