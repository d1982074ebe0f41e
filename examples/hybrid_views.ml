(* Hybrid views: Examples 2.2 and 2.3 on the Figure 1 VDP.

   Part 1 (Example 2.2) keeps the auxiliary copy R' virtual because R
   updates frequently: the frequent path (ΔR) propagates with no
   polling; the rare path (ΔS) polls R — with Eager Compensation so
   the answer matches the reflected state.

   Part 2 (Example 2.3) additionally keeps T's attributes r3 and s2
   virtual: queries over (r1,s1) are pure local reads; a query over r3
   is answered by the key-based construction — joining the
   materialized π_{r1,s1}T with π_{r1,r3}R' through the key r1,
   polling only db1.

   Run with: dune exec examples/hybrid_views.exe *)

open Relalg
open Sim
open Sources
open Squirrel
open Workload

let section title = Printf.printf "\n=== %s ===\n%!" title

let run_in env f =
  Engine.spawn env.Scenario.engine f;
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 5.0)

let () =
  section "Example 2.2: virtual auxiliary data";
  let env = Scenario.make_fig1 ~seed:2 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex22 env.Scenario.vdp) ()
  in
  Printf.printf "annotation:\n%s\n"
    (Vdp.Annotation.to_string (Mediator.annotation med));
  run_in env (fun () -> Mediator.initialize med);
  let db1 = Scenario.source env "db1" in
  let db2 = Scenario.source env "db2" in
  let polls_db1_before = Source_db.polls_served (Adapter.db db1) in

  (* frequent R updates *)
  let rng = Datagen.state 11 in
  Driver.update_process ~rng ~src:db1
    {
      Driver.u_relation = "R";
      u_interval = 0.2;
      u_count = 25;
      u_delete_fraction = 0.2;
      u_specs = Scenario.fig1_update_specs "R";
    };
  Scenario.run_to_quiescence env med;
  Printf.printf
    "25 R updates processed; extra polls of db1: %d (rule #1 needs only ΔR' \
     and the materialized S')\n"
    (Source_db.polls_served (Adapter.db db1) - polls_db1_before);

  (* one rare S update *)
  let s_tuple =
    Tuple.of_list
      [ ("s1", Value.Int 555); ("s2", Value.Int 1); ("s3", Value.Int 2) ]
  in
  Adapter.commit db2 (Driver.single_insert db2 "S" s_tuple);
  Scenario.run_to_quiescence env med;
  Printf.printf
    "1 S update processed; polls of db1 now: %d (rule #2 reads the virtual \
     R', compensated by ECA)\n"
    (Source_db.polls_served (Adapter.db db1) - polls_db1_before);

  section "Example 2.3: hybrid export relation";
  let env = Scenario.make_fig1 ~seed:3 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) ()
  in
  Printf.printf "annotation:\n%s\n"
    (Vdp.Annotation.to_string (Mediator.annotation med));
  run_in env (fun () -> Mediator.initialize med);
  let db1 = Scenario.source env "db1" in
  let db2 = Scenario.source env "db2" in
  let p1 = Source_db.polls_served (Adapter.db db1)
  and p2 = Source_db.polls_served (Adapter.db db2) in

  run_in env (fun () ->
      let fast = Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] () in
      Printf.printf
        "π(r1,s1) T: %d tuples — answered from the store (polls: db1 +%d, db2 \
         +%d)\n"
        (Bag.cardinal fast.Qp.tuples)
        (Source_db.polls_served (Adapter.db db1) - p1)
        (Source_db.polls_served (Adapter.db db2) - p2));

  run_in env (fun () ->
      let cond = Predicate.(lt (attr "r3") (int 100)) in
      let slow = Mediator.query med ~node:"T" ~attrs:[ "r3"; "s1" ] ~cond () in
      Printf.printf
        "π(r3,s1) σ(r3<100) T: %d tuples — key-based construction through r1 \
         (polls: db1 +%d, db2 +%d; key-based uses: %d)\n"
        (Bag.cardinal slow.Qp.tuples)
        (Source_db.polls_served (Adapter.db db1) - p1)
        (Source_db.polls_served (Adapter.db db2) - p2)
        (Obs.Metrics.value (Mediator.stats med).Med.key_based_constructions));

  section "Consistency";
  let report =
    Correctness.Checker.check ~vdp:env.Scenario.vdp
      ~sources:env.Scenario.sources ~events:(Mediator.events med) ()
  in
  Printf.printf "checked %d queries: %s\n"
    report.Correctness.Checker.checked_queries
    (if Correctness.Checker.consistent report then "CONSISTENT" else "BROKEN")
