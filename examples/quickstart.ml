(* Quickstart: Example 2.1 end-to-end.

   Two autonomous source databases hold R(r1,r2,r3,r4) and S(s1,s2,s3).
   We generate a Squirrel mediator for the integrated view

     T = π_{r1,r3,s1,s2}( σ_{r4=100} R  ⋈_{r2=s1}  σ_{s3<50} S )

   with everything materialized (fully materialized support), commit
   updates at the sources, and watch the mediator keep T fresh by pure
   incremental propagation — no source is ever polled after the
   initial load.

   Run with: dune exec examples/quickstart.exe *)

open Relalg
open Sim
open Sources
open Squirrel
open Workload

let section title = Printf.printf "\n=== %s ===\n%!" title

let () =
  section "Setup: two sources, one integrated view";
  let env = Scenario.make_fig1 ~seed:1 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex21 env.Scenario.vdp)
      ()
  in
  print_endline (Mediator.describe med);

  section "Initialization (t_view_init)";
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  Printf.printf "initial polls: %d (one per source)\n"
    (Obs.Metrics.value (Mediator.stats med).Med.polls);

  section "Query the view";
  let show_query () =
    Engine.spawn env.Scenario.engine (fun () ->
        let answer = Mediator.query med ~node:"T" () in
        Printf.printf "T has %d tuples at t=%.2f\n" (Bag.cardinal answer.Qp.tuples)
          (Engine.now env.Scenario.engine))
  in
  show_query ();
  Engine.run env.Scenario.engine
    ~until:(Engine.now env.Scenario.engine +. 1.0);

  section "Commit updates at the sources";
  let db1 = Scenario.source env "db1" in
  let insert_r r1 r2 r4 =
    let tuple =
      Tuple.of_list
        [
          ("r1", Value.Int r1);
          ("r2", Value.Int r2);
          ("r3", Value.Int (r1 mod 7));
          ("r4", Value.Int r4);
        ]
    in
    Adapter.commit db1 (Driver.single_insert db1 "R" tuple)
  in
  insert_r 1001 3 100;
  (* passes the selection: will reach T *)
  insert_r 1002 4 200;
  (* filtered out by r4 = 100: never leaves the leaf-parent *)
  Printf.printf "committed 2 transactions at db1 (versions now %d)\n"
    (Source_db.version (Adapter.db db1));

  section "Incremental propagation";
  Scenario.run_to_quiescence env med;
  Printf.printf "update transactions: %d, atoms propagated: %d, polls: %d\n"
    (Obs.Metrics.value (Mediator.stats med).Med.update_txs)
    (Obs.Metrics.value (Mediator.stats med).Med.propagated_atoms)
    (Obs.Metrics.value (Mediator.stats med).Med.polls);
  show_query ();
  Engine.run env.Scenario.engine
    ~until:(Engine.now env.Scenario.engine +. 1.0);

  section "Consistency check (Theorem 7.1, empirically)";
  let report =
    Correctness.Checker.check ~vdp:env.Scenario.vdp
      ~sources:env.Scenario.sources ~events:(Mediator.events med) ()
  in
  Printf.printf "queries checked: %d, violations: %d -> %s\n"
    report.Correctness.Checker.checked_queries
    (List.length report.Correctness.Checker.violations)
    (if Correctness.Checker.consistent report then "CONSISTENT" else "BROKEN");
  List.iter
    (fun (src, s) -> Printf.printf "max staleness of %s: %.3f\n" src s)
    report.Correctness.Checker.max_staleness
