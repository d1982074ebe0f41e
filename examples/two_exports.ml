(* Example 5.1 / Figure 4: a mediator with two export relations,

     E = π_{a1,a2,b1}( A ⋈_{a1²+a2<b2²} B )
     G = π_{a1,b1} E − F        where F = π_{a1,b1}( C ⋈_{c1=d1} D )

   The non-equi join makes E expensive to evaluate, so E is kept
   hybrid ([a1^m, a2^v, b1^m]); F is cheap (an equi join of local
   materialized copies), so it stays virtual; B' is virtual because B
   churns. This example also shows the Sec. 5.3 advisor reproducing
   that annotation from workload statistics, and the set-difference
   node G being maintained incrementally.

   Run with: dune exec examples/two_exports.exe *)

open Relalg
open Vdp
open Sim
open Squirrel
open Workload

let section title = Printf.printf "\n=== %s ===\n%!" title

let run_in env f =
  Engine.spawn env.Scenario.engine f;
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 5.0)

let () =
  section "The VDP (Figure 4)";
  let env = Scenario.make_ex51 ~seed:4 () in
  Format.printf "%a@." Graph.pp env.Scenario.vdp;

  section "The advisor derives the paper's annotation from statistics";
  let profile =
    {
      Advisor.update_rate = (function "B" -> 50.0 | _ -> 1.0);
      attr_access =
        (fun node attr ->
          match (node, attr) with "E", "a2" -> 0.01 | _ -> 0.9);
    }
  in
  let advised, reasons = Advisor.advise env.Scenario.vdp profile in
  List.iter (fun r -> Printf.printf "  - %s\n" r) reasons;
  Printf.printf "advised annotation:\n%s\n" (Annotation.to_string advised);
  Printf.printf "matches the paper's suggestion: %b\n"
    (Annotation.equal advised (Scenario.ann_ex51 env.Scenario.vdp));

  section "Deploy and run";
  let med = Scenario.mediator env ~annotation:advised () in
  run_in env (fun () -> Mediator.initialize med);
  run_in env (fun () ->
      let e = Mediator.query med ~node:"E" ~attrs:[ "a1"; "b1" ] () in
      let g = Mediator.query med ~node:"G" () in
      Printf.printf "|π(a1,b1) E| = %d   |G| = %d\n"
        (Bag.cardinal e.Qp.tuples)
        (Bag.cardinal g.Qp.tuples));

  section "Churn on all four sources";
  let rng = Datagen.state 12 in
  List.iter
    (fun (src_name, rel, interval) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = interval;
          u_count = 10;
          u_delete_fraction = 0.3;
          u_specs = Scenario.ex51_update_specs rel;
        })
    [ ("dbA", "A", 0.9); ("dbB", "B", 0.15); ("dbC", "C", 0.8); ("dbD", "D", 0.8) ];
  Scenario.run_to_quiescence env med;
  let stats = Mediator.stats med in
  Printf.printf
    "update txs: %d, atoms propagated: %d, temps built: %d, polls: %d\n"
    (Obs.Metrics.value stats.Med.update_txs)
    (Obs.Metrics.value stats.Med.propagated_atoms)
    (Obs.Metrics.value stats.Med.temps_built)
    (Obs.Metrics.value stats.Med.polls);

  section "Query the maintained exports (and the virtual a2)";
  run_in env (fun () ->
      let g = Mediator.query med ~node:"G" () in
      Printf.printf "|G| = %d after churn\n" (Bag.cardinal g.Qp.tuples));
  run_in env (fun () ->
      let e_full = Mediator.query med ~node:"E" () in
      Printf.printf "|E| = %d (a2 fetched through the materialized key a1)\n"
        (Bag.cardinal e_full.Qp.tuples));

  section "Consistency";
  let report =
    Correctness.Checker.check ~vdp:env.Scenario.vdp
      ~sources:env.Scenario.sources ~events:(Mediator.events med) ()
  in
  Printf.printf "checked %d queries: %s\n"
    report.Correctness.Checker.checked_queries
    (if Correctness.Checker.consistent report then "CONSISTENT" else "BROKEN")
