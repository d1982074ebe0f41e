(* Mediator-level fault recovery: announcement gaps trigger a resync
   that converges, unreachable sources degrade queries to stale
   answers, and transient outages are survived by poll retry. *)

open Relalg
open Sim
open Sources
open Squirrel
open Workload

let fault_config =
  Med.Config.make ~poll_timeout:0.5 ~poll_retries:4 ~poll_backoff:0.5 ()

let setup ?(config = fault_config) () =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  (env, med)

let commit_r env i =
  let db1 = Scenario.source env "db1" in
  let tuple =
    Tuple.of_list
      [
        ("r1", Value.Int (9000 + i));
        ("r2", Value.Int (i mod 40));
        ("r3", Value.Int (i * 10));
        ("r4", Value.Int 100);
      ]
  in
  Adapter.commit db1 (Driver.single_insert db1 "R" tuple)

let test_gap_triggers_resync_and_converges () =
  let env, med = setup () in
  let db1 = Scenario.source env "db1" in
  let at d f = Engine.schedule env.Scenario.engine ~delay:d f in
  at 1.0 (fun () -> commit_r env 1);
  (* this commit's announcement dies on the wire *)
  at 2.0 (fun () -> Source_db.set_link_up (Adapter.db db1) false);
  at 2.1 (fun () -> commit_r env 2);
  at 3.0 (fun () -> Source_db.set_link_up (Adapter.db db1) true);
  (* the next announcement's prev_version exposes the loss *)
  at 3.1 (fun () -> commit_r env 3);
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 5.0);
  Scenario.run_to_quiescence env med;
  let s = Mediator.stats med in
  Alcotest.(check bool) "gap detected" true ((Obs.Metrics.value s.Med.gaps_detected) >= 1);
  Alcotest.(check bool) "resync ran" true ((Obs.Metrics.value s.Med.resyncs) >= 1);
  Alcotest.(check (list string)) "dirty repaired" [] (Ledger.dirty_sources med.Med.ledger);
  let answer =
    Engine.run_process env.Scenario.engine (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ()).Qp.tuples)
  in
  Tutil.check_bag "view converged to the lost update"
    (Bag.project [ "r1"; "s1" ] (Tutil.recompute env "T"))
    answer

let test_outage_degrades_to_stale_answer () =
  let env, med = setup () in
  let db1 = Scenario.source env "db1" in
  (* r3 is virtual on T and lives in db1: the query below must poll it,
     and the outage outlasts every retry *)
  let now = Engine.now env.Scenario.engine in
  Source_db.set_outages (Adapter.db db1) [ (now, now +. 1000.0) ];
  let rich =
    Engine.run_process env.Scenario.engine (fun () ->
        Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3" ] ())
  in
  (match rich.Qp.quality with
  | Qp.Fresh -> Alcotest.fail "expected a stale-marked answer"
  | Qp.Stale markers ->
    Alcotest.(check bool)
      "marker names the unreachable source" true
      (List.exists (fun m -> String.equal m.Med.st_source "db1") markers));
  (* degraded to the materialized subset: r3 is gone, r1 survives *)
  Alcotest.(check (list string))
    "materialized attributes only" [ "r1" ]
    (Schema.attrs (Bag.schema rich.Qp.tuples));
  Tutil.check_bag "served from the store"
    (Bag.project [ "r1" ] (Tutil.recompute env "T"))
    rich.Qp.tuples;
  let s = Mediator.stats med in
  Alcotest.(check bool) "poll budget exhausted" true ((Obs.Metrics.value s.Med.poll_failures) >= 1);
  Alcotest.(check int) "degraded answer counted" 1 (Obs.Metrics.value s.Med.degraded_answers)

let test_retry_survives_transient_blackhole () =
  let env, med = setup () in
  let db1 = Scenario.source env "db1" in
  (* the first attempt times out inside the window (0.5 > 0.3); the
     backoff pushes the retry past it *)
  let now = Engine.now env.Scenario.engine in
  Source_db.set_outages (Adapter.db db1) ~mode:Source_db.Black_hole
    [ (now, now +. 0.3) ];
  let rich =
    Engine.run_process env.Scenario.engine (fun () ->
        Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3" ] ())
  in
  (match rich.Qp.quality with
  | Qp.Fresh -> ()
  | Qp.Stale _ -> Alcotest.fail "retry should have produced a fresh answer");
  Tutil.check_bag "fresh answer after retry"
    (Bag.project [ "r1"; "r3" ] (Tutil.recompute env "T"))
    rich.Qp.tuples;
  let s = Mediator.stats med in
  Alcotest.(check bool) "a retry happened" true ((Obs.Metrics.value s.Med.poll_retries) >= 1);
  Alcotest.(check int) "no budget exhaustion" 0 (Obs.Metrics.value s.Med.poll_failures)

(* property: under every fault profile, no served answer's observed
   staleness (checker-measured against source commit history) ever
   exceeds the online bound the answer reported — the bound may be
   loose, never a lie *)
let test_chaos_bounds_respected () =
  let sc =
    match Chaos_run.scenario_by_name "fig1" with
    | Some sc -> sc
    | None -> Alcotest.fail "fig1 chaos scenario missing"
  in
  List.iter
    (fun profile ->
      List.iter
        (fun seed ->
          let r = Chaos_run.run_one sc profile seed in
          if not r.Chaos_run.c_bounds_ok then
            Alcotest.failf "profile %s seed %d: %d answers overran their bound"
              (Faults.name profile) seed r.Chaos_run.c_bound_violations;
          Alcotest.(check bool)
            (Printf.sprintf "profile %s seed %d passes" (Faults.name profile)
               seed)
            true (Chaos_run.passed r))
        [ 1; 2 ])
    Faults.all

let () =
  Alcotest.run "faults"
    [
      ( "recovery",
        [
          Alcotest.test_case "gap -> resync -> convergence" `Quick
            test_gap_triggers_resync_and_converges;
          Alcotest.test_case "outage -> degraded stale answer" `Quick
            test_outage_degrades_to_stale_answer;
          Alcotest.test_case "transient black hole -> retry" `Quick
            test_retry_survives_transient_blackhole;
        ] );
      ( "freshness bounds",
        [
          Alcotest.test_case "observed staleness <= reported bound" `Slow
            test_chaos_bounds_respected;
        ] );
    ]
