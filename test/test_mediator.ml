(* End-to-end tests of Squirrel mediators: initialization, incremental
   maintenance (IUP), virtual-data access (VAP + ECA), query processing
   (QP + key-based construction), and the Sec. 3 correctness notions
   validated by the independent checker. *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Correctness
open Workload

let check_consistent ?(expect = true) env med =
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  Alcotest.(check bool)
    (if expect then "run is consistent" else "run is NOT consistent")
    expect (Checker.consistent report);
  report

let setup_fig1 ?config annotation_of =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env ~annotation:(annotation_of env.Scenario.vdp) ?config
      ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  (env, med)

(* --- initialization --------------------------------------------------- *)

let test_init_matches_direct () =
  let env, med = setup_fig1 Scenario.ann_ex21 in
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "initial view = direct evaluation" (Tutil.recompute env "T") answer;
  Alcotest.(check bool) "answer non-empty" false (Bag.is_empty answer)

let test_init_reflect_logged () =
  let env, med = setup_fig1 Scenario.ann_ex21 in
  ignore env;
  match Mediator.events med with
  | Med.Update_tx { ut_reflect; _ } :: _ ->
    Alcotest.(check (list (pair string int)))
      "initial reflect vector"
      [ ("db1", 0); ("db2", 0) ]
      ut_reflect
  | _ -> Alcotest.fail "expected initialization event"

(* --- Example 2.1: fully materialized, incremental maintenance ---------- *)

let commit_fresh_r env ~r1 ~r2 ~r3 ~r4 =
  let db1 = Scenario.source env "db1" in
  let tuple =
    Tuple.of_list
      [
        ("r1", Value.Int r1);
        ("r2", Value.Int r2);
        ("r3", Value.Int r3);
        ("r4", Value.Int r4);
      ]
  in
  Adapter.commit db1 (Driver.single_insert db1 "R" tuple)

let commit_fresh_s env ~s1 ~s2 ~s3 =
  let db2 = Scenario.source env "db2" in
  let tuple =
    Tuple.of_list
      [ ("s1", Value.Int s1); ("s2", Value.Int s2); ("s3", Value.Int s3) ]
  in
  Adapter.commit db2 (Driver.single_insert db2 "S" tuple)

let test_ex21_incremental () =
  let env, med = setup_fig1 Scenario.ann_ex21 in
  (* inserts that pass the selections and join with existing data *)
  commit_fresh_r env ~r1:5000 ~r2:1 ~r3:7 ~r4:100;
  (* an insert filtered out by r4 = 100 *)
  commit_fresh_r env ~r1:5001 ~r2:2 ~r3:8 ~r4:200;
  commit_fresh_s env ~s1:6000 ~s2:9 ~s3:10;
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "incrementally maintained = recompute" (Tutil.recompute env "T")
    answer;
  ignore (check_consistent env med)

let test_ex21_no_polling () =
  (* fully materialized support: after initialization, maintenance
     never touches the sources (Example 2.1's "without polling") *)
  let env, med = setup_fig1 Scenario.ann_ex21 in
  let polls_after_init = (Obs.Metrics.value (Mediator.stats med).Med.polls) in
  for i = 0 to 20 do
    commit_fresh_r env ~r1:(7000 + i) ~r2:(i mod 40) ~r3:i ~r4:100
  done;
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "maintained correctly" (Tutil.recompute env "T") answer;
  Alcotest.(check int)
    "no polls beyond initialization" polls_after_init
    (Obs.Metrics.value (Mediator.stats med).Med.polls);
  Alcotest.(check bool)
    "updates were propagated incrementally" true
    ((Obs.Metrics.value (Mediator.stats med).Med.propagated_atoms) > 0)

let test_ex21_deletions () =
  let env, med = setup_fig1 Scenario.ann_ex21 in
  let db1 = Scenario.source env "db1" in
  (* delete an R row that currently contributes to T *)
  let contributing =
    Bag.support
      (Bag.select Predicate.(eq (attr "r4") (int 100)) (Adapter.current db1 "R"))
  in
  (match contributing with
  | victim :: _ -> Adapter.commit db1 (Driver.single_delete db1 "R" victim)
  | [] -> Alcotest.fail "expected a contributing row");
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "deletion propagated" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

(* --- Example 2.2: virtual auxiliary data ------------------------------- *)

let test_ex22_r_updates_no_polls () =
  (* rule #1 needs only ΔR' and S': frequent R updates propagate
     without touching any source *)
  let env, med = setup_fig1 Scenario.ann_ex22 in
  let db1 = Scenario.source env "db1" in
  let polls0 = Source_db.polls_served (Adapter.db db1) in
  for i = 0 to 10 do
    commit_fresh_r env ~r1:(8000 + i) ~r2:(i mod 40) ~r3:i ~r4:100
  done;
  Scenario.run_to_quiescence env med;
  Alcotest.(check int)
    "R updates processed without polling db1" polls0
    (Source_db.polls_served (Adapter.db db1));
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "T maintained" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

let test_ex22_s_update_polls_r () =
  (* rule #2 needs R', which is virtual: an S update forces a poll of
     db1 (the paper's "rare case ... the mediator must incur the
     expense of sending queries to relation R") *)
  let env, med = setup_fig1 Scenario.ann_ex22 in
  let db1 = Scenario.source env "db1" in
  let polls0 = Source_db.polls_served (Adapter.db db1) in
  commit_fresh_s env ~s1:6100 ~s2:3 ~s3:5;
  Scenario.run_to_quiescence env med;
  Alcotest.(check bool)
    "db1 polled to process the S update" true
    (Source_db.polls_served (Adapter.db db1) > polls0);
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "T maintained" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

let test_eca_compensation_same_batch () =
  (* R and S inserts that join with each other land in one update
     transaction; without Eager Compensation the polled R' would
     already include the R insert and the cross term would be counted
     twice *)
  let env, med = setup_fig1 Scenario.ann_ex22 in
  commit_fresh_r env ~r1:9000 ~r2:777 ~r3:1 ~r4:100;
  commit_fresh_s env ~s1:777 ~s2:2 ~s3:3;
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "cross term counted exactly once" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

let test_eca_ablation_breaks_consistency () =
  let config = Med.Config.make ~eca_enabled:false () in
  let env, med = setup_fig1 ~config Scenario.ann_ex22 in
  commit_fresh_r env ~r1:9100 ~r2:778 ~r3:1 ~r4:100;
  commit_fresh_s env ~s1:778 ~s2:2 ~s3:3;
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Alcotest.(check bool)
    "without ECA the answer is wrong" false
    (Bag.equal (Tutil.recompute env "T") answer);
  ignore (check_consistent ~expect:false env med)

(* An S′ update reads only the R′ rows its join rule can match: the
   update-time poll of db1 is restricted to r2 ∈ {s1 of ΔS′}. *)

let setup_fig1_sized ?config () =
  let env = Scenario.make_fig1 ~r_size:400 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex22 env.Scenario.vdp)
      ?config ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  (env, med)

(* |σ_{r2=k} R′| at db1's current state *)
let r'_rows_at env k =
  Bag.cardinal
    (Bag.select
       Predicate.(conj [ eq (attr "r4") (int 100); eq (attr "r2") (int k) ])
       (Adapter.current (Scenario.source env "db1") "R"))

(* an S tuple passing σ_{s3<50} whose key joins the most R′ rows *)
let busiest_s env =
  let s = Adapter.current (Scenario.source env "db2") "S" in
  let key t = match Tuple.get t "s1" with Value.Int k -> k | _ -> -1 in
  Bag.fold
    (fun t _ best ->
      let n = r'_rows_at env (key t) in
      match best with
      | Some (_, m) when m >= n -> best
      | _ -> Some (t, n))
    (Bag.select Predicate.(lt (attr "s3") (int 50)) s)
    None
  |> Option.get

let poll_counts med =
  let s = Mediator.stats med in
  (Obs.Metrics.value s.Med.polls, Obs.Metrics.value s.Med.polled_tuples)

let check_one_restricted_poll med ~before ~rows what =
  let polls0, tuples0 = before and polls1, tuples1 = poll_counts med in
  Alcotest.(check int) (what ^ ": one poll of db1") 1 (polls1 - polls0);
  Alcotest.(check int)
    (what ^ ": ships |σ_{r2=k} R′| tuples") rows (tuples1 - tuples0)

(* the tuple ops of the vap spans recorded since [before] of them *)
let new_vap_ops med ~before =
  List.filteri (fun i _ -> i >= before) (Tutil.find_spans (Mediator.trace med) "vap")
  |> List.map (fun sp -> sp.Obs.Trace.ops)

let indexed env src = Source_db.indexed (Adapter.db (Scenario.source env src))

(* The restricted poll names its key r2 ∈ {k}, so db1 probes an index
   on R.r2 instead of scanning R: the vap span costs the probed rows
   plus one op per key, not |R|. *)
let test_ex22_s_update_polls_joining_rows () =
  let env, med = setup_fig1_sized () in
  let db2 = Scenario.source env "db2" in
  let victim, rows = busiest_s env in
  let k = match Tuple.get victim "s1" with Value.Int k -> k | _ -> -1 in
  let r = Adapter.current (Scenario.source env "db1") "R" in
  let r_rows = Bag.cardinal (Bag.select Predicate.(eq (attr "r2") (int k)) r) in
  let r_size = Bag.cardinal r in
  Alcotest.(check bool) "the key joins several R′ rows" true (rows >= 2);
  (* the compiled chain π σ_key (π σ_{r4=100} R) charges one op per
     step a row enters (at most four), plus one per key probed; a scan
     would charge every row of R at least once *)
  let check_probed what ~before =
    match new_vap_ops med ~before with
    | [ ops ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: vap ops %d ≤ 4·|σ_{r2=k} R| + |keys| = %d" what ops
           ((4 * r_rows) + 1))
        true
        (ops <= (4 * r_rows) + 1 && ops < r_size)
    | l -> Alcotest.failf "%s: %d vap spans" what (List.length l)
  in
  let before = poll_counts med in
  let vaps = List.length (Tutil.find_spans (Mediator.trace med) "vap") in
  Adapter.commit db2 (Driver.single_delete db2 "S" victim);
  Scenario.run_to_quiescence env med;
  check_one_restricted_poll med ~before ~rows "S′ delete";
  check_probed "S′ delete" ~before:vaps;
  Alcotest.(check (list (pair string string)))
    "db1 indexed R.r2" [ ("R", "r2") ] (indexed env "db1");
  let before = poll_counts med in
  let vaps = List.length (Tutil.find_spans (Mediator.trace med) "vap") in
  commit_fresh_s env ~s1:k ~s2:1 ~s3:2;
  Scenario.run_to_quiescence env med;
  check_one_restricted_poll med ~before ~rows "S′ insert";
  check_probed "S′ insert" ~before:vaps;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "T maintained" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

(* initialization and an unconditioned query on the hybrid T of
   Example 2.3 poll unrestricted: the sources hold the indexes the
   mediator declared when it connected, no more *)
let test_unrestricted_polls_build_no_index () =
  let env, med = setup_fig1 Scenario.ann_ex23 in
  let polls0, _ = poll_counts med in
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "T = recompute" (Tutil.recompute env "T") answer;
  Alcotest.(check bool) "the query polled" true (fst (poll_counts med) > polls0);
  Alcotest.(check (list (pair string string)))
    "db1: the declared indexes" [ ("R", "r1"); ("R", "r2") ] (indexed env "db1");
  Alcotest.(check (list (pair string string)))
    "db2: the declared index" [ ("S", "s1") ] (indexed env "db2");
  ignore (check_consistent env med)

(* The fig1 index plans: Example 2.1 polls nothing after
   initialization; Example 2.2's S updates poll R′ by the join column
   r2; Example 2.3's R updates poll S′ by s1, and its key-based
   construction polls R′ by r1 unless that construction is off. Each source holds its plan as soon
   as the mediator connects. *)
let test_fig1_index_plans () =
  List.iter
    (fun (name, ann, db1, db2) ->
      let env = Scenario.make_fig1 () in
      let med = Scenario.mediator env ~annotation:(ann env.Scenario.vdp) () in
      List.iter
        (fun (src, plan) ->
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s: %s plan" name src)
            plan (Med.index_plan med src);
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s: %s indexed at connect" name src)
            plan (indexed env src))
        [ ("db1", db1); ("db2", db2) ])
    [
      ("ex21", Scenario.ann_ex21, [], []);
      ("ex22", Scenario.ann_ex22, [ ("R", "r2") ], []);
      ("ex23", Scenario.ann_ex23, [ ("R", "r1"); ("R", "r2") ], [ ("S", "s1") ]);
    ];
  (* without the key-based construction nothing polls by r1 *)
  let env = Scenario.make_fig1 () in
  let config = Med.Config.make ~key_based_enabled:false () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) ~config ()
  in
  Alcotest.(check (list (pair string string)))
    "ex23, key-based off: db1 plan" [ ("R", "r2") ] (Med.index_plan med "db1");
  Alcotest.(check (list (pair string string)))
    "ex23, key-based off: db2 plan" [ ("S", "s1") ] (Med.index_plan med "db2")

(* The restricted poll answers from db1's current state while an R
   update touching the restricted key and another key waits in the
   queue: Eager Compensation rolls back only its atoms on that key. *)
let test_ex22_restricted_poll_eca () =
  let config = Med.Config.make ~max_batch:1 ~flush_interval:5.0 () in
  let env, med = setup_fig1_sized ~config () in
  let db1 = Scenario.source env "db1" and db2 = Scenario.source env "db2" in
  let victim, _ = busiest_s env in
  let k = match Tuple.get victim "s1" with Value.Int k -> k | _ -> -1 in
  let old_r =
    Bag.fold
      (fun t _ acc ->
        if
          Tuple.get t "r2" = Value.Int k && Tuple.get t "r4" = Value.Int 100
        then Some t
        else acc)
      (Adapter.current db1 "R") None
    |> Option.get
  in
  let r_tuple r1 r2 =
    Tuple.of_list
      [
        ("r1", Value.Int r1);
        ("r2", Value.Int r2);
        ("r3", Value.Int 7);
        ("r4", Value.Int 100);
      ]
  in
  (* the S′ delete is queued first; the R update follows it into the
     queue before the next flush, so the S batch polls past it *)
  Adapter.commit db2 (Driver.single_delete db2 "S" victim);
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 0.5);
  Alcotest.(check int) "S′ delete queued" 1 (Mediator.queue_length med);
  Adapter.commit db1
    (List.fold_left Delta.Multi_delta.smash Delta.Multi_delta.empty
       [
         Driver.single_insert db1 "R" (r_tuple 9100 k);
         Driver.single_insert db1 "R" (r_tuple 9101 (k + 1));
         Driver.single_delete db1 "R" old_r;
       ]);
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 0.5);
  Alcotest.(check int) "R update queued behind it" 2 (Mediator.queue_length med);
  let before = poll_counts med in
  let rows = r'_rows_at env k in
  Scenario.run_to_quiescence env med;
  check_one_restricted_poll med ~before ~rows "S′ delete past a queued R update";
  let unseen =
    List.filter_map
      (fun sp -> Obs.Trace.attr sp "unseen_atoms")
      (Tutil.find_spans (Mediator.trace med) "eca")
  in
  Alcotest.(check (list string)) "ECA saw the queued R update" [ "3" ] unseen;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "T = recompute" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

(* A NaN constant equals itself in the closure's fixpoint: merging the
   same condition twice changes nothing, so the query returns. *)
let test_nan_condition_closes () =
  let env, med = setup_fig1 Scenario.ann_ex23 in
  let cond = Predicate.(lt (attr "r3") (Const (Value.Float Float.nan))) in
  let answer =
    Engine.run_process env.Scenario.engine (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r3"; "s2" ] ~cond ()).Qp.tuples)
  in
  Tutil.check_bag "σ_{r3<nan} T"
    (Bag.project [ "r3"; "s2" ] (Bag.select cond (Tutil.recompute env "T")))
    answer

(* --- Example 2.3: hybrid export, key-based construction ---------------- *)

let test_ex23_materialized_query_from_store () =
  let env, med = setup_fig1 Scenario.ann_ex23 in
  let polls0 = (Obs.Metrics.value (Mediator.stats med).Med.polls) in
  let answer =
    Engine.run_process env.Scenario.engine (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ()).Qp.tuples)
  in
  Tutil.check_bag "π(r1,s1) answered from the store"
    (Bag.project [ "r1"; "s1" ] (Tutil.recompute env "T"))
    answer;
  Alcotest.(check int) "no polls" polls0 (Obs.Metrics.value (Mediator.stats med).Med.polls);
  Alcotest.(check bool)
    "counted as store-answered" true
    ((Obs.Metrics.value (Mediator.stats med).Med.queries_from_store) > 0)

let test_ex23_virtual_attr_key_based () =
  (* query π_{r3,s1} σ_{r3<100} T: r3 is virtual, determined by the
     materialized key r1 through R' — only db1 needs polling *)
  let env, med = setup_fig1 Scenario.ann_ex23 in
  let db1 = Scenario.source env "db1" in
  let db2 = Scenario.source env "db2" in
  let p1 = Source_db.polls_served (Adapter.db db1)
  and p2 = Source_db.polls_served (Adapter.db db2) in
  let cond = Predicate.(lt (attr "r3") (int 100)) in
  let answer =
    Engine.run_process env.Scenario.engine (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r3"; "s1" ] ~cond ()).Qp.tuples)
  in
  Tutil.check_bag "key-based answer correct"
    (Bag.project [ "r3"; "s1" ] (Bag.select cond (Tutil.recompute env "T")))
    answer;
  Alcotest.(check bool)
    "used key-based construction" true
    ((Obs.Metrics.value (Mediator.stats med).Med.key_based_constructions) > 0);
  Alcotest.(check bool)
    "db1 polled" true
    (Source_db.polls_served (Adapter.db db1) > p1);
  Alcotest.(check int)
    "db2 NOT polled (S' not needed)" p2
    (Source_db.polls_served (Adapter.db db2));
  ignore (check_consistent env med)

let test_ex23_key_based_disabled_polls_both () =
  let config = Med.Config.make ~key_based_enabled:false () in
  let env, med = setup_fig1 ~config Scenario.ann_ex23 in
  let db2 = Scenario.source env "db2" in
  let p2 = Source_db.polls_served (Adapter.db db2) in
  let answer =
    Engine.run_process env.Scenario.engine (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r3"; "s1" ] ()).Qp.tuples)
  in
  Tutil.check_bag "general construction also correct"
    (Bag.project [ "r3"; "s1" ] (Tutil.recompute env "T"))
    answer;
  Alcotest.(check bool)
    "general construction polls db2 too" true
    (Source_db.polls_served (Adapter.db db2) > p2)

let test_ex23_maintenance_with_updates () =
  let env, med = setup_fig1 Scenario.ann_ex23 in
  for i = 0 to 5 do
    commit_fresh_r env ~r1:(9500 + i) ~r2:(i mod 40) ~r3:(i * 10) ~r4:100;
    commit_fresh_s env ~s1:(9600 + i) ~s2:i ~s3:(i * 20)
  done;
  Scenario.run_to_quiescence env med;
  let answer =
    Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ()).Qp.tuples)
  in
  Tutil.check_bag "hybrid T maintained under updates"
    (Bag.project [ "r1"; "s1" ] (Tutil.recompute env "T"))
    answer;
  ignore (check_consistent env med)

(* π_{r3,s2} σ_{r1=k} T: the key-based construction reads T's one row
   for k from the store, then both children under its keys — one
   keyed poll per source, each shipping at most one tuple. Each poll
   probes its source's declared index: the vap spans cost the probed
   rows plus one op per key, less than a read of R or of S, and no key
   is served by a scan. *)
let test_ex23_point_query_keyed_polls () =
  let env, med = setup_fig1 Scenario.ann_ex23 in
  let k =
    match Bag.support (Tutil.recompute env "T") with
    | t :: _ -> Tuple.get t "r1"
    | [] -> Alcotest.fail "T is empty"
  in
  let cond = Predicate.(eq (attr "r1") (Const k)) in
  let polls0, tuples0 = poll_counts med in
  let kb0 = Obs.Metrics.value (Mediator.stats med).Med.key_based_constructions in
  let vaps = List.length (Tutil.find_spans (Mediator.trace med) "vap") in
  let scanned () =
    List.map
      (fun src -> Source_db.scanned_keys (Adapter.db (Scenario.source env src)))
      [ "db1"; "db2" ]
  in
  let scanned0 = scanned () in
  let answer =
    Engine.run_process env.Scenario.engine (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r3"; "s2" ] ~cond ()).Qp.tuples)
  in
  Tutil.check_bag "answer = recompute"
    (Bag.project [ "r3"; "s2" ] (Bag.select cond (Tutil.recompute env "T")))
    answer;
  let polls1, tuples1 = poll_counts med in
  Alcotest.(check int)
    "key-based" (kb0 + 1)
    (Obs.Metrics.value (Mediator.stats med).Med.key_based_constructions);
  Alcotest.(check int) "one poll per source" 2 (polls1 - polls0);
  Alcotest.(check bool) "at most two tuples shipped" true (tuples1 - tuples0 <= 2);
  (* per source one key and at most one row, through at most four
     steps of the polled chain; a read of R or S charges every row *)
  let ops = List.fold_left ( + ) 0 (new_vap_ops med ~before:vaps) in
  let size src rel = Bag.cardinal (Adapter.current (Scenario.source env src) rel) in
  Alcotest.(check bool)
    (Printf.sprintf "vap ops %d ≤ 4·2 + 2, < |R| = %d and < |S| = %d" ops
       (size "db1" "R") (size "db2" "S"))
    true
    (ops <= (4 * 2) + 2 && ops < size "db1" "R" && ops < size "db2" "S");
  Alcotest.(check (list int)) "every key probed an index" scanned0 (scanned ());
  ignore (check_consistent env med)

(* --- answer-sized queries: probed = scanned = recompute, per rung ------- *)

(* [cond] with its key sets out of sight of every probe: [not (not c)]
   passes the rows [c] passes but is no key set *)
let hide_keys cond =
  Predicate.conj
    (List.map
       (fun c -> Predicate.Not (Predicate.Not c))
       (Predicate.conjuncts cond))

(* per round a fresh R and S row and the deletion of one of each;
   returns the deleted keys. Driven by its own [rng], so twin
   environments given equal seeds see equal streams. *)
let churn env rng ~round =
  let fresh = 1000 + (10 * round) in
  commit_fresh_r env ~r1:fresh
    ~r2:(Random.State.int rng 40)
    ~r3:(Random.State.int rng 200)
    ~r4:(100 + Random.State.int rng 2);
  commit_fresh_s env ~s1:(Random.State.int rng 40 + 40) ~s2:(Random.State.int rng 100)
    ~s3:(Random.State.int rng 100);
  List.map
    (fun (src, rel, key) ->
      let db = Scenario.source env src in
      let rows = Bag.support (Adapter.current db rel) in
      let victim = List.nth rows (Random.State.int rng (List.length rows)) in
      Adapter.commit db (Driver.single_delete db rel victim);
      (key, Tuple.get victim key))
    [ ("db1", "R", "r1"); ("db2", "S", "s1") ]

(* a key set on [attr] of 0, 1 or several values: keys T holds (some
   as equal Floats), deleted keys, an absent key, Null, duplicates *)
let random_key_set rng ~t_rows ~deleted attr =
  let pick = function
    | [] -> Value.Int 0
    | l -> List.nth l (Random.State.int rng (List.length l))
  in
  let present = List.map (fun t -> Tuple.get t attr) t_rows in
  let gone = List.filter_map (fun (a, v) -> if a = attr then Some v else None) deleted in
  let value () =
    match Random.State.int rng 6 with
    | 0 -> Value.Null
    | 1 -> pick gone
    | 2 -> Value.Int 9_999
    | 3 -> (match pick present with Value.Int k -> Value.Float (float k) | v -> v)
    | _ -> pick present
  in
  let n =
    match Random.State.int rng 3 with 0 -> 0 | 1 -> 1 | _ -> 2 + Random.State.int rng 5
  in
  let vs = List.init n (fun _ -> value ()) in
  Predicate.one_of attr (match vs with v :: _ when n > 1 -> v :: vs | _ -> vs)

(* Twin Example 2.3 mediators over equal sources and updates: [a] runs
   the full ladder, [b] has the key-based construction switched off,
   so its queries on virtual attributes take the general VAP with
   keyed polls. Every answer, asked as is and with its key sets
   hidden, equals the recompute; the store rung and the key-based
   construction with one and with two children all serve some. *)
let test_probed_equals_scanned () =
  let store = ref 0 and kb_one = ref 0 and kb_two = ref 0 and vap = ref 0 in
  List.iter
    (fun seed ->
      let twin config =
        let env = Scenario.make_fig1 ~seed () in
        let med =
          Scenario.mediator env
            ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) ?config ()
        in
        Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
        (env, med)
      in
      let env_a, med_a = twin None in
      let env_b, med_b =
        twin (Some (Med.Config.make ~key_based_enabled:false ()))
      in
      let rng_a = Random.State.make [| seed |]
      and rng_b = Random.State.make [| seed |]
      and rng = Random.State.make [| seed + 1 |] in
      (* an R row with a Null key joins T: its T row must survive the
         semijoin, which cannot name a Null key *)
      let s_key =
        match Bag.support (Tutil.recompute env_a "T") with
        | t :: _ -> Tuple.get t "s1"
        | [] -> Alcotest.fail "T is empty"
      in
      List.iter
        (fun env ->
          let db1 = Scenario.source env "db1" in
          Adapter.commit db1
            (Driver.single_insert db1 "R"
               (Tuple.of_list
                  Value.
                    [
                      ("r1", Null); ("r2", s_key); ("r3", Int 7); ("r4", Int 100);
                    ])))
        [ env_a; env_b ];
      let deleted = ref [] in
      for round = 0 to 3 do
        deleted := churn env_a rng_a ~round @ !deleted;
        ignore (churn env_b rng_b ~round);
        Scenario.run_to_quiescence env_a med_a;
        Scenario.run_to_quiescence env_b med_b;
        let t = Tutil.recompute env_a "T" in
        List.iteri
          (fun i attrs ->
            let ks =
              random_key_set rng ~t_rows:(Bag.support t) ~deleted:!deleted
                (if Random.State.bool rng then "r1" else "s1")
            in
            let extra =
              List.nth
                Predicate.
                  [
                    True;
                    lt (attr "r3") (int 100);
                    lt (attr "s2") (int 50);
                    lt (attr "s1") (int 20);
                    Cmp (Gt, attr "r1", int 30);
                  ]
                (Random.State.int rng 5)
            in
            let cond = Predicate.conj [ ks; extra ] in
            let expected = Bag.project attrs (Bag.select cond t) in
            let what = Printf.sprintf "seed %d round %d π(%s) σ(%s)" seed round
                (String.concat "," attrs) (Format.asprintf "%a" Predicate.pp cond) in
            let ask env med cond =
              Engine.run_process env.Scenario.engine (fun () ->
                  (Mediator.query med ~node:"T" ~attrs ~cond ()).Qp.tuples)
            in
            let count med f = Obs.Metrics.value (f (Mediator.stats med)) in
            let store0 = count med_a (fun s -> s.Med.queries_from_store)
            and kb0 = count med_a (fun s -> s.Med.key_based_constructions)
            and polls0 = count med_b (fun s -> s.Med.polls) in
            Tutil.check_bag (what ^ ": probed") expected (ask env_a med_a cond);
            if count med_a (fun s -> s.Med.queries_from_store) > store0 then incr store;
            if count med_a (fun s -> s.Med.key_based_constructions) > kb0 then
              incr (if List.mem "s2" attrs then kb_two else kb_one);
            Tutil.check_bag (what ^ ": scanned") expected
              (ask env_a med_a (hide_keys cond));
            Tutil.check_bag (what ^ ": general, keyed") expected (ask env_b med_b cond);
            if count med_b (fun s -> s.Med.polls) > polls0 && i > 0 then incr vap;
            Tutil.check_bag (what ^ ": general, unkeyed") expected
              (ask env_b med_b (hide_keys cond)))
          [ [ "r1"; "s1" ]; [ "r3"; "s1" ]; [ "r3"; "s2" ]; [ "r1"; "r3"; "s1"; "s2" ] ];
        let cond = Predicate.one_of "s1" [ s_key ] in
        Tutil.check_bag
          (Printf.sprintf "seed %d round %d: the Null-keyed row" seed round)
          (Bag.project [ "r1"; "r3"; "s1" ] (Bag.select cond t))
          (Engine.run_process env_a.Scenario.engine (fun () ->
               (Mediator.query med_a ~node:"T" ~attrs:[ "r1"; "r3"; "s1" ] ~cond ())
                 .Qp.tuples));
        (* the parser's [or] builds the same key set, so a typed-in
           disjunction is still served by a probe: it charges the rows
           under its two keys, not a scan of T *)
        match
          List.sort_uniq compare
            (List.filter_map
               (fun t -> match Tuple.get t "r1" with Value.Int k -> Some k | _ -> None)
               (Bag.support t))
        with
        | k1 :: k2 :: _ ->
          let cond = Parser.predicate (Printf.sprintf "r1 = %d or r1 = %d" k1 k2) in
          let what = Printf.sprintf "seed %d round %d: parsed %s" seed round
              (Format.asprintf "%a" Predicate.pp cond) in
          let ops0 = Eval.tuple_ops () in
          Tutil.check_bag what
            (Bag.project [ "r1"; "s1" ] (Bag.select cond t))
            (Engine.run_process env_a.Scenario.engine (fun () ->
                 (Mediator.query med_a ~node:"T" ~attrs:[ "r1"; "s1" ] ~cond ()).Qp.tuples));
          Alcotest.(check bool)
            (what ^ ": probed, not scanned") true
            (Eval.tuple_ops () - ops0 < Bag.support_cardinal t)
        | _ -> Alcotest.fail "T holds fewer than two r1 keys"
      done;
      ignore (check_consistent env_a med_a);
      ignore (check_consistent env_b med_b))
    [ 3; 5; 8 ];
  Alcotest.(check bool) "store rung served" true (!store > 0);
  Alcotest.(check bool) "one-child key-based served" true (!kb_one > 0);
  Alcotest.(check bool) "two-child key-based served" true (!kb_two > 0);
  Alcotest.(check bool) "general VAP polled" true (!vap > 0)

(* --- Example 5.1: two exports, difference, non-equi join --------------- *)

let setup_ex51 () =
  let env = Scenario.make_ex51 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex51 env.Scenario.vdp)
      ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  (env, med)

let test_ex51_init_and_queries () =
  let env, med = setup_ex51 () in
  let g = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"G" ()).Qp.tuples) in
  Tutil.check_bag "G = πE − F" (Tutil.recompute env "G") g;
  let e_mat =
    Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"E" ~attrs:[ "a1"; "b1" ] ()).Qp.tuples)
  in
  Tutil.check_bag "E's materialized attributes"
    (Bag.project [ "a1"; "b1" ] (Tutil.recompute env "E"))
    e_mat

let test_ex51_maintenance () =
  let env, med = setup_ex51 () in
  let rng = Datagen.state 99 in
  List.iter
    (fun (src_name, rel) ->
      let src = Scenario.source env src_name in
      Driver.update_process ~rng ~src
        {
          Driver.u_relation = rel;
          u_interval = 0.7;
          u_count = 6;
          u_delete_fraction = 0.3;
          u_specs = Scenario.ex51_update_specs rel;
        })
    [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C"); ("dbD", "D") ];
  Scenario.run_to_quiescence env med;
  let g = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"G" ()).Qp.tuples) in
  Tutil.check_bag "G maintained through difference node" (Tutil.recompute env "G") g;
  let e = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"E" ()).Qp.tuples) in
  Tutil.check_bag "E (with virtual a2) queried correctly" (Tutil.recompute env "E") e;
  ignore (check_consistent env med)

let test_ex51_contributor_kinds () =
  let env, med = setup_ex51 () in
  ignore env;
  (* every source feeds materialized data (E or G); dbB also feeds
     virtual B' *)
  Alcotest.(check bool)
    "dbB is a hybrid contributor" true
    (Mediator.contributor_kind med "dbB" = Ledger.Hybrid_contributor);
  Alcotest.(check bool)
    "dbA feeds materialized and virtual portions" true
    (Mediator.contributor_kind med "dbA" <> Ledger.Virtual_contributor)

(* --- schema alignment via renaming (federated retail) ------------------ *)

(* west's orders use different attribute names; a rename in the view
   definition aligns them with east's before the union *)
let make_federated_env () = Scenario.make_federated ()

let test_federated_rename_structure () =
  let env = make_federated_env () in
  let lp = Graph.node env.Scenario.vdp "OrdersW'" in
  Alcotest.(check (list string))
    "west leaf-parent exposes the aligned schema"
    [ "oid"; "cust"; "amt" ]
    (Schema.attrs lp.Graph.schema);
  Alcotest.(check (list string)) "key renamed too" [ "oid" ]
    (Schema.key lp.Graph.schema)

let test_federated_rename_end_to_end () =
  let env = make_federated_env () in
  let med =
    Scenario.mediator env
      ~annotation:(Vdp.Annotation.fully_materialized env.Scenario.vdp)
      ()
  in
  Mediator.enable_source_filtering med;
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let all0 = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"AllOrders" ()).Qp.tuples) in
  Alcotest.(check int) "both regions aligned" 50 (Bag.cardinal all0);
  (* updates on both sides, in their native schemas *)
  let west = Scenario.source env "dbWest" in
  Adapter.commit west
    (Driver.single_insert west "OrdersW"
       (Tuple.of_list
          [ ("wid", Value.Int 123456); ("client", Value.Int 9); ("amount", Value.Int 77) ]));
  let east = Scenario.source env "dbEast" in
  Adapter.commit east
    (Driver.single_insert east "OrdersE"
       (Tuple.of_list
          [ ("oid", Value.Int 999); ("cust", Value.Int 9); ("amt", Value.Int 55) ]));
  Scenario.run_to_quiescence env med;
  let all = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"AllOrders" ()).Qp.tuples) in
  Tutil.check_bag "renamed updates propagate" (Tutil.recompute env "AllOrders") all;
  Alcotest.(check bool)
    "west row visible under aligned names" true
    (Bag.mem all
       (Tuple.of_list
          [ ("oid", Value.Int 123456); ("cust", Value.Int 9); ("amt", Value.Int 77) ]));
  ignore (check_consistent env med)

let test_federated_rename_virtual () =
  (* fully virtual: the VAP's poll queries carry the rename to the
     source, and ECA compensation maps deltas through it *)
  let env = make_federated_env () in
  let med =
    Scenario.mediator env
      ~annotation:(Vdp.Annotation.fully_virtual env.Scenario.vdp)
      ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let west = Scenario.source env "dbWest" in
  Adapter.commit west
    (Driver.single_insert west "OrdersW"
       (Tuple.of_list
          [ ("wid", Value.Int 123457); ("client", Value.Int 3); ("amount", Value.Int 42) ]));
  let all = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"AllOrders" ()).Qp.tuples) in
  Tutil.check_bag "virtual union through rename" (Tutil.recompute env "AllOrders") all;
  ignore (check_consistent env med)

(* --- multi-relation sources and multi-relation deltas ------------------ *)

(* one source holding BOTH R and S: a single commit can atomically
   touch both relations (Sec. 6.2: "a delta can simultaneously contain
   atoms that refer to more than one relation") *)
let make_single_source_env () =
  let engine = Engine.create () in
  let rng = Datagen.state 61 in
  let db =
    Source_db.create ~engine ~name:"db"
      ~relations:[ ("R", Tutil.schema_r); ("S", Tutil.schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  Source_db.load db "R"
    (Datagen.bag rng Tutil.schema_r (Scenario.fig1_update_specs "R") ~size:30);
  Source_db.load db "S"
    (Datagen.bag rng Tutil.schema_s (Scenario.fig1_update_specs "S") ~size:20);
  let vdp =
    let b =
      Builder.create
        ~source_of:(function "R" | "S" -> Some "db" | _ -> None)
        ~schema_of:(function
          | "R" -> Some Tutil.schema_r
          | "S" -> Some Tutil.schema_s
          | _ -> None)
        ()
    in
    Builder.add_export b ~name:"T" Tutil.t_def;
    Builder.build b
  in
  Scenario.make_env ~engine ~vdp [ Adapter.relational db ]

let test_multi_relation_atomic_commit () =
  let env = make_single_source_env () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex21 env.Scenario.vdp) ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let db = Scenario.source env "db" in
  let msgs0 = (Obs.Metrics.value (Mediator.stats med).Med.messages_received) in
  (* one transaction touching both R and S: a matching pair *)
  let delta =
    Delta.Multi_delta.add
      (Driver.single_insert db "R"
         (Tuple.of_list
            [
              ("r1", Value.Int 7100);
              ("r2", Value.Int 7200);
              ("r3", Value.Int 5);
              ("r4", Value.Int 100);
            ]))
      "S"
      (Delta.Rel_delta.insert
         (Delta.Rel_delta.empty Tutil.schema_s)
         (Tuple.of_list
            [ ("s1", Value.Int 7200); ("s2", Value.Int 6); ("s3", Value.Int 7) ]))
  in
  Adapter.commit db delta;
  Scenario.run_to_quiescence env med;
  Alcotest.(check int)
    "one undividable message" 1
    ((Obs.Metrics.value (Mediator.stats med).Med.messages_received) - msgs0);
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "cross-relation pair joined exactly once"
    (Tutil.recompute env "T") answer;
  Alcotest.(check int)
    "the new pair reached T" 1
    (Bag.mult answer
       (Tuple.of_list
          [
            ("r1", Value.Int 7100);
            ("r3", Value.Int 5);
            ("s1", Value.Int 7200);
            ("s2", Value.Int 6);
          ]));
  ignore (check_consistent env med)

let test_multi_relation_hybrid_eca () =
  (* same source, R' virtual: ECA compensation must handle multiple
     leaves of one source independently *)
  let env = make_single_source_env () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex22 env.Scenario.vdp) ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let db = Scenario.source env "db" in
  (* S update forces a poll of the same source for R' *)
  Adapter.commit db
    (Driver.single_insert db "S"
       (Tuple.of_list
          [ ("s1", Value.Int 7300); ("s2", Value.Int 1); ("s3", Value.Int 2) ]));
  (* plus an R update in the same window *)
  Adapter.commit db
    (Driver.single_insert db "R"
       (Tuple.of_list
          [
            ("r1", Value.Int 7301);
            ("r2", Value.Int 7300);
            ("r3", Value.Int 3);
            ("r4", Value.Int 100);
          ]));
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "single-source ECA exact" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

(* --- source-side update filtering (Sec 6.2 optimization) --------------- *)

let test_source_filtering_end_to_end () =
  let run ~filtering =
    let env = Scenario.make_fig1 ~seed:44 () in
    let med =
      Scenario.mediator env ~annotation:(Scenario.ann_ex21 env.Scenario.vdp) ()
    in
    if filtering then Mediator.enable_source_filtering med;
    Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
    (* half the R inserts fail r4 = 100 and are irrelevant to the view *)
    for i = 0 to 19 do
      commit_fresh_r env ~r1:(6000 + i) ~r2:(i mod 40) ~r3:i
        ~r4:(if i mod 2 = 0 then 100 else 200)
    done;
    Scenario.run_to_quiescence env med;
    let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
    Tutil.check_bag "maintained correctly" (Tutil.recompute env "T") answer;
    ignore (check_consistent env med);
    (Obs.Metrics.value (Mediator.stats med).Med.atoms_received)
  in
  let unfiltered = run ~filtering:false in
  let filtered = run ~filtering:true in
  Alcotest.(check bool)
    (Printf.sprintf "fewer atoms shipped (%d < %d)" filtered unfiltered)
    true (filtered < unfiltered)

let test_source_filtering_with_eca () =
  (* filtering composes with virtual auxiliary data: the filtered
     announcements still cover exactly what ECA must compensate *)
  let env = Scenario.make_fig1 ~seed:45 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex22 env.Scenario.vdp) ()
  in
  Mediator.enable_source_filtering med;
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  commit_fresh_r env ~r1:9300 ~r2:881 ~r3:1 ~r4:100;
  commit_fresh_s env ~s1:881 ~s2:2 ~s3:3;
  (* plus an irrelevant R commit in the same window *)
  commit_fresh_r env ~r1:9301 ~r2:882 ~r3:1 ~r4:200;
  Scenario.run_to_quiescence env med;
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "cross term exact under filtering + ECA"
    (Tutil.recompute env "T") answer;
  ignore (check_consistent env med)

(* --- retail scenario: union views -------------------------------------- *)

let setup_retail annotation_of =
  let env = Scenario.make_retail () in
  let med =
    Scenario.mediator env ~annotation:(annotation_of env.Scenario.vdp) ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  (env, med)

let commit_order env ~src_name ~rel ~oid ~cust ~amt =
  let src = Scenario.source env src_name in
  let tuple =
    Tuple.of_list
      [ ("oid", Value.Int oid); ("cust", Value.Int cust); ("amt", Value.Int amt) ]
  in
  Adapter.commit src (Driver.single_insert src rel tuple)

let test_retail_union_structure () =
  let vdp = Scenario.retail_vdp () in
  Alcotest.(check (list string))
    "AllOrders children"
    [ "OrdersE'"; "OrdersW'" ]
    (Graph.children vdp "AllOrders");
  Alcotest.(check bool)
    "AllOrders is a bag node" false
    (Expr.contains_diff (Graph.def vdp "AllOrders"));
  Alcotest.(check (list string))
    "Premium children"
    [ "AllOrders"; "Cust'" ]
    (Graph.children vdp "Premium")

let test_retail_init_and_union_query () =
  let env, med = setup_retail Scenario.ann_retail_hybrid in
  let all = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"AllOrders" ()).Qp.tuples) in
  Tutil.check_bag "union export = recompute" (Tutil.recompute env "AllOrders") all;
  Alcotest.(check int) "both regions present" 80 (Bag.cardinal all);
  let premium = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"Premium" ()).Qp.tuples) in
  Tutil.check_bag "joined export = recompute" (Tutil.recompute env "Premium") premium

let test_retail_union_maintenance () =
  let env, med = setup_retail Scenario.ann_retail_hybrid in
  let polls0 = (Obs.Metrics.value (Mediator.stats med).Med.polls) in
  (* orders from both regions, plus a customer status flip *)
  commit_order env ~src_name:"dbEast" ~rel:"OrdersE" ~oid:500 ~cust:1 ~amt:99;
  commit_order env ~src_name:"dbWest" ~rel:"OrdersW" ~oid:100500 ~cust:1 ~amt:10;
  let cust_db = Scenario.source env "dbCust" in
  let flipped =
    Tuple.of_list
      [ ("cust", Value.Int 2); ("region", Value.Int 0); ("status", Value.Int 1) ]
  in
  Adapter.commit cust_db (Driver.single_insert cust_db "Cust" flipped);
  Scenario.run_to_quiescence env med;
  let premium = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"Premium" ()).Qp.tuples) in
  Tutil.check_bag "Premium maintained through the union"
    (Tutil.recompute env "Premium") premium;
  (* the virtual AllOrders is derivable from materialized regional
     copies: even the Cust-side rule needs no polling *)
  Alcotest.(check int)
    "no polls during maintenance" polls0 (Obs.Metrics.value (Mediator.stats med).Med.polls);
  ignore (check_consistent env med)

let test_retail_union_deletion_multiplicity () =
  (* two identical rows via the two regions: deleting one keeps the
     other (bag-union semantics through maintenance) *)
  let env, med = setup_retail Scenario.ann_retail_hybrid in
  commit_order env ~src_name:"dbEast" ~rel:"OrdersE" ~oid:600 ~cust:3 ~amt:77;
  commit_order env ~src_name:"dbWest" ~rel:"OrdersW" ~oid:600 ~cust:3 ~amt:77;
  Scenario.run_to_quiescence env med;
  let dup = Tuple.of_list
      [ ("oid", Value.Int 600); ("cust", Value.Int 3); ("amt", Value.Int 77) ]
  in
  let all = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"AllOrders" ()).Qp.tuples) in
  Alcotest.(check int) "multiplicity 2 in the union" 2 (Bag.mult all dup);
  let east = Scenario.source env "dbEast" in
  Adapter.commit east (Driver.single_delete east "OrdersE" dup);
  Scenario.run_to_quiescence env med;
  let all = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"AllOrders" ()).Qp.tuples) in
  Alcotest.(check int) "one copy survives" 1 (Bag.mult all dup);
  Tutil.check_bag "still equals recompute" (Tutil.recompute env "AllOrders") all;
  ignore (check_consistent env med)

let test_retail_fully_materialized () =
  let env, med = setup_retail Vdp.Annotation.fully_materialized in
  let rng = Datagen.state 123 in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.4;
          u_count = 8;
          u_delete_fraction = 0.3;
          u_specs = Scenario.retail_update_specs rel;
        })
    [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW"); ("dbCust", "Cust") ];
  Scenario.run_to_quiescence env med;
  List.iter
    (fun node ->
      let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node ()).Qp.tuples) in
      Tutil.check_bag (node ^ " maintained") (Tutil.recompute env node) answer)
    [ "AllOrders"; "Premium" ];
  ignore (check_consistent env med)

(* --- randomized Theorem 7.1 runs --------------------------------------- *)

let random_run ?vdp ~seed annotation_of =
  let env = Scenario.make_fig1 ~seed () in
  let env =
    match vdp with Some vdp -> { env with Scenario.vdp } | None -> env
  in
  let med =
    Scenario.mediator env ~annotation:(annotation_of env.Scenario.vdp) ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let rng = Datagen.state (seed * 13 + 1) in
  List.iter
    (fun (src_name, rel, interval) ->
      let src = Scenario.source env src_name in
      Driver.update_process ~rng ~src
        {
          Driver.u_relation = rel;
          u_interval = interval;
          u_count = 10;
          u_delete_fraction = 0.25;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R", 0.31); ("db2", "S", 0.73) ];
  Driver.query_process ~rng ~med
    {
      Driver.q_node = "T";
      q_interval = 0.57;
      q_count = 8;
      q_attr_sets =
        [
          ([ "r1"; "s1" ], Predicate.True);
          ([ "r1"; "r3"; "s1"; "s2" ], Predicate.True);
          ([ "r3"; "s1" ], Predicate.(lt (attr "r3") (int 100)));
        ];
    };
  Scenario.run_to_quiescence env med;
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  (env, med, report)

let test_theorem_7_1_randomized () =
  List.iter
    (fun (name, annotation_of) ->
      List.iter
        (fun seed ->
          let _, _, report = random_run ~seed annotation_of in
          if not (Checker.consistent report) then
            Alcotest.failf "annotation %s, seed %d: %s" name seed
              (String.concat "; "
                 (List.map
                    (fun v -> v.Checker.v_detail)
                    report.Checker.violations));
          Alcotest.(check bool)
            "some queries were checked" true
            (report.Checker.checked_queries > 0))
        [ 1; 2; 3 ])
    [
      ("ex21", Scenario.ann_ex21);
      ("ex22", Scenario.ann_ex22);
      ("ex23", Scenario.ann_ex23);
    ]

(* --- Theorem 7.2: freshness -------------------------------------------- *)

let test_theorem_7_2_staleness_bounded () =
  let comm = 0.05 and qproc = 0.01 and flush = 1.0 in
  let env = Scenario.make_fig1 ~seed:5 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex21 env.Scenario.vdp)
      ~config:
        (Med.Config.make ~flush_interval:flush ~op_time:0.0
           ~delays:(fun _ -> { Med.comm_delay = comm; q_proc_delay = qproc })
           ())
      ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let rng = Datagen.state 77 in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.4;
          u_count = 12;
          u_delete_fraction = 0.2;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  Driver.query_process ~rng ~med
    {
      Driver.q_node = "T";
      q_interval = 0.45;
      q_count = 12;
      q_attr_sets = [ ([ "r1"; "s1" ], Predicate.True) ];
    };
  Scenario.run_to_quiescence env med;
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  Alcotest.(check bool) "consistent" true (Checker.consistent report);
  let profile =
    {
      Mediator.ann_delay = (fun _ -> 0.0) (* Immediate announcements *);
      comm_delay = (fun _ -> comm);
      q_proc_delay = (fun _ -> qproc);
      u_hold_delay = flush;
      u_proc_delay = 0.1 (* generous bound; op_time = 0 *);
      q_proc_delay_med = 0.1;
    }
  in
  let bound =
    Mediator.theorem_7_2_bound
      ~sources:(Graph.sources env.Scenario.vdp)
      ~contributor:(Mediator.contributor_kind med)
      profile
  in
  Alcotest.(check (list string))
    "no freshness violations" []
    (List.map
       (fun v -> v.Checker.v_detail)
       (Checker.check_freshness report ~bound))

(* --- freshness SLOs (online Theorem 7.2 bounds) ------------------------- *)

let slo_env ?(announce = Source_db.Immediate) annotation_of =
  let env = Scenario.make_fig1 ~announce () in
  let med =
    Scenario.mediator env
      ~annotation:(annotation_of env.Scenario.vdp)
      ~config:
        (Med.Config.make ~op_time:0.0
           ~delays:(fun _ -> { Med.comm_delay = 0.02; q_proc_delay = 0.01 })
           ())
      ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  (env, med)

let slo_churn env =
  let rng = Datagen.state 99 in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.3;
          u_count = 6;
          u_delete_fraction = 0.25;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ]

let test_slo_answer_carries_bound () =
  let env, med = slo_env Scenario.ann_ex21 in
  slo_churn env;
  Scenario.run_to_quiescence env med;
  let a = Engine.run_process env.Scenario.engine (fun () -> Mediator.query med ~node:"T" ()) in
  List.iter
    (fun src ->
      match List.assoc_opt src a.Qp.bound with
      | Some b ->
        Alcotest.(check bool)
          (src ^ " bound finite and non-negative")
          true
          (Float.is_finite b && b >= 0.0)
      | None -> Alcotest.failf "no bound entry for %s" src)
    [ "db1"; "db2" ];
  ignore (check_consistent env med)

let test_slo_prepoll_flushes_laggards () =
  (* announcements are held for 50 time units: without escalation the
     mediator's reflected state lags far beyond any reasonable SLO.
     The prepoll's empty query makes the source flush first (FIFO), so
     the drained store is current and the answer meets the bound. *)
  let env, med =
    slo_env ~announce:(Source_db.Periodic 50.0) Scenario.ann_ex21
  in
  slo_churn env;
  Engine.run env.Scenario.engine ~until:10.0;
  let before = Obs.Metrics.value (Mediator.stats med).Med.slo_polls in
  let a =
    Engine.run_process env.Scenario.engine (fun () ->
        Mediator.query med ~node:"T" ~max_staleness:0.5 ())
  in
  Alcotest.(check bool)
    "slo poll fired" true
    (Obs.Metrics.value (Mediator.stats med).Med.slo_polls > before);
  List.iter
    (fun (src, b) ->
      if b > 0.5 +. 1e-9 then Alcotest.failf "%s bound %.3f exceeds SLO" src b)
    a.Qp.bound;
  Tutil.check_bag "escalated answer is current" (Tutil.recompute env "T")
    a.Qp.tuples;
  ignore (check_consistent env med)

let test_slo_quiescent_not_refused () =
  (* regression: a long quiet stretch makes the last announcement's
     send time recede, but the sources have nothing new — a confirming
     empty poll must advance the freshness witness, not refuse *)
  let env, med = slo_env Scenario.ann_ex21 in
  slo_churn env;
  Scenario.run_to_quiescence env med;
  Engine.run env.Scenario.engine
    ~until:(Engine.now env.Scenario.engine +. 60.0);
  let r =
    Engine.run_process env.Scenario.engine (fun () ->
        match Mediator.query med ~node:"T" ~max_staleness:1.0 () with
        | a -> Ok a
        | exception Qp.Slo_unsatisfiable m -> Error m)
  in
  match r with
  | Error m ->
    Alcotest.failf "refused despite quiescent sources (bound %s)"
      (String.concat ", "
         (List.map
            (fun (s, b) -> Printf.sprintf "%s:%.2f" s b)
            m.Qp.sm_bound))
  | Ok a ->
    Alcotest.(check bool)
      "slo poll fired" true
      (Obs.Metrics.value (Mediator.stats med).Med.slo_polls > 0);
    List.iter
      (fun (src, b) ->
        if b > 1.0 +. 1e-9 then
          Alcotest.failf "%s bound %.3f exceeds SLO" src b)
      a.Qp.bound;
    Tutil.check_bag "answer current" (Tutil.recompute env "T") a.Qp.tuples;
    ignore (check_consistent env med)

let test_slo_refusal_source_down () =
  let env, med = slo_env Scenario.ann_ex21 in
  slo_churn env;
  Scenario.run_to_quiescence env med;
  let t_q = Engine.now env.Scenario.engine in
  Source_db.set_outages
    (Adapter.db (Scenario.source env "db1"))
    [ (t_q, t_q +. 1000.0) ];
  Engine.run env.Scenario.engine ~until:(t_q +. 30.0);
  let r =
    Engine.run_process env.Scenario.engine (fun () ->
        match Mediator.query med ~node:"T" ~max_staleness:1.0 () with
        | _ -> None
        | exception Qp.Slo_unsatisfiable m -> Some m)
  in
  match r with
  | None -> Alcotest.fail "expected Slo_unsatisfiable"
  | Some m ->
    Alcotest.(check string) "refused node" "T" m.Qp.sm_node;
    (match List.assoc_opt "db1" m.Qp.sm_bound with
    | Some b ->
      Alcotest.(check bool) "db1 bound exceeds slo" true (b > 1.0)
    | None -> Alcotest.fail "no db1 entry in refused bound");
    Alcotest.(check bool)
      "refusal counted" true
      (Obs.Metrics.value (Mediator.stats med).Med.slo_refusals > 0)

let test_freshness_bound_reported () =
  let env, med = slo_env Scenario.ann_ex21 in
  slo_churn env;
  Scenario.run_to_quiescence env med;
  let fb = Mediator.freshness_bound med ~node:"T" in
  List.iter
    (fun src ->
      match List.assoc_opt src fb with
      | Some f ->
        Alcotest.(check bool)
          (src ^ " f-bar finite positive")
          true
          (Float.is_finite f && f > 0.0)
      | None -> Alcotest.failf "no f-bar entry for %s" src)
    [ "db1"; "db2" ]

(* --- the transaction stream ------------------------------------------ *)

(* the key of an S row passing s3 < 50: an R row with r4 = 100 and
   this r2 reaches T *)
let joining_r2 env =
  let passes t =
    match Tuple.get t "s3" with Value.Int v -> v < 50 | _ -> false
  in
  match
    List.find_opt passes
      (Bag.support (Adapter.current (Scenario.source env "db2") "S"))
  with
  | Some t -> (
    match Tuple.get t "s1" with
    | Value.Int k -> k
    | _ -> Alcotest.fail "s1 is an int")
  | None -> Alcotest.fail "no S row passes s3 < 50"

(* a subscriber registered after initialization receives exactly the
   events the log gains, in the same order: the checker's log and the
   stream are one record. Export deltas ride on a batch's event only
   once somebody subscribes. *)
let test_stream_is_the_log () =
  let env, med = setup_fig1 Scenario.ann_ex23 in
  let r2 = joining_r2 env in
  commit_fresh_r env ~r1:5000 ~r2 ~r3:7 ~r4:100;
  Scenario.run_to_quiescence env med;
  (match List.rev (Mediator.events med) with
  | Med.Update_tx { ut_txs = 1; ut_exports; _ } :: _ ->
    Alcotest.(check int) "no export deltas without a subscriber" 0
      (List.length ut_exports)
  | _ -> Alcotest.fail "expected the batch's event last");
  let logged = List.length (Mediator.events med) in
  let heard = ref [] in
  Mediator.subscribe med (fun e -> heard := e :: !heard);
  commit_fresh_r env ~r1:5001 ~r2 ~r3:8 ~r4:100;
  commit_fresh_s env ~s1:7000 ~s2:3 ~s3:10;
  Scenario.run_to_quiescence env med;
  ignore
    (Engine.run_process env.Scenario.engine (fun () ->
         Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3"; "s1" ] ()));
  let gained = List.filteri (fun i _ -> i >= logged) (Mediator.events med) in
  let heard = List.rev !heard in
  Alcotest.(check int) "as many events as the log gained" (List.length gained)
    (List.length heard);
  Alcotest.(check bool) "the same records, in order" true
    (List.for_all2 ( == ) gained heard);
  Alcotest.(check bool) "a batch carries T's export delta" true
    (List.exists
       (function
         | Med.Update_tx { ut_exports; _ } -> List.mem_assoc "T" ut_exports
         | Med.Query_tx _ -> false)
       heard);
  Alcotest.(check bool) "the query is on the stream" true
    (List.exists (function Med.Query_tx _ -> true | _ -> false) heard)

(* the initialization snapshot reaches no subscriber; a resync forced
   by a lost announcement reaches each as one [Update_tx] with
   [ut_txs = 0], and a mirror of the mediator (mediator-as-source) then
   holds its rebuilt export *)
let test_stream_snapshots () =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex21 env.Scenario.vdp) ()
  in
  let heard = ref 0 and snapshots = ref 0 in
  Mediator.subscribe med (fun e ->
      incr heard;
      match e with
      | Med.Update_tx { ut_txs = 0; _ } -> incr snapshots
      | Med.Update_tx _ | Med.Query_tx _ -> ());
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  Alcotest.(check int) "the initialization snapshot is logged" 1
    (List.length (Mediator.events med));
  Alcotest.(check int) "and reaches no subscriber" 0 !heard;
  let mirror = Med_source.source_db (Med_source.create med) in
  let r2 = joining_r2 env in
  let db1 = Adapter.db (Scenario.source env "db1") in
  let at d f = Engine.schedule env.Scenario.engine ~delay:d f in
  at 1.0 (fun () -> commit_fresh_r env ~r1:5000 ~r2 ~r3:7 ~r4:100);
  (* this commit's announcement dies on the wire; the next one's
     [prev_version] reveals the gap *)
  at 2.0 (fun () -> Source_db.set_link_up db1 false);
  at 2.1 (fun () -> commit_fresh_r env ~r1:5001 ~r2 ~r3:8 ~r4:100);
  at 3.0 (fun () -> Source_db.set_link_up db1 true);
  at 3.1 (fun () -> commit_fresh_r env ~r1:5002 ~r2 ~r3:9 ~r4:100);
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 5.0);
  Scenario.run_to_quiescence env med;
  let resyncs = Obs.Metrics.value (Mediator.stats med).Med.resyncs in
  Alcotest.(check bool) "the lost announcement forced a resync" true
    (resyncs >= 1);
  Alcotest.(check int) "one snapshot event per resync" resyncs !snapshots;
  let mirrored = Source_db.current mirror "T" in
  Tutil.check_bag "the mirror holds the rebuilt export"
    (Option.get (Med.store_env med "T"))
    mirrored;
  Tutil.check_bag "lost update included" (Tutil.recompute env "T") mirrored

(* the stream's notification instant: a mirror commits a child batch at
   the instant the child applied it, before the pass's compute charge
   ([op_time] per tuple op) advances the child's clock *)
let test_stream_notifies_at_apply () =
  let env, med =
    setup_fig1 ~config:(Med.Config.make ~op_time:0.01 ()) Scenario.ann_ex21
  in
  let mirror = Med_source.source_db (Med_source.create med) in
  let r2 = joining_r2 env in
  commit_fresh_r env ~r1:5000 ~r2 ~r3:7 ~r4:100;
  Scenario.run_to_quiescence env med;
  let end_of name =
    match Tutil.find_spans (Mediator.trace med) name with
    | [ sp ] -> sp.Obs.Trace.end_time
    | sps -> Alcotest.failf "expected one %s span, saw %d" name (List.length sps)
  in
  Alcotest.(check int) "one mirror version" 1 (Source_db.version mirror);
  let committed = Source_db.commit_time_of_version mirror 1 in
  Alcotest.(check (float 0.0)) "committed when the apply phase ended"
    (end_of "apply") committed;
  Alcotest.(check bool) "before the compute charge ended the batch" true
    (committed < end_of "batch_tx");
  match List.rev (Mediator.events med) with
  | Med.Update_tx { ut_time; ut_txs = 1; _ } :: _ ->
    Alcotest.(check (float 0.0)) "the event's time is that instant" committed
      ut_time
  | _ -> Alcotest.fail "expected the batch's event last"

(* --- determinism --------------------------------------------------------- *)

let test_runs_are_deterministic () =
  (* two runs from the same seed produce identical transaction logs:
     same times, same answers, same reflect vectors *)
  let run () =
    let _, med, _ = random_run ~seed:4 Scenario.ann_ex23 in
    Mediator.events med
  in
  let summarize events =
    List.map
      (function
        | Med.Update_tx { ut_time; ut_reflect; ut_atoms; ut_txs; _ } ->
          Printf.sprintf "U %.6f %s %d/%d" ut_time
            (String.concat ","
               (List.map (fun (s, v) -> s ^ ":" ^ string_of_int v) ut_reflect))
            ut_atoms ut_txs
        | Med.Query_tx { qt_time; qt_node; qt_answer; _ } ->
          Printf.sprintf "Q %.6f %s |%d|" qt_time qt_node
            (Bag.cardinal qt_answer))
      events
  in
  Alcotest.(check (list string))
    "identical transaction logs" (summarize (run ())) (summarize (run ()))

(* two mediators built from one VDP in one process own their plans: no
   derived node's delta plan is shared between them, and one update and
   query sequence gives both the same answers *)
let test_mediators_own_plans () =
  let env_a, med_a, _ = random_run ~seed:4 Scenario.ann_ex23 in
  let vdp = env_a.Scenario.vdp in
  let _, med_b, _ = random_run ~vdp ~seed:4 Scenario.ann_ex23 in
  List.iter
    (fun node ->
      match node.Graph.kind with
      | Graph.Leaf _ -> ()
      | Graph.Derived _ ->
        let plan med = (Med.node_plan med node.Graph.name).Med.np_delta in
        Alcotest.(check bool)
          (node.Graph.name ^ ": delta plans are the mediators' own")
          true
          (plan med_a != plan med_b))
    (Graph.nodes vdp);
  let answers med =
    List.filter_map
      (function
        | Med.Query_tx { qt_time; qt_answer; _ } -> Some (qt_time, qt_answer)
        | Med.Update_tx _ -> None)
      (Mediator.events med)
  in
  let qa = answers med_a and qb = answers med_b in
  Alcotest.(check int) "same number of queries" (List.length qa) (List.length qb);
  Alcotest.(check bool) "queries answered" true (qa <> []);
  List.iter2
    (fun (ta, a) (tb, b) ->
      Alcotest.(check (float 0.0)) "same query time" ta tb;
      Tutil.check_bag "same answer" a b)
    qa qb

(* every catalogue entry is runnable as listed: its default annotation
   resolves, its update relations are leaves of the named sources, its
   main query names an export carrying those attributes, and a short
   standard load under the default annotation passes the checker *)
let test_catalogue_entries () =
  List.iter
    (fun (sc : Scenario.t) ->
      let name = sc.Scenario.sc_name in
      let ann_names = List.map fst sc.Scenario.sc_annotations in
      Alcotest.(check bool)
        (name ^ ": annotation names distinct, at least one")
        true
        (ann_names <> []
        && List.length (List.sort_uniq compare ann_names)
           = List.length ann_names);
      let default = List.hd ann_names in
      let ann_of =
        match Scenario.annotation sc default with
        | Some a -> a
        | None -> Alcotest.failf "%s: default %s does not resolve" name default
      in
      let env = sc.Scenario.sc_make ~seed:5 in
      let vdp = env.Scenario.vdp in
      List.iter
        (fun (src, rel, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s is a leaf of %s" name rel src)
            true
            (List.mem rel (Graph.leaves_of_source vdp src)))
        sc.Scenario.sc_updates;
      let node, attrs = sc.Scenario.sc_query in
      (match Graph.node_opt vdp node with
      | Some n ->
        Alcotest.(check bool) (name ^ ": main query node exported") true
          n.Graph.export;
        List.iter
          (fun a ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s has %s" name node a)
              true
              (List.mem a (Schema.attrs n.Graph.schema)))
          attrs
      | None -> Alcotest.failf "%s: no node %s" name node);
      let med = Scenario.start env ~annotation:(ann_of vdp) in
      Scenario.run_load ~rng:(Workload.Datagen.state 5) env med
        ~updates:sc.Scenario.sc_updates
        ~queries:(node, [ (attrs, Predicate.True) ])
        {
          Scenario.default_load with
          Scenario.l_updates_per_rel = 3;
          l_queries = 2;
        };
      let report = check_consistent env med in
      Alcotest.(check int) (name ^ ": both queries checked") 2
        report.Checker.checked_queries)
    Scenario.catalogue

(* a query stream outlasting the updates must still be posted in full:
   the mediator goes quiet long before the last query is due *)
(* Every index a source holds was built when the mediator connected:
   for every catalogue scenario and annotation, the sources' indexes
   right after connect are the mediator's plan, the standard load's
   polls and probes add none, and the plan covers every key they name:
   no key is served by a scan *)
let test_catalogue_indexes_static () =
  List.iter
    (fun sc ->
      List.iter
        (fun (ann_name, ann_of) ->
          let env = sc.Scenario.sc_make ~seed:3 in
          let med = Scenario.start env ~annotation:(ann_of env.Scenario.vdp) in
          let indexes () =
            List.map (fun db -> (Source_db.name db, Source_db.indexed db))
              env.Scenario.sources
          in
          let at_connect = indexes () in
          List.iter
            (fun (src, ixs) ->
              Alcotest.(check (list (pair string string)))
                (Printf.sprintf "%s/%s: %s holds its plan" sc.Scenario.sc_name
                   ann_name src)
                (Med.index_plan med src) ixs)
            at_connect;
          let node, attrs = sc.Scenario.sc_query in
          Scenario.run_load ~rng:(Workload.Datagen.state 93) env med
            ~updates:sc.Scenario.sc_updates
            ~queries:(node, [ (attrs, Predicate.True) ])
            Scenario.default_load;
          Alcotest.(check (list (pair string (list (pair string string)))))
            (Printf.sprintf "%s/%s: no index built under load"
               sc.Scenario.sc_name ann_name)
            at_connect (indexes ());
          List.iter
            (fun db ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s: no key of %s scanned" sc.Scenario.sc_name
                   ann_name (Source_db.name db))
                0 (Source_db.scanned_keys db))
            env.Scenario.sources)
        sc.Scenario.sc_annotations)
    Scenario.catalogue

let test_standard_load_poses_every_query () =
  let env = Scenario.make_fig1 () in
  let med = Scenario.start env ~annotation:(Scenario.ann_ex21 env.Scenario.vdp) in
  Scenario.run_load ~rng:(Workload.Datagen.state 1) env med ~updates:[]
    ~queries:("T", [ ([ "r1"; "s1" ], Predicate.True) ])
    { Scenario.default_load with Scenario.l_queries = 30 };
  let report = check_consistent env med in
  Alcotest.(check int) "all 30 queries posted" 30
    report.Checker.checked_queries

(* --- allocation ------------------------------------------------------- *)

(* One IUP pass allocates for its delta, not for its plan: everything the
   annotation fixes (leaf-parent filters, step reads, join terms) is
   compiled in [Med.create]. Minor words of one [Iup.update_transaction]
   on Example 2.1 with the flusher parked, for a one-atom R insert that
   passes σ_{r4=100} and joins one S′ row, and for one the leaf-parent
   filter drops; each kind is run once first so that per-descriptor slot
   memos are warm. Word counts do not depend on the host. The ceilings
   sit about 20 % above this design's readings (1,068 and 327 words on
   OCaml 5.1); the design that compiled per pass read 3,040 and 672. *)
let iup_pass_words ~passes () =
  let config = Med.Config.make ~flush_interval:1e9 () in
  let env, med = setup_fig1 ~config Scenario.ann_ex21 in
  let db1 = Scenario.source env "db1" in
  let s_key =
    Bag.fold
      (fun t _ acc ->
        match (acc, Tuple.get t "s3") with
        | None, Value.Int s3 when s3 < 50 -> Some (Tuple.get t "s1")
        | _ -> acc)
      (Adapter.current (Scenario.source env "db2") "S")
      None
    |> Option.get
  in
  let next = ref 900_000 in
  let pass ~r4 =
    incr next;
    let tuple =
      Tuple.of_list
        [
          ("r1", Value.Int !next);
          ("r2", s_key);
          ("r3", Value.Int 7);
          ("r4", Value.Int r4);
        ]
    in
    Adapter.commit db1 (Driver.single_insert db1 "R" tuple);
    Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 0.5);
    Alcotest.(check int) "one announcement queued" 1 (Mediator.queue_length med);
    Engine.run_process env.Scenario.engine (fun () ->
        let w0 = Gc.minor_words () in
        let applied = Iup.update_transaction med in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool) "pass applied" true applied;
        words)
  in
  ignore (pass ~r4:100 : float);
  ignore (pass ~r4:1 : float);
  let joined = List.init passes (fun _ -> pass ~r4:100) in
  let dropped = List.init passes (fun _ -> pass ~r4:1) in
  let least = List.fold_left Float.min Float.infinity in
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "store = recompute" (Tutil.recompute env "T") answer;
  (least joined, least dropped)

let test_iup_pass_allocation () =
  let joined, dropped = iup_pass_words ~passes:3 () in
  Alcotest.(check bool)
    (Printf.sprintf "joining insert: %.0f words <= 1280" joined)
    true (joined <= 1280.);
  Alcotest.(check bool)
    (Printf.sprintf "dropped insert: %.0f words <= 395" dropped)
    true (dropped <= 395.)

(* One polling IUP pass: Example 2.2's S insert passing σ_{s3<50} polls
   db1 for the R′ rows it joins, compensates the answer and joins it
   with the S′ delta. The pass reads the closure rules and leaf-parent
   poll data compiled in [Med.create], closes its requests once, an
   empty unseen delta costs no compensation, and the join against the
   temporary is one signed hash join. The words include the poll's
   simulated round trip and db1's keyed evaluation. Flusher parked, one
   pass run first to warm the slot memos; the least of three passes.
   The ceiling sits about 15 % above this design's reading (2,068 words
   on OCaml 5.1); the design that re-derived the closure, key columns
   and compensation chain per request, and joined the temporary once
   per sign, read 3,362. *)
let polling_pass_words ~passes () =
  let config = Med.Config.make ~flush_interval:1e9 () in
  let env, med = setup_fig1 ~config Scenario.ann_ex22 in
  let next = ref 900_000 in
  let pass () =
    incr next;
    commit_fresh_s env ~s1:!next ~s2:3 ~s3:5;
    Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 0.5);
    Alcotest.(check int) "one announcement queued" 1 (Mediator.queue_length med);
    let polls0, _ = poll_counts med in
    let words =
      Engine.run_process env.Scenario.engine (fun () ->
          let w0 = Gc.minor_words () in
          let applied = Iup.update_transaction med in
          let words = Gc.minor_words () -. w0 in
          Alcotest.(check bool) "pass applied" true applied;
          words)
    in
    Alcotest.(check int) "pass polled db1" (polls0 + 1) (fst (poll_counts med));
    words
  in
  ignore (pass () : float);
  let words = List.fold_left Float.min Float.infinity (List.init passes (fun _ -> pass ())) in
  let answer = Engine.run_process env.Scenario.engine (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples) in
  Tutil.check_bag "store = recompute" (Tutil.recompute env "T") answer;
  ignore (check_consistent env med);
  words

let test_polling_pass_allocation () =
  let words = polling_pass_words ~passes:3 () in
  Alcotest.(check bool)
    (Printf.sprintf "polling S insert: %.0f words <= 2380" words)
    true (words <= 2380.)

let () =
  Alcotest.run "mediator"
    [
      ( "initialization",
        [
          Alcotest.test_case "matches direct evaluation" `Quick test_init_matches_direct;
          Alcotest.test_case "reflect vector logged" `Quick test_init_reflect_logged;
        ] );
      ( "example 2.1 (fully materialized)",
        [
          Alcotest.test_case "incremental maintenance" `Quick test_ex21_incremental;
          Alcotest.test_case "no polling needed" `Quick test_ex21_no_polling;
          Alcotest.test_case "deletions propagate" `Quick test_ex21_deletions;
        ] );
      ( "example 2.2 (virtual auxiliary)",
        [
          Alcotest.test_case "R updates: no polls" `Quick test_ex22_r_updates_no_polls;
          Alcotest.test_case "S update polls R" `Quick test_ex22_s_update_polls_r;
          Alcotest.test_case "ECA: same-batch cross term" `Quick test_eca_compensation_same_batch;
          Alcotest.test_case "ECA ablation breaks consistency" `Quick test_eca_ablation_breaks_consistency;
          Alcotest.test_case "S′ update polls only joining R′ rows" `Quick test_ex22_s_update_polls_joining_rows;
          Alcotest.test_case "restricted poll: ECA on a queued R update" `Quick test_ex22_restricted_poll_eca;
        ] );
      ( "example 2.3 (hybrid view)",
        [
          Alcotest.test_case "materialized attrs from store" `Quick test_ex23_materialized_query_from_store;
          Alcotest.test_case "key-based construction" `Quick test_ex23_virtual_attr_key_based;
          Alcotest.test_case "general construction fallback" `Quick test_ex23_key_based_disabled_polls_both;
          Alcotest.test_case "maintenance under updates" `Quick test_ex23_maintenance_with_updates;
          Alcotest.test_case "unrestricted polls build no index" `Quick test_unrestricted_polls_build_no_index;
          Alcotest.test_case "fig1 index plans" `Quick test_fig1_index_plans;
          Alcotest.test_case "point query polls keyed" `Quick test_ex23_point_query_keyed_polls;
          Alcotest.test_case "NaN condition closes" `Quick test_nan_condition_closes;
          Alcotest.test_case "probed = scanned = recompute" `Quick test_probed_equals_scanned;
        ] );
      ( "example 5.1 (difference + non-equi join)",
        [
          Alcotest.test_case "initial queries" `Quick test_ex51_init_and_queries;
          Alcotest.test_case "maintenance" `Quick test_ex51_maintenance;
          Alcotest.test_case "contributor kinds" `Quick test_ex51_contributor_kinds;
        ] );
      ( "schema alignment (rename)",
        [
          Alcotest.test_case "leaf-parent schema aligned" `Quick test_federated_rename_structure;
          Alcotest.test_case "maintenance through rename" `Quick test_federated_rename_end_to_end;
          Alcotest.test_case "virtual union through rename" `Quick test_federated_rename_virtual;
        ] );
      ( "multi-relation sources",
        [
          Alcotest.test_case "atomic cross-relation commit" `Quick test_multi_relation_atomic_commit;
          Alcotest.test_case "hybrid + ECA on one source" `Quick test_multi_relation_hybrid_eca;
        ] );
      ( "source filtering",
        [
          Alcotest.test_case "end to end" `Quick test_source_filtering_end_to_end;
          Alcotest.test_case "composes with ECA" `Quick test_source_filtering_with_eca;
        ] );
      ( "retail (union views)",
        [
          Alcotest.test_case "VDP structure" `Quick test_retail_union_structure;
          Alcotest.test_case "init & union query" `Quick test_retail_init_and_union_query;
          Alcotest.test_case "maintenance without polls" `Quick test_retail_union_maintenance;
          Alcotest.test_case "bag multiplicity across regions" `Quick test_retail_union_deletion_multiplicity;
          Alcotest.test_case "fully materialized variant" `Quick test_retail_fully_materialized;
        ] );
      ( "transaction stream",
        [
          Alcotest.test_case "a subscriber hears what the log gains" `Quick
            test_stream_is_the_log;
          Alcotest.test_case "snapshots: init exempt, resync mirrored" `Quick
            test_stream_snapshots;
          Alcotest.test_case "notified at apply, before the charge" `Quick
            test_stream_notifies_at_apply;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same log" `Quick test_runs_are_deterministic;
          Alcotest.test_case "two mediators own their plans" `Quick
            test_mediators_own_plans;
        ] );
      ( "scenario catalogue",
        [
          Alcotest.test_case "entries runnable as listed" `Quick
            test_catalogue_entries;
          Alcotest.test_case "standard load poses every query" `Quick
            test_standard_load_poses_every_query;
          Alcotest.test_case "indexes built at connect only" `Quick
            test_catalogue_indexes_static;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "7.1: consistency (randomized)" `Slow test_theorem_7_1_randomized;
          Alcotest.test_case "7.2: staleness bounded" `Quick test_theorem_7_2_staleness_bounded;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "one IUP pass allocates for its delta" `Quick
            test_iup_pass_allocation;
          Alcotest.test_case "one polling pass allocates for its keys" `Quick
            test_polling_pass_allocation;
        ] );
      ( "freshness SLOs",
        [
          Alcotest.test_case "answer carries bound" `Quick test_slo_answer_carries_bound;
          Alcotest.test_case "prepoll flushes laggards" `Quick test_slo_prepoll_flushes_laggards;
          Alcotest.test_case "quiescent source not refused" `Quick test_slo_quiescent_not_refused;
          Alcotest.test_case "refusal when source down" `Quick test_slo_refusal_source_down;
          Alcotest.test_case "f-bar reported per source" `Quick test_freshness_bound_reported;
        ] );
    ]
