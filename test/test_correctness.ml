(* Tests for the Sec. 3 correctness checkers: the Figure 2 scenario
   separating pseudo-consistency from consistency (Remark 3.1), the
   self-report validating checker, and the Theorem 7.2 bound. *)

open Relalg
open Delta
open Vdp
open Sim
open Sources
open Squirrel
open Correctness

(* --- Figure 2 environment: one source, R binary, V = π₂(R) ------------ *)

let schema_r2 = Schema.make [ ("p1", Value.TInt); ("p2", Value.TInt) ]

let fig2_vdp () =
  let b =
    Builder.create
      ~source_of:(function "R" -> Some "db" | _ -> None)
      ~schema_of:(function "R" -> Some schema_r2 | _ -> None)
      ()
  in
  Builder.add_export b ~name:"V" Expr.(project [ "p2" ] (base "R"));
  Builder.build b

let r2 p1 p2 = Tuple.of_list [ ("p1", Value.Int p1); ("p2", Value.Int p2) ]

(* encode letters a..f as integers 0..5 *)
let fig2_source engine =
  let src =
    Source_db.create ~engine ~name:"db" ~relations:[ ("R", schema_r2) ]
      ~announce:Source_db.Never ()
  in
  (* version 0 at time 0: R = {(a,a)} *)
  Source_db.load src "R" (Bag.of_tuples schema_r2 [ r2 0 0 ]);
  (* versions 1..5 at times 2..6: (b,b) (c,a) (d,a) (e,a) (f,a) *)
  let replace time old_t new_t =
    Engine.schedule engine ~delay:time (fun () ->
        Source_db.commit src
          (Multi_delta.singleton "R"
             (Rel_delta.insert
                (Rel_delta.delete (Rel_delta.empty schema_r2) old_t)
                new_t)))
  in
  replace 2.0 (r2 0 0) (r2 1 1);
  replace 3.0 (r2 1 1) (r2 2 0);
  replace 4.0 (r2 2 0) (r2 3 0);
  replace 5.0 (r2 3 0) (r2 4 0);
  replace 6.0 (r2 4 0) (r2 5 0);
  src

let v_state p2 =
  Bag.of_tuples
    (Schema.make [ ("p2", Value.TInt) ])
    [ Tuple.of_list [ ("p2", Value.Int p2) ] ]

(* the view states of Figure 2 at times 1..6: a a b a b a *)
let fig2_observations =
  List.mapi
    (fun i p2 ->
      { Checker.o_time = float_of_int (i + 1); o_export = "V"; o_state = v_state p2 })
    [ 0; 0; 1; 0; 1; 0 ]

let test_fig2_pseudo_but_not_consistent () =
  let engine = Engine.create () in
  let vdp = fig2_vdp () in
  let src = fig2_source engine in
  Engine.run engine;
  Alcotest.(check bool)
    "Figure 2 scenario is pseudo-consistent" true
    (Checker.pseudo_consistent ~vdp ~sources:[ src ] fig2_observations);
  Alcotest.(check bool)
    "but admits no monotone reflect (Remark 3.1)" true
    (Checker.consistent_assignment ~vdp ~sources:[ src ] fig2_observations
    = None)

let test_fig2_well_behaved_sequence_is_consistent () =
  (* the sequence a a b a a a (tracking the source) IS consistent *)
  let engine = Engine.create () in
  let vdp = fig2_vdp () in
  let src = fig2_source engine in
  Engine.run engine;
  let good =
    List.mapi
      (fun i p2 ->
        {
          Checker.o_time = float_of_int (i + 1);
          o_export = "V";
          o_state = v_state p2;
        })
      [ 0; 0; 1; 0; 0; 0 ]
  in
  match Checker.consistent_assignment ~vdp ~sources:[ src ] good with
  | Some witness ->
    Alcotest.(check int) "witness covers all observations" 6 (List.length witness)
  | None -> Alcotest.fail "expected a monotone witness"

(* --- the self-report validating checker -------------------------------- *)

let synthetic_setup () =
  let engine = Engine.create () in
  let vdp = fig2_vdp () in
  let src = fig2_source engine in
  Engine.run engine;
  (vdp, src)

let query_event ?(stale = []) ?(bound = []) ~time ~answer ~version () =
  Med.Query_tx
    {
      qt_time = time;
      qt_node = "V";
      qt_attrs = [ "p2" ];
      qt_cond = Predicate.True;
      qt_answer = answer;
      qt_reflect = [ ("db", Med.Version version) ];
      qt_stale = stale;
      qt_bound = bound;
    }

let test_checker_accepts_honest_log () =
  let vdp, src = synthetic_setup () in
  let events =
    [
      query_event ~time:2.5 ~answer:(v_state 1) ~version:1 ();
      query_event ~time:4.5 ~answer:(v_state 0) ~version:2 ();
      query_event ~time:6.5 ~answer:(v_state 0) ~version:5 ();
    ]
  in
  let report = Checker.check ~vdp ~sources:[ src ] ~events () in
  Alcotest.(check bool) "consistent" true (Checker.consistent report);
  Alcotest.(check int) "checked" 3 report.Checker.checked_queries

let test_checker_detects_validity_violation () =
  let vdp, src = synthetic_setup () in
  let events = [ query_event ~time:2.5 ~answer:(v_state 0) ~version:1 () ] in
  let report = Checker.check ~vdp ~sources:[ src ] ~events () in
  Alcotest.(check bool) "inconsistent" false (Checker.consistent report);
  match report.Checker.violations with
  | [ { Checker.v_kind = `Validity; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single validity violation"

let test_checker_detects_chronology_violation () =
  let vdp, src = synthetic_setup () in
  (* version 3 was committed at time 4.0, after the claimed query time *)
  let events = [ query_event ~time:3.5 ~answer:(v_state 0) ~version:3 () ] in
  let report = Checker.check ~vdp ~sources:[ src ] ~events () in
  Alcotest.(check bool)
    "chronology violated" true
    (List.exists
       (fun v -> v.Checker.v_kind = `Chronology)
       report.Checker.violations)

let test_checker_detects_order_violation () =
  let vdp, src = synthetic_setup () in
  let events =
    [
      query_event ~time:4.5 ~answer:(v_state 0) ~version:3 ();
      query_event ~time:6.5 ~answer:(v_state 1) ~version:1 () (* backwards *);
    ]
  in
  let report = Checker.check ~vdp ~sources:[ src ] ~events () in
  Alcotest.(check bool)
    "order violated" true
    (List.exists (fun v -> v.Checker.v_kind = `Order) report.Checker.violations)

let test_checker_staleness_measured () =
  let vdp, src = synthetic_setup () in
  (* at time 6.5 reflecting version 2: version 3 arrived at 4.0, so
     the view is 2.5 stale *)
  let events = [ query_event ~time:6.5 ~answer:(v_state 0) ~version:2 () ] in
  let report = Checker.check ~vdp ~sources:[ src ] ~events () in
  Alcotest.(check bool) "valid" true (Checker.consistent report);
  (match report.Checker.max_staleness with
  | [ ("db", s) ] -> Alcotest.(check (float 1e-6)) "staleness" 2.5 s
  | _ -> Alcotest.fail "expected one source");
  (* a bound of 2.0 is violated, a bound of 3.0 is met *)
  Alcotest.(check int)
    "tight bound violated" 1
    (List.length (Checker.check_freshness report ~bound:(fun _ -> 2.0)));
  Alcotest.(check int)
    "loose bound met" 0
    (List.length (Checker.check_freshness report ~bound:(fun _ -> 3.0)))

let test_theorem_bound_formula () =
  let vdp, _ = synthetic_setup () in
  let profile =
    {
      Mediator.ann_delay = (fun _ -> 1.0);
      comm_delay = (fun _ -> 0.5);
      q_proc_delay = (fun _ -> 0.25);
      u_hold_delay = 2.0;
      u_proc_delay = 0.125;
      q_proc_delay_med = 0.0625;
    }
  in
  (* a materialized contributor is never polled, so with every source
     materialized the polling term vanishes *)
  let f_mat =
    Mediator.theorem_7_2_bound ~sources:(Graph.sources vdp)
      ~contributor:(fun _ -> Ledger.Materialized_contributor)
      profile "db"
  in
  Alcotest.(check (float 1e-9))
    "materialized-contributor bound"
    (1.0 +. 0.5 +. 2.0 +. 0.125)
    f_mat;
  (* one virtual source: polling term = 0.25 + 0.5 = 0.75 *)
  let f_virt =
    Mediator.theorem_7_2_bound ~sources:(Graph.sources vdp)
      ~contributor:(fun _ -> Ledger.Virtual_contributor)
      profile "db"
  in
  Alcotest.(check (float 1e-9)) "virtual-contributor bound" (0.75 +. 0.0625) f_virt

let test_theorem_bound_mixed () =
  (* two sources, db materialized and db2 virtual: the polling term
     must cover db2 only — the regression the satellite fix guards
     against summed db's round-trip into it as well *)
  let schema_s = Schema.make [ ("q1", Value.TInt) ] in
  let b =
    Builder.create
      ~source_of:(function
        | "R" -> Some "db" | "S" -> Some "db2" | _ -> None)
      ~schema_of:(function
        | "R" -> Some schema_r2 | "S" -> Some schema_s | _ -> None)
      ()
  in
  Builder.add_export b ~name:"V" Expr.(join (base "R") (base "S"));
  let vdp = Builder.build b in
  let profile =
    {
      Mediator.ann_delay = (fun _ -> 1.0);
      comm_delay = (fun _ -> 0.5);
      q_proc_delay = (fun _ -> 0.25);
      u_hold_delay = 2.0;
      u_proc_delay = 0.125;
      q_proc_delay_med = 0.0625;
    }
  in
  let contributor = function
    | "db" -> Ledger.Materialized_contributor
    | _ -> Ledger.Virtual_contributor
  in
  let f_db =
    Mediator.theorem_7_2_bound ~sources:(Graph.sources vdp) ~contributor
      profile "db"
  in
  (* announcement path for db + the one polled source's round-trip *)
  Alcotest.(check (float 1e-9))
    "materialized source, mixed polling term"
    (1.0 +. 0.5 +. 2.0 +. 0.125 +. (0.25 +. 0.5))
    f_db;
  let f_db2 =
    Mediator.theorem_7_2_bound ~sources:(Graph.sources vdp) ~contributor
      profile "db2"
  in
  Alcotest.(check (float 1e-9))
    "virtual source, mixed polling term"
    (0.25 +. 0.5 +. 0.0625)
    f_db2

let test_monotone_drop_readd () =
  (* a source omitted from one reflect vector must keep its high-water
     mark: dropping "db" from the middle event and re-adding it at a
     lower version is a backwards move the checker must flag *)
  let vdp, src = synthetic_setup () in
  let update_event ~time vector =
    Med.Update_tx
      {
        ut_time = time;
        ut_reflect = vector;
        ut_atoms = 0;
        ut_txs = 1;
        ut_intervals = [];
      }
  in
  let events =
    [
      query_event ~time:4.5 ~answer:(v_state 0) ~version:3 ();
      update_event ~time:5.0 [];
      (* vector omits db entirely *)
      query_event ~time:6.5 ~answer:(v_state 1) ~version:1 () (* backwards *);
    ]
  in
  let report = Checker.check ~vdp ~sources:[ src ] ~events () in
  Alcotest.(check bool)
    "backwards move across an omission detected" true
    (List.exists (fun v -> v.Checker.v_kind = `Order) report.Checker.violations)

let test_checker_detects_bound_violation () =
  let vdp, src = synthetic_setup () in
  (* at 6.5 reflecting version 2 the observed staleness is 2.5; an
     answer claiming a 1.0 bound lied about its freshness *)
  let events =
    [
      query_event ~time:6.5 ~answer:(v_state 0) ~version:2
        ~bound:[ ("db", 1.0) ] ();
    ]
  in
  let report = Checker.check ~vdp ~sources:[ src ] ~events () in
  Alcotest.(check int)
    "one bound violation" 1
    (List.length (Checker.bound_violations report));
  (* bound violations degrade freshness, not consistency *)
  Alcotest.(check bool) "still consistent" true (Checker.consistent report);
  (* an honest bound of 3.0 passes *)
  let honest =
    [
      query_event ~time:6.5 ~answer:(v_state 0) ~version:2
        ~bound:[ ("db", 3.0) ] ();
    ]
  in
  let report = Checker.check ~vdp ~sources:[ src ] ~events:honest () in
  Alcotest.(check int)
    "honest bound accepted" 0
    (List.length (Checker.bound_violations report))

let () =
  Alcotest.run "correctness"
    [
      ( "figure 2 / remark 3.1",
        [
          Alcotest.test_case "pseudo but not consistent" `Quick test_fig2_pseudo_but_not_consistent;
          Alcotest.test_case "well-behaved sequence" `Quick test_fig2_well_behaved_sequence_is_consistent;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts honest log" `Quick test_checker_accepts_honest_log;
          Alcotest.test_case "detects validity violation" `Quick test_checker_detects_validity_violation;
          Alcotest.test_case "detects chronology violation" `Quick test_checker_detects_chronology_violation;
          Alcotest.test_case "detects order violation" `Quick test_checker_detects_order_violation;
          Alcotest.test_case "measures staleness" `Quick test_checker_staleness_measured;
          Alcotest.test_case "Theorem 7.2 bound formula" `Quick test_theorem_bound_formula;
          Alcotest.test_case "Theorem 7.2 bound, mixed M/V" `Quick test_theorem_bound_mixed;
          Alcotest.test_case "monotone across omitted sources" `Quick test_monotone_drop_readd;
          Alcotest.test_case "detects bound violation" `Quick test_checker_detects_bound_violation;
        ] );
    ]
