(* Tests for the self-maintenance analysis: the detector's auxiliary
   views on Example 2.3, and a mediator created with the extended
   annotation maintaining its store without polling (its store must
   equal a from-scratch build, and the Sec. 3 checker must pass). *)

open Vdp
open Sim
open Squirrel
open Correctness
open Workload

let in_process env f =
  let cell = ref None in
  Engine.spawn env.Scenario.engine (fun () -> cell := Some (f ()));
  let rec go n =
    match !cell with
    | Some v -> v
    | None ->
      if n > 100_000 then Alcotest.fail "no result";
      Engine.run env.Scenario.engine
        ~until:(Engine.now env.Scenario.engine +. 1.0);
      go (n + 1)
  in
  go 0

let check_consistent env med ~what =
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  if not (Checker.consistent report) then
    Alcotest.failf "%s: %s" what
      (String.concat "; "
         (List.map (fun v -> v.Checker.v_detail) report.Checker.violations))

(* ---- self-maintenance --------------------------------------------------- *)

let burst env med rng n =
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.2;
          u_count = n;
          u_delete_fraction = 0.3;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  Scenario.run_to_quiescence env med

let always _ = true

let selfmaint_detector_ex23 () =
  let env = Scenario.make_fig1 ~seed:7 () in
  let vdp = env.Scenario.vdp in
  (* Ex. 2.1 (fully materialized) is already self-maintaining *)
  let reports =
    Adapt.Selfmaint.analyze vdp (Scenario.ann_ex21 vdp) ~announces:always
  in
  Alcotest.(check bool) "Ex. 2.1 self-maintains" true
    (List.for_all (fun r -> r.Adapt.Selfmaint.sm_self) reports);
  (* Ex. 2.3: T's delta step reads R' and S' values, and both are
     fully virtual — the detector must propose exactly the attributes
     the propagation rules read *)
  let reports =
    Adapt.Selfmaint.analyze vdp (Scenario.ann_ex23 vdp) ~announces:always
  in
  (match
     List.find_opt (fun r -> r.Adapt.Selfmaint.sm_node = "T") reports
   with
  | None -> Alcotest.fail "no report for T"
  | Some r ->
    Alcotest.(check bool) "T not self-maintaining under Ex. 2.3" false
      r.Adapt.Selfmaint.sm_self;
    Alcotest.(check (list (pair string (list string))))
      "auxiliary views cover the uncovered reads"
      [ ("R'", [ "r1"; "r2"; "r3" ]); ("S'", [ "s1"; "s2" ]) ]
      r.Adapt.Selfmaint.sm_aux);
  (* a never-announcing source blocks poll-freedom: no deltas would
     arrive to maintain the auxiliaries *)
  let blocked =
    Adapt.Selfmaint.analyze vdp (Scenario.ann_ex23 vdp)
      ~announces:(fun s -> s <> "db2")
  in
  (match
     List.find_opt (fun r -> r.Adapt.Selfmaint.sm_node = "T") blocked
   with
  | Some r ->
    Alcotest.(check bool) "db2 blocks" true (r.Adapt.Selfmaint.sm_blocked <> [])
  | None -> Alcotest.fail "no report for T");
  (* the extended annotation is a fixed point: analyzing it finds
     nothing left to promote *)
  let ext =
    Adapt.Selfmaint.target vdp (Scenario.ann_ex23 vdp) ~announces:always
  in
  Alcotest.(check bool) "extension self-maintains" true
    (List.for_all
       (fun r -> r.Adapt.Selfmaint.sm_self)
       (Adapt.Selfmaint.analyze vdp ext ~announces:always));
  let added node =
    let before =
      Annotation.materialized_attrs (Scenario.ann_ex23 vdp) node
    in
    List.filter
      (fun a -> not (List.mem a before))
      (Annotation.materialized_attrs ext node)
  in
  Alcotest.(check (list (pair string (list string))))
    "the extension adds exactly the auxiliary views"
    [ ("R'", [ "r1"; "r2"; "r3" ]); ("S'", [ "s1"; "s2" ]); ("T", []) ]
    (List.map (fun n -> (n, added n)) [ "R'"; "S'"; "T" ])

let selfmaint_zero_polls () =
  (* under the selfmaint-extended Ex. 2.3 annotation, steady-state
     update transactions touch no source at all; the plain Ex. 2.3
     baseline polls on every one *)
  let run ann_of =
    let env = Scenario.make_fig1 ~seed:13 () in
    let med = Scenario.mediator env ~annotation:(ann_of env.Scenario.vdp) () in
    in_process env (fun () -> Mediator.initialize med);
    let s = Mediator.stats med in
    let polls0 = Obs.Metrics.value s.Med.polls in
    burst env med (Datagen.state 131) 15;
    (env, med, Obs.Metrics.value s.Med.polls - polls0)
  in
  let env, med, poll_free =
    run (fun vdp ->
        Adapt.Selfmaint.target vdp (Scenario.ann_ex23 vdp) ~announces:always)
  in
  Alcotest.(check int) "steady-state update txs poll nothing" 0 poll_free;
  Alcotest.(check bool) "self-maintained txs counted" true
    (Obs.Metrics.value (Mediator.stats med).Med.self_maintained_txs >= 1);
  Tutil.check_store env med ~what:"selfmaint steady state";
  check_consistent env med ~what:"selfmaint steady state";
  let _, _, baseline_polls = run Scenario.ann_ex23 in
  Alcotest.(check bool) "plain Ex. 2.3 does poll" true (baseline_polls >= 1)

let selfmaint_catalogue_poll_free () =
  (* the analysis and the IUP share one derivation of an update step's
     reads, so on every catalogue scenario, under each of its
     annotations extended by [target], the standard update load polls
     no source once the mediator is initialized *)
  List.iter
    (fun sc ->
      List.iter
        (fun (name, ann_of) ->
          let env = sc.Scenario.sc_make ~seed:3 in
          let vdp = env.Scenario.vdp in
          let annotation =
            Adapt.Selfmaint.target vdp (ann_of vdp) ~announces:(fun s ->
                Sources.Source_db.announces
                  (Sources.Adapter.db (Scenario.source env s)))
          in
          let med = Scenario.start env ~annotation in
          let s = Mediator.stats med in
          let polls0 = Obs.Metrics.value s.Med.polls in
          let node, attrs = sc.Scenario.sc_query in
          Scenario.run_load ~rng:(Datagen.state 93) env med
            ~updates:sc.Scenario.sc_updates
            ~queries:(node, [ (attrs, Relalg.Predicate.True) ])
            { Scenario.default_load with Scenario.l_queries = 0 };
          let what = sc.Scenario.sc_name ^ "/" ^ name in
          Alcotest.(check bool)
            (what ^ ": update txs applied") true
            (Obs.Metrics.value s.Med.update_txs >= 1);
          Alcotest.(check int)
            (what ^ ": update txs poll nothing")
            polls0
            (Obs.Metrics.value s.Med.polls))
        sc.Scenario.sc_annotations)
    Scenario.catalogue

let () =
  Alcotest.run "adapt"
    [
      ( "self-maintenance",
        [
          Alcotest.test_case "detector on Example 2.3" `Quick
            selfmaint_detector_ex23;
          Alcotest.test_case "steady state polls nothing" `Slow
            selfmaint_zero_polls;
          Alcotest.test_case "catalogue polls nothing" `Slow
            selfmaint_catalogue_poll_free;
        ] );
    ]
