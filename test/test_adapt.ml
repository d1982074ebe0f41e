(* Tests for the Adapt subsystem: the workload monitor's smoothed
   rates, measured cost profiles, migration plan computation, live
   migration correctness (the migrated store must equal a from-scratch
   build under the final annotation, and the Sec. 3 checker must stay
   green across migrations), the policy's hysteresis gates, and a
   randomized migration fuzz over the scenario VDPs. *)

open Relalg
open Vdp
open Sim
open Sources
open Storage
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

let recompute env node =
  let env_fn leaf =
    match Graph.node_opt env.Scenario.vdp leaf with
    | Some { Graph.kind = Graph.Leaf { source }; _ } ->
      Some (Adapter.current (Scenario.source env source) leaf)
    | Some _ | None -> None
  in
  Eval.eval ~env:env_fn (Graph.expanded_def env.Scenario.vdp node)

let random_annotation rng vdp =
  Annotation.of_list vdp
    (List.map
       (fun node ->
         ( node.Graph.name,
           List.map
             (fun a ->
               (a, if Random.State.bool rng then Annotation.M else Annotation.V))
             (Schema.attrs node.Graph.schema) ))
       (Graph.non_leaves vdp))

(* the migrated store must be indistinguishable from a store built
   from scratch under the current annotation: every node with
   materialized attributes has a table equal to the projection of its
   recomputed extension, every fully-virtual node has none *)
let check_store env med ~what =
  List.iter
    (fun node ->
      let name = node.Graph.name in
      let mat = Annotation.materialized_attrs (Mediator.annotation med) name in
      match (Store.table_opt med.Med.store name, mat) with
      | None, [] -> ()
      | None, _ :: _ -> Alcotest.failf "%s: %s has no table" what name
      | Some _, [] -> Alcotest.failf "%s: %s has a stale table" what name
      | Some tbl, _ :: _ ->
        let expected = Bag.project mat (recompute env name) in
        if not (Bag.equal (Table.contents tbl) expected) then
          Alcotest.failf "%s: table %s diverges from a from-scratch build"
            what name)
    (Graph.non_leaves env.Scenario.vdp)

let check_consistent env med ~what =
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  if not (Checker.consistent report) then
    Alcotest.failf "%s: %s" what
      (String.concat "; "
         (List.map (fun v -> v.Checker.v_detail) report.Checker.violations))

let feq = Alcotest.float 1e-9

(* ---- Cost.measured_profile -------------------------------------------- *)

let measured_profile_basics () =
  let p =
    Cost.measured_profile ~window:10.0
      ~leaf_cards:[ ("R", 50) ]
      ~leaf_update_atoms:[ ("R", 40) ]
      ~node_queries:[ ("T", 20) ]
      ~attr_accesses:[ (("T", "r1"), 10) ]
      ()
  in
  Alcotest.check feq "update rate R" 4.0 (p.Cost.update_rate "R");
  Alcotest.check feq "update rate S (unseen)" 0.0 (p.Cost.update_rate "S");
  Alcotest.check feq "query rate T" 2.0 (p.Cost.query_rate "T");
  Alcotest.check feq "query rate R' (unseen)" 0.0 (p.Cost.query_rate "R'");
  Alcotest.check feq "attr access fraction" 0.5 (p.Cost.attr_access "T" "r1");
  Alcotest.check feq "attr never accessed" 0.0 (p.Cost.attr_access "T" "r3");
  Alcotest.check feq "attr of unqueried node" 0.0
    (p.Cost.attr_access "R'" "r1");
  Alcotest.(check int) "measured cardinality" 50 (p.Cost.leaf_cardinality "R");
  Alcotest.(check int) "default cardinality" 100 (p.Cost.leaf_cardinality "S")

(* ---- Monitor ----------------------------------------------------------- *)

let monitor_setup () =
  let env = Scenario.make_fig1 ~seed:3 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex21 env.Scenario.vdp) ()
  in
  in_process env (fun () -> Mediator.initialize med);
  (env, med)

let monitor_ema () =
  let env, med = monitor_setup () in
  let engine = env.Scenario.engine in
  let mon = Adapt.Monitor.create ~smoothing:0.5 med in
  let t0 = Engine.now engine in
  (* window 1 (2t): 10 queries on T, 10 touching r1, 8 update atoms on
     R — first sighting seeds the EMA with the raw windowed rate *)
  Hashtbl.replace med.Med.stats.Med.node_accesses "T" 10;
  Hashtbl.replace med.Med.stats.Med.attr_accesses ("T", "r1") 10;
  Hashtbl.replace med.Med.stats.Med.leaf_update_atoms "R" 8;
  Engine.run engine ~until:(t0 +. 2.0);
  Adapt.Monitor.observe mon;
  let p = Adapt.Monitor.profile mon in
  Alcotest.check feq "seeded query rate" 5.0 (p.Cost.query_rate "T");
  Alcotest.check feq "seeded update rate" 4.0 (p.Cost.update_rate "R");
  Alcotest.check feq "attr fraction capped at 1" 1.0
    (p.Cost.attr_access "T" "r1");
  (* window 2 (2t): nothing new — every rate halves (alpha 0.5 toward
     a zero window) *)
  Engine.run engine ~until:(t0 +. 4.0);
  Adapt.Monitor.observe mon;
  let p = Adapt.Monitor.profile mon in
  Alcotest.check feq "query rate decays" 2.5 (p.Cost.query_rate "T");
  Alcotest.check feq "update rate decays" 2.0 (p.Cost.update_rate "R");
  (* window 3 (2t): 10 more queries, none touching r1 — the access
     fraction falls below 1 *)
  Hashtbl.replace med.Med.stats.Med.node_accesses "T" 20;
  Engine.run engine ~until:(t0 +. 6.0);
  Adapt.Monitor.observe mon;
  let p = Adapt.Monitor.profile mon in
  Alcotest.check feq "query rate recovers" 3.75 (p.Cost.query_rate "T");
  (* attr EMA: 5.0 -> 2.5 -> 1.25 queries/t against a 3.75 query rate *)
  Alcotest.check feq "attr fraction drifts down" (1.25 /. 3.75)
    (p.Cost.attr_access "T" "r1")

let monitor_zero_elapsed () =
  let env, med = monitor_setup () in
  let mon = Adapt.Monitor.create med in
  Hashtbl.replace med.Med.stats.Med.node_accesses "T" 10;
  (* no simulated time has passed: the observation must be dropped,
     not divide by zero *)
  Adapt.Monitor.observe mon;
  let p = Adapt.Monitor.profile mon in
  Alcotest.check feq "no window, no rate" 0.0 (p.Cost.query_rate "T");
  ignore env

let monitor_bad_smoothing () =
  let env, med = monitor_setup () in
  ignore env;
  Alcotest.check_raises "smoothing 0 rejected"
    (Invalid_argument "Monitor.create: smoothing must be in (0, 1]")
    (fun () -> ignore (Adapt.Monitor.create ~smoothing:0.0 med));
  Alcotest.check_raises "smoothing > 1 rejected"
    (Invalid_argument "Monitor.create: smoothing must be in (0, 1]")
    (fun () -> ignore (Adapt.Monitor.create ~smoothing:1.5 med))

(* ---- Migrate.diff and friends ------------------------------------------ *)

let diff_units () =
  let env = Scenario.make_fig1 ~seed:1 () in
  let vdp = env.Scenario.vdp in
  let m = Annotation.fully_materialized vdp in
  let v = Annotation.fully_virtual vdp in
  let up = Adapt.Migrate.diff vdp ~old_ann:v ~new_ann:m in
  Alcotest.(check bool) "all-mat vs all-virt is not a no-op" false
    (Adapt.Migrate.is_noop up);
  let nodes l = List.sort compare (List.map fst l) in
  Alcotest.(check (list string))
    "promotions touch every non-leaf"
    [ "R'"; "S'"; "T" ]
    (nodes (Adapt.Migrate.promotions up));
  Alcotest.(check (list string)) "no demotions going up" []
    (nodes (Adapt.Migrate.demotions up));
  let down = Adapt.Migrate.diff vdp ~old_ann:m ~new_ann:v in
  Alcotest.(check (list string)) "no promotions going down" []
    (nodes (Adapt.Migrate.promotions down));
  Alcotest.(check (list string))
    "demotions touch every non-leaf"
    [ "R'"; "S'"; "T" ]
    (nodes (Adapt.Migrate.demotions down));
  let noop = Adapt.Migrate.diff vdp ~old_ann:m ~new_ann:m in
  Alcotest.(check bool) "identical annotations diff to a no-op" true
    (Adapt.Migrate.is_noop noop);
  Alcotest.(check string) "no-op describe" "no-op"
    (Adapt.Migrate.describe noop);
  let m' =
    Annotation.with_node m vdp "T"
      [
        ("r1", Annotation.M); ("r3", Annotation.M); ("s1", Annotation.M);
        ("s2", Annotation.V);
      ]
  in
  Alcotest.(check string) "single-attribute demotion describe"
    "demote T{-s2}"
    (Adapt.Migrate.describe (Adapt.Migrate.diff vdp ~old_ann:m ~new_ann:m'))

(* ---- live migration correctness ---------------------------------------- *)

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

let migrate_to env med target ~what =
  let plan =
    Adapt.Migrate.diff env.Scenario.vdp ~old_ann:(Mediator.annotation med)
      ~new_ann:target
  in
  if not (Adapt.Migrate.is_noop plan) then
    ignore (in_process env (fun () -> Adapt.Migrate.apply med plan));
  if not (Annotation.equal (Mediator.annotation med) target) then
    Alcotest.failf "%s: annotation not swapped" what;
  check_store env med ~what

let migration_sequence () =
  let env = Scenario.make_fig1 ~seed:5 () in
  let vdp = env.Scenario.vdp in
  let med = Scenario.mediator env ~annotation:(Scenario.ann_ex21 vdp) () in
  in_process env (fun () -> Mediator.initialize med);
  let rng = Datagen.state 55 in
  (* churn, demote everything, churn against the all-virtual plan,
     move to the Example 2.3 hybrid, churn, promote everything back *)
  burst env med rng 10;
  migrate_to env med (Annotation.fully_virtual vdp) ~what:"after demote-all";
  burst env med rng 10;
  migrate_to env med (Scenario.ann_ex23 vdp) ~what:"after hybrid";
  burst env med rng 10;
  migrate_to env med (Annotation.fully_materialized vdp)
    ~what:"after promote-all";
  Alcotest.(check int) "three migrations applied" 3
    (Obs.Metrics.value (Mediator.stats med).Med.migrations);
  (* a final query and the whole event log agree with ground truth *)
  let answer =
    in_process env (fun () -> (Mediator.query med ~node:"T" ()).Qp.tuples)
  in
  if not (Bag.equal answer (recompute env "T")) then
    Alcotest.fail "final answer diverges from recompute";
  check_consistent env med ~what:"migration sequence"

let migration_during_churn () =
  (* apply a migration while update announcements are still queued —
     the queue-covering bookkeeping must not double-apply them *)
  let env = Scenario.make_fig1 ~seed:9 () in
  let vdp = env.Scenario.vdp in
  let med = Scenario.mediator env ~annotation:(Scenario.ann_ex21 vdp) () in
  in_process env (fun () -> Mediator.initialize med);
  let rng = Datagen.state 99 in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.15;
          u_count = 20;
          u_delete_fraction = 0.3;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  Engine.spawn env.Scenario.engine (fun () ->
      Engine.sleep env.Scenario.engine 1.2;
      let plan =
        Adapt.Migrate.diff vdp ~old_ann:(Mediator.annotation med)
          ~new_ann:(Scenario.ann_ex23 vdp)
      in
      ignore (Adapt.Migrate.apply med plan);
      Engine.sleep env.Scenario.engine 1.2;
      let plan =
        Adapt.Migrate.diff vdp ~old_ann:(Mediator.annotation med)
          ~new_ann:(Annotation.fully_materialized vdp)
      in
      ignore (Adapt.Migrate.apply med plan));
  Scenario.run_to_quiescence env med;
  Alcotest.(check int) "two migrations applied" 2
    (Obs.Metrics.value (Mediator.stats med).Med.migrations);
  check_store env med ~what:"mid-churn migration";
  check_consistent env med ~what:"mid-churn migration"

let stale_plan_rejected () =
  let env = Scenario.make_fig1 ~seed:2 () in
  let vdp = env.Scenario.vdp in
  let med = Scenario.mediator env ~annotation:(Scenario.ann_ex21 vdp) () in
  in_process env (fun () -> Mediator.initialize med);
  let to_virt =
    Adapt.Migrate.diff vdp
      ~old_ann:(Mediator.annotation med)
      ~new_ann:(Annotation.fully_virtual vdp)
  in
  ignore (in_process env (fun () -> Adapt.Migrate.apply med to_virt));
  (* the same plan no longer starts from the live annotation *)
  match in_process env (fun () ->
      try
        ignore (Adapt.Migrate.apply med to_virt);
        None
      with Med.Mediator_error msg -> Some msg)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "stale plan was applied"

(* ---- Policy hysteresis -------------------------------------------------- *)

let policy_env seed ~config =
  let env = Scenario.make_fig1 ~seed () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex21 env.Scenario.vdp) ()
  in
  in_process env (fun () -> Mediator.initialize med);
  (* the policy's monitor snapshots the counters now, BEFORE the load:
     the first tick's observation window covers the whole burst *)
  let p = Adapt.Policy.create ~config med in
  (* update-only pressure: with no queries the advisor wants the
     export attributes demoted *)
  Driver.update_process
    ~rng:(Datagen.state (seed * 13))
    ~src:(Scenario.source env "db1")
    {
      Driver.u_relation = "R";
      u_interval = 0.1;
      u_count = 40;
      u_delete_fraction = 0.5;
      u_specs = Scenario.fig1_update_specs "R";
    };
  Scenario.run_to_quiescence env med;
  (env, med, p)

let policy_warmup_blocks () =
  let config = { Adapt.Policy.default_config with Adapt.Policy.warmup = 1e9 } in
  let env, med, p = policy_env 21 ~config in
  ignore med;
  (match in_process env (fun () -> Adapt.Policy.tick p) with
  | None -> ()
  | Some _ -> Alcotest.fail "migrated before warmup");
  Alcotest.(check int) "no events" 0 (List.length (Adapt.Policy.events p))

let policy_min_gain_blocks () =
  let config =
    {
      Adapt.Policy.default_config with
      Adapt.Policy.warmup = 0.0;
      cooldown = 0.0;
      min_gain = 2.0;
    }
  in
  let env, med, p = policy_env 22 ~config in
  (match in_process env (fun () -> Adapt.Policy.tick p) with
  | None -> ()
  | Some _ -> Alcotest.fail "migrated despite impossible min_gain");
  Alcotest.(check bool) "annotation untouched" true
    (Annotation.equal (Mediator.annotation med)
       (Scenario.ann_ex21 env.Scenario.vdp))

let policy_cooldown_blocks () =
  let config =
    { Adapt.Policy.default_config with Adapt.Policy.warmup = 0.0 }
  in
  let env, med, p = policy_env 23 ~config in
  (match in_process env (fun () -> Adapt.Policy.tick p) with
  | Some ev ->
    Alcotest.(check bool) "pressure causes a demotion" true
      (Adapt.Migrate.demotions ev.Adapt.Policy.e_plan <> [])
  | None -> Alcotest.fail "update pressure caused no migration");
  (* a second tick inside the cooldown window must do nothing, whatever
     the advisor would want *)
  (match in_process env (fun () -> Adapt.Policy.tick p) with
  | None -> ()
  | Some _ -> Alcotest.fail "migrated inside the cooldown window");
  Alcotest.(check int) "one event" 1 (List.length (Adapt.Policy.events p));
  check_consistent env med ~what:"policy demotion"

(* ---- end-to-end workload shift ----------------------------------------- *)

let policy_workload_shift () =
  (* update-heavy phase then query-heavy phase: the default policy must
     demote during the first and promote back during the second, and
     the checker must hold across both migrations *)
  let seed = 42 in
  let env = Scenario.make_fig1 ~seed () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex21 env.Scenario.vdp) ()
  in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  let p = Adapt.Policy.create med in
  Adapt.Policy.start p;
  let rng = Datagen.state (seed * 31) in
  let updates = 300 and queries = 40 in
  let phase2_start = (float_of_int updates *. 0.1) +. 5.0 in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.1;
          u_count = updates;
          u_delete_fraction = 0.5;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  let schema = (Graph.node env.Scenario.vdp "T").Graph.schema in
  let _ =
    Driver.query_process ~start:phase2_start ~rng ~med
      {
        Driver.q_node = "T";
        q_interval = 0.5;
        q_count = queries;
        q_attr_sets = [ (Schema.attrs schema, Predicate.True) ];
      }
  in
  let horizon = phase2_start +. (float_of_int queries *. 0.5) +. 10.0 in
  Engine.run env.Scenario.engine ~until:horizon;
  Scenario.run_to_quiescence env med;
  let promos, demos =
    List.fold_left
      (fun (pr, de) (ev : Adapt.Policy.event) ->
        ( pr + List.length (Adapt.Migrate.promotions ev.Adapt.Policy.e_plan),
          de + List.length (Adapt.Migrate.demotions ev.Adapt.Policy.e_plan) ))
      (0, 0) (Adapt.Policy.events p)
  in
  Alcotest.(check bool) "at least one demotion" true (demos >= 1);
  Alcotest.(check bool) "at least one promotion" true (promos >= 1);
  check_store env med ~what:"workload shift";
  check_consistent env med ~what:"workload shift"

(* ---- self-maintenance --------------------------------------------------- *)

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
  Alcotest.(check (list (pair string (list string))))
    "added reports the promotions"
    [ ("R'", [ "r1"; "r2"; "r3" ]); ("S'", [ "s1"; "s2" ]) ]
    (List.sort compare
       (Adapt.Selfmaint.added vdp ~base:(Scenario.ann_ex23 vdp) ~ext))

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
  check_store env med ~what:"selfmaint steady state";
  check_consistent env med ~what:"selfmaint steady state";
  let _, _, baseline_polls = run Scenario.ann_ex23 in
  Alcotest.(check bool) "plain Ex. 2.3 does poll" true (baseline_polls >= 1)

let policy_selfmaint_migrates () =
  let env = Scenario.make_fig1 ~seed:17 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) ()
  in
  in_process env (fun () -> Mediator.initialize med);
  (* impossible min_gain: the advisor can never move, so the migration
     below is the ungated selfmaint extension alone *)
  let config =
    {
      Adapt.Policy.default_config with
      Adapt.Policy.warmup = 0.0;
      cooldown = 0.0;
      min_gain = 2.0;
      self_maintain = true;
    }
  in
  let p = Adapt.Policy.create ~config med in
  (match in_process env (fun () -> Adapt.Policy.tick p) with
  | Some ev ->
    Alcotest.(check bool) "aux promoted" true (ev.Adapt.Policy.e_aux <> []);
    List.iter
      (fun (node, attrs) ->
        let mat = Annotation.materialized_attrs (Mediator.annotation med) node in
        Alcotest.(check bool)
          ("aux views materialized on " ^ node)
          true
          (List.for_all (fun a -> List.mem a mat) attrs))
      ev.Adapt.Policy.e_aux
  | None -> Alcotest.fail "selfmaint extension caused no migration");
  Alcotest.(check bool) "aux promotions counted" true
    (Obs.Metrics.value (Mediator.stats med).Med.aux_promotions >= 1);
  check_store env med ~what:"selfmaint migration";
  check_consistent env med ~what:"selfmaint migration"

(* ---- randomized migration fuzz ----------------------------------------- *)

type fuzz_scenario = {
  f_name : string;
  f_make : int -> Scenario.env;
  f_rels : (string * string) list;
  f_specs : string -> Datagen.column_spec list;
  f_exports : string list;
}

let fuzz_scenarios =
  [
    {
      f_name = "fig1";
      f_make = (fun seed -> Scenario.make_fig1 ~seed ());
      f_rels = [ ("db1", "R"); ("db2", "S") ];
      f_specs = Scenario.fig1_update_specs;
      f_exports = [ "T" ];
    };
    {
      f_name = "ex51";
      f_make = (fun seed -> Scenario.make_ex51 ~seed ());
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C"); ("dbD", "D") ];
      f_specs = Scenario.ex51_update_specs;
      f_exports = [ "E"; "G" ];
    };
    {
      f_name = "retail";
      f_make = (fun seed -> Scenario.make_retail ~seed ());
      f_rels =
        [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW"); ("dbCust", "Cust") ];
      f_specs = Scenario.retail_update_specs;
      f_exports = [ "AllOrders"; "Premium" ];
    };
  ]

let fuzz_once sc ~seed =
  let rng = Random.State.make [| seed; 0xAD47 |] in
  let env = sc.f_make seed in
  let vdp = env.Scenario.vdp in
  let med = Scenario.mediator env ~annotation:(random_annotation rng vdp) () in
  in_process env (fun () -> Mediator.initialize med);
  let drv_rng = Datagen.state ((seed * 7) + 3) in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng:drv_rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.17 +. (0.1 *. float_of_int (seed mod 3));
          u_count = 8;
          u_delete_fraction = 0.3;
          u_specs = sc.f_specs rel;
        })
    sc.f_rels;
  List.iter
    (fun node ->
      let schema = (Graph.node vdp node).Graph.schema in
      ignore
        (Driver.query_process ~rng:drv_rng ~med
           {
             Driver.q_node = node;
             q_interval = 0.61;
             q_count = 4;
             q_attr_sets = [ (Schema.attrs schema, Predicate.True) ];
           }))
    sc.f_exports;
  (* random re-annotations racing the load: every 0.9t jump to a fresh
     random annotation (only this process migrates, so plans built
     from the live annotation are never stale) *)
  Engine.spawn env.Scenario.engine (fun () ->
      for _ = 1 to 5 do
        Engine.sleep env.Scenario.engine 0.9;
        let target = random_annotation rng vdp in
        let plan =
          Adapt.Migrate.diff vdp ~old_ann:(Mediator.annotation med)
            ~new_ann:target
        in
        if not (Adapt.Migrate.is_noop plan) then
          ignore (Adapt.Migrate.apply med plan)
      done);
  Engine.run env.Scenario.engine
    ~until:(Engine.now env.Scenario.engine +. 6.0);
  Scenario.run_to_quiescence env med;
  check_store env med ~what:(Printf.sprintf "%s seed %d" sc.f_name seed);
  let answers =
    in_process env (fun () ->
        List.map
          (fun n -> (n, (Mediator.query med ~node:n ()).Qp.tuples))
          sc.f_exports)
  in
  List.iter
    (fun (node, answer) ->
      if not (Bag.equal answer (recompute env node)) then
        Alcotest.failf "%s seed %d: final %s diverges from recompute" sc.f_name
          seed node)
    answers;
  check_consistent env med
    ~what:(Printf.sprintf "%s seed %d" sc.f_name seed)

let fuzz_case sc =
  Alcotest.test_case sc.f_name `Slow (fun () ->
      for seed = 1 to 6 do
        fuzz_once sc ~seed
      done)

let () =
  Alcotest.run "adapt"
    [
      ( "measured profiles",
        [
          Alcotest.test_case "Cost.measured_profile" `Quick
            measured_profile_basics;
          Alcotest.test_case "monitor EMA" `Quick monitor_ema;
          Alcotest.test_case "monitor zero-elapsed observe" `Quick
            monitor_zero_elapsed;
          Alcotest.test_case "monitor smoothing validation" `Quick
            monitor_bad_smoothing;
        ] );
      ( "migration plans",
        [ Alcotest.test_case "diff/promotions/describe" `Quick diff_units ] );
      ( "live migration",
        [
          Alcotest.test_case "sequence vs from-scratch build" `Slow
            migration_sequence;
          Alcotest.test_case "migration during churn" `Slow
            migration_during_churn;
          Alcotest.test_case "stale plan rejected" `Quick stale_plan_rejected;
        ] );
      ( "policy hysteresis",
        [
          Alcotest.test_case "warmup blocks" `Quick policy_warmup_blocks;
          Alcotest.test_case "min_gain blocks" `Quick policy_min_gain_blocks;
          Alcotest.test_case "cooldown blocks" `Quick policy_cooldown_blocks;
        ] );
      ( "self-maintenance",
        [
          Alcotest.test_case "detector on Example 2.3" `Quick
            selfmaint_detector_ex23;
          Alcotest.test_case "steady state polls nothing" `Slow
            selfmaint_zero_polls;
          Alcotest.test_case "policy applies the extension" `Quick
            policy_selfmaint_migrates;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "workload shift demotes then promotes" `Slow
            policy_workload_shift;
        ] );
      ("random migrations", List.map fuzz_case fuzz_scenarios);
    ]
