(* E13 — adaptive annotation under a workload shift (the Adapt
   subsystem end-to-end).

   One trace on the Figure 1 environment, two phases:

     phase 1 (t in [0, 60]):    hot updates on R (one commit per
                                0.0125t, deletes balancing inserts),
                                a single narrow key-only query on T;
     phase 2 (t in [70, ~112]): updates stop, a full-projection query
                                on T every 0.4t.

   The same trace runs three ways: under the adaptive policy (starting
   from Example 2.1's fully-materialized annotation), and under the
   two static extremes (fully materialized, fully virtual). The
   adaptive run must demote during phase 1, promote back during
   phase 2, stay consistent across every migration, and spend fewer
   total tuple operations than either static annotation. Results go to
   BENCH_2.json (path overridable via BENCH2_JSON). *)

open Relalg
open Vdp
open Sim
open Squirrel
open Correctness
open Workload

let seed = 11
let phase1_updates = 4800
let phase1_interval = 0.0125
let phase2_start = 70.0
let phase2_queries = 100
let phase2_interval = 0.4
let wide_attrs = [ "r1"; "r3"; "s1"; "s2" ]

let policy_config =
  {
    Adapt.Policy.interval = 2.0;
    warmup = 4.0;
    cooldown = 8.0;
    min_gain = 0.05;
    smoothing = 0.6;
    self_maintain = false;
    advisor =
      { Advisor.default_config with Advisor.update_pressure_weight = 1.0 };
  }

type run = {
  a_label : string;
  a_ops_update : int;
  a_ops_query : int;
  a_ops_migrate : int;
  a_polls : int;
  a_polled_tuples : int;
  a_migrations : int;
  a_promotions : int;
  a_demotions : int;
  a_consistent : bool;
}

let ops_total r = r.a_ops_update + r.a_ops_query + r.a_ops_migrate

let run_variant ~label ~adaptive ~annotation_of () =
  let env = Scenario.make_fig1 ~seed ~r_size:150 ~s_size:60 () in
  let med =
    Scenario.start env
      ~annotation:(annotation_of env.Scenario.vdp)
      ~config:(Med.Config.make ~op_time:0.0 ())
  in
  let policy =
    if adaptive then begin
      let p = Adapt.Policy.create ~config:policy_config med in
      Adapt.Policy.start p;
      Some p
    end
    else None
  in
  (* each driver gets its own rng so the update trace is identical
     across variants even though query timing differs *)
  Driver.update_process
    ~rng:(Datagen.state (seed * 31 + 7))
    ~src:(Scenario.source env "db1")
    {
      Driver.u_relation = "R";
      u_interval = phase1_interval;
      u_count = phase1_updates;
      u_delete_fraction = 0.5;
      u_specs = Scenario.fig1_update_specs "R";
    };
  let _narrow =
    Driver.query_process
      ~rng:(Datagen.state (seed * 31 + 8))
      ~med
      {
        Driver.q_node = "T";
        q_interval = 30.0;
        q_count = 1;
        q_attr_sets = [ ([ "r1" ], Predicate.True) ];
      }
  in
  let _wide =
    Driver.query_process ~start:phase2_start
      ~rng:(Datagen.state (seed * 31 + 9))
      ~med
      {
        Driver.q_node = "T";
        q_interval = phase2_interval;
        q_count = phase2_queries;
        q_attr_sets = [ (wide_attrs, Predicate.True) ];
      }
  in
  (* run past the inter-phase lull explicitly — quiescence detection
     would stop during it (no updates in flight) before the
     query-heavy phase ever starts *)
  let horizon =
    phase2_start +. (float_of_int phase2_queries *. phase2_interval) +. 15.0
  in
  Engine.run env.Scenario.engine ~until:horizon;
  Scenario.run_to_quiescence env med;
  let s = Mediator.stats med in
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  let promotions, demotions =
    match policy with
    | None -> (0, 0)
    | Some p ->
      List.fold_left
        (fun (pr, de) (ev : Adapt.Policy.event) ->
          ( pr + List.length (Adapt.Migrate.promotions ev.Adapt.Policy.e_plan),
            de + List.length (Adapt.Migrate.demotions ev.Adapt.Policy.e_plan) ))
        (0, 0) (Adapt.Policy.events p)
  in
  (match policy with
  | Some p ->
    List.iter
      (fun (ev : Adapt.Policy.event) ->
        Tables.note "  migration @%-6.1f %s (%d ops, predicted gain %.0f%%)\n"
          ev.Adapt.Policy.e_time
          (Adapt.Migrate.describe ev.Adapt.Policy.e_plan)
          ev.Adapt.Policy.e_ops
          (100.0 *. ev.Adapt.Policy.e_gain))
      (Adapt.Policy.events p);
    Tables.note "  final annotation:\n%s\n"
      (Annotation.to_string (Mediator.annotation med))
  | None -> ());
  {
    a_label = label;
    a_ops_update = Obs.Metrics.value s.Med.ops_update;
    a_ops_query = Obs.Metrics.value s.Med.ops_query;
    a_ops_migrate = Obs.Metrics.value s.Med.ops_migrate;
    a_polls = Obs.Metrics.value s.Med.polls;
    a_polled_tuples = Obs.Metrics.value s.Med.polled_tuples;
    a_migrations = Obs.Metrics.value s.Med.migrations;
    a_promotions = promotions;
    a_demotions = demotions;
    a_consistent = Checker.consistent report;
  }

let json path runs ~adaptive_beats_both =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"adaptive annotation under a workload shift (bench/adaptive.ml e13)\",\n";
  p
    "  \"scenario\": \"fig1; update-heavy phase then query-heavy phase, \
     adaptive policy vs static annotations on the same trace\",\n";
  p "  \"results\": [\n";
  let n = List.length runs in
  List.iteri
    (fun i r ->
      p
        "    {\"annotation\": %S, \"ops_update\": %d, \"ops_query\": %d, \
         \"ops_migrate\": %d, \"ops_total\": %d, \"polls\": %d, \
         \"polled_tuples\": %d, \"migrations\": %d, \"promotions\": %d, \
         \"demotions\": %d, \"consistent\": %b}%s\n"
        r.a_label r.a_ops_update r.a_ops_query r.a_ops_migrate (ops_total r)
        r.a_polls r.a_polled_tuples r.a_migrations r.a_promotions r.a_demotions
        r.a_consistent
        (if i = n - 1 then "" else ","))
    runs;
  p "  ],\n";
  p "  \"adaptive_beats_both\": %b\n" adaptive_beats_both;
  p "}\n";
  close_out oc

let run () =
  Tables.section
    "E13  adaptive annotation: workload shift, live plan migration";
  let adaptive =
    run_variant ~label:"adaptive (policy)" ~adaptive:true
      ~annotation_of:Scenario.ann_ex21 ()
  in
  let full_mat =
    run_variant ~label:"static fully-materialized" ~adaptive:false
      ~annotation_of:Scenario.ann_ex21 ()
  in
  let full_virt =
    run_variant ~label:"static fully-virtual" ~adaptive:false
      ~annotation_of:Annotation.fully_virtual ()
  in
  let runs = [ adaptive; full_mat; full_virt ] in
  Tables.print ~title:"one trace, three annotations (tuple operations)"
    ~header:
      [
        "annotation"; "ops upd"; "ops qry"; "ops migr"; "total"; "polls";
        "tuples"; "migr"; "promo"; "demo"; "consistent";
      ]
    (List.map
       (fun r ->
         [
           Tables.S r.a_label;
           I r.a_ops_update;
           I r.a_ops_query;
           I r.a_ops_migrate;
           I (ops_total r);
           I r.a_polls;
           I r.a_polled_tuples;
           I r.a_migrations;
           I r.a_promotions;
           I r.a_demotions;
           B r.a_consistent;
         ])
       runs);
  let adaptive_beats_both =
    ops_total adaptive < ops_total full_mat
    && ops_total adaptive < ops_total full_virt
  in
  Tables.note "adaptive beats both static annotations: %s\n"
    (if adaptive_beats_both then "yes" else "NO");
  let path =
    match Sys.getenv_opt "BENCH2_JSON" with
    | Some p -> p
    | None -> "BENCH_2.json"
  in
  json path runs ~adaptive_beats_both;
  Tables.note "wrote %s\n" path
