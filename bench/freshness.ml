(* E19 — self-maintaining views and freshness SLOs.

   Two experiments on the Figure 1 environment:

   1. {b poll-free maintenance}: the Example 2.3 hybrid annotation
      makes every update transaction poll both sources for its delta
      evaluation (the VAP round-trips dominate the transaction under
      realistic channel delays). Extending the same annotation with
      {!Adapt.Selfmaint.target}'s auxiliary views makes every delta
      answerable from materialized data: steady-state maintenance must
      perform {e zero} source polls and the mean update-transaction
      time must drop by at least 2x.

   2. {b SLO vs latency}: under held-back announcements (Periodic
      flushing), a query's [max_staleness] walks the QP's strategy
      ladder — a tight SLO forces escalation polls (higher latency,
      fresh data), a loose one is served from the store or the answer
      cache (low latency). A cell with an unreachable source and a
      tight SLO must observe at least one typed refusal instead of a
      silently stale answer.

   Results go to BENCH_8.json (path overridable via BENCH8_JSON).
   BENCH_SIZES_MAX caps the SLO sweep for CI smoke runs (the
   maintenance pair and the refusal cell always run). *)

open Sim
open Sources
open Squirrel
open Correctness
open Workload

let seed = 7
let maintenance_updates = 24
let sweep_queries = 16

(* channel delays that make a poll round-trip expensive relative to
   in-store delta evaluation: the poll-bound regime of Sec. 5.3 *)
let delays _ = { Med.comm_delay = 0.05; q_proc_delay = 0.02 }

(* --- experiment 1: poll-free self-maintenance -------------------------- *)

type maint = {
  m_label : string;
  m_txs : int;
  m_polls : int;
  m_self_maintained : int;
  m_mean_tx : float;
  m_consistent : bool;
}

let run_maintenance ~selfmaint =
  let env = Scenario.make_fig1 ~seed ~r_size:120 ~s_size:60 () in
  let vdp = env.Scenario.vdp in
  let base = Scenario.ann_ex23 vdp in
  let annotation =
    if selfmaint then
      Adapt.Selfmaint.target vdp base ~announces:(fun s ->
          Source_db.announces (Adapter.db (Scenario.source env s)))
    else base
  in
  let med =
    Scenario.start env ~annotation
      ~config:(Med.Config.make ~op_time:1e-4 ~delays ())
  in
  let s = Mediator.stats med in
  (* steady state starts here: initialization polls are excluded *)
  let polls0 = Obs.Metrics.value s.Med.polls in
  let cnt0 = Obs.Metrics.histogram_count s.Med.update_tx_time in
  let sum0 = Obs.Metrics.histogram_sum s.Med.update_tx_time in
  let rng = Datagen.state (seed * 17 + 3) in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.5;
          u_count = maintenance_updates;
          u_delete_fraction = 0.25;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  Scenario.run_to_quiescence env med;
  let report =
    Checker.check ~vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  let txs = Obs.Metrics.histogram_count s.Med.update_tx_time - cnt0 in
  let sum = Obs.Metrics.histogram_sum s.Med.update_tx_time -. sum0 in
  {
    m_label = (if selfmaint then "ex23 + auxiliary views" else "ex23 (hybrid)");
    m_txs = txs;
    m_polls = Obs.Metrics.value s.Med.polls - polls0;
    m_self_maintained = Obs.Metrics.value s.Med.self_maintained_txs;
    m_mean_tx = (if txs = 0 then 0.0 else sum /. float_of_int txs);
    m_consistent = Checker.consistent report;
  }

(* --- experiment 2: the SLO / latency tradeoff --------------------------- *)

type slo_cell = {
  sc_label : string;
  sc_served : int;
  sc_refused : int;
  sc_slo_polls : int;
  sc_mean_q : float;
  sc_max_bound : float;
}

let run_slo ~label ~max_staleness ~outage =
  let env =
    Scenario.make_fig1 ~seed:(seed + 14) ~announce:(Source_db.Periodic 4.0) ()
  in
  let med =
    Scenario.start env
      ~annotation:(Scenario.ann_ex21 env.Scenario.vdp)
      ~config:(Med.Config.make ~op_time:0.0 ~delays ())
  in
  if outage then
    Source_db.set_outages
      (Adapter.db (Scenario.source env "db1"))
      [ (1.0, 10_000.0) ];
  let rng = Datagen.state (seed * 29 + 5) in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.7;
          u_count = sweep_queries;
          u_delete_fraction = 0.25;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  let s = Mediator.stats med in
  let cnt0 = Obs.Metrics.histogram_count s.Med.query_tx_time in
  let sum0 = Obs.Metrics.histogram_sum s.Med.query_tx_time in
  let served = ref 0 and refused = ref 0 and max_bound = ref 0.0 in
  Engine.spawn env.Scenario.engine (fun () ->
      Engine.sleep env.Scenario.engine 1.5;
      for _ = 1 to sweep_queries do
        (match
           Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ?max_staleness ()
         with
        | a ->
          incr served;
          List.iter
            (fun (_, b) -> max_bound := Float.max !max_bound b)
            a.Qp.bound
        | exception Qp.Slo_unsatisfiable _ -> incr refused);
        Engine.sleep env.Scenario.engine 0.6
      done);
  Engine.run env.Scenario.engine ~until:16.0;
  let n = Obs.Metrics.histogram_count s.Med.query_tx_time - cnt0 in
  let sum = Obs.Metrics.histogram_sum s.Med.query_tx_time -. sum0 in
  {
    sc_label = label;
    sc_served = !served;
    sc_refused = !refused;
    sc_slo_polls = Obs.Metrics.value s.Med.slo_polls;
    sc_mean_q = (if n = 0 then 0.0 else sum /. float_of_int n);
    sc_max_bound = !max_bound;
  }

let sweep () =
  let all =
    [
      ("slo 0.2", Some 0.2);
      ("slo 1.0", Some 1.0);
      ("slo 5.0", Some 5.0);
      ("no slo", None);
    ]
  in
  match Option.bind (Sys.getenv_opt "BENCH_SIZES_MAX") int_of_string_opt with
  | Some cap -> List.filteri (fun i _ -> i < max 1 cap) all
  | None -> all

(* --- harness ------------------------------------------------------------ *)

let json path maints speedup poll_free cells refusal ~pass =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"self-maintaining views + freshness SLOs (bench/freshness.ml e19)\",\n";
  p
    "  \"scenario\": \"fig1; ex23 maintenance with and without auxiliary \
     views, then a max_staleness sweep under periodic announcements\",\n";
  p "  \"maintenance\": [\n";
  let n = List.length maints in
  List.iteri
    (fun i m ->
      p
        "    {\"annotation\": %S, \"update_txs\": %d, \"polls\": %d, \
         \"self_maintained_txs\": %d, \"mean_update_tx_time\": %.6f, \
         \"consistent\": %b}%s\n"
        m.m_label m.m_txs m.m_polls m.m_self_maintained m.m_mean_tx
        m.m_consistent
        (if i = n - 1 then "" else ","))
    maints;
  p "  ],\n";
  p "  \"update_tx_speedup\": %.2f,\n" speedup;
  p "  \"steady_state_poll_free\": %b,\n" poll_free;
  p "  \"slo_sweep\": [\n";
  let nc = List.length cells in
  List.iteri
    (fun i c ->
      p
        "    {\"slo\": %S, \"served\": %d, \"refused\": %d, \"slo_polls\": \
         %d, \"mean_query_tx_time\": %.6f, \"max_reported_bound\": %.4f}%s\n"
        c.sc_label c.sc_served c.sc_refused c.sc_slo_polls c.sc_mean_q
        c.sc_max_bound
        (if i = nc - 1 then "" else ","))
    cells;
  p "  ],\n";
  p "  \"refusal_observed_when_unsatisfiable\": %b,\n" refusal;
  p "  \"pass\": %b\n" pass;
  p "}\n";
  close_out oc

let run () =
  Tables.section "E19  self-maintaining views + freshness SLOs";
  let baseline = run_maintenance ~selfmaint:false in
  let aux = run_maintenance ~selfmaint:true in
  let maints = [ baseline; aux ] in
  Tables.print ~title:"steady-state maintenance: same trace, two annotations"
    ~header:
      [ "annotation"; "upd txs"; "polls"; "self-maint"; "mean tx time"; "consistent" ]
    (List.map
       (fun m ->
         [
           Tables.S m.m_label;
           I m.m_txs;
           I m.m_polls;
           I m.m_self_maintained;
           F m.m_mean_tx;
           B m.m_consistent;
         ])
       maints);
  let speedup =
    if aux.m_mean_tx <= 0.0 then Float.infinity
    else baseline.m_mean_tx /. aux.m_mean_tx
  in
  let poll_free = aux.m_polls = 0 && aux.m_self_maintained > 0 in
  Tables.note "update-tx speedup (mean time, poll-bound workload): %.1fx\n"
    speedup;
  Tables.note "auxiliary-view variant is poll-free in steady state: %s\n"
    (if poll_free then "yes" else "NO");
  let cells = List.map (fun (label, slo) -> run_slo ~label ~max_staleness:slo ~outage:false) (sweep ()) in
  let down =
    run_slo ~label:"slo 0.2, db1 down" ~max_staleness:(Some 0.2) ~outage:true
  in
  let cells = cells @ [ down ] in
  Tables.print ~title:"max_staleness sweep (announcements held 4.0 time units)"
    ~header:
      [ "cell"; "served"; "refused"; "slo polls"; "mean q time"; "max bound" ]
    (List.map
       (fun c ->
         [
           Tables.S c.sc_label;
           I c.sc_served;
           I c.sc_refused;
           I c.sc_slo_polls;
           F c.sc_mean_q;
           F c.sc_max_bound;
         ])
       cells);
  let tight =
    match cells with c :: _ -> c | [] -> down (* sweep is never empty *)
  in
  let refusal = down.sc_refused > 0 in
  let escalates = tight.sc_slo_polls > 0 in
  Tables.note "tight SLO escalates to forced polls: %s\n"
    (if escalates then "yes" else "NO");
  Tables.note "unsatisfiable SLO is refused, not served stale: %s\n"
    (if refusal then "yes" else "NO");
  let pass =
    List.for_all (fun m -> m.m_consistent) maints
    && poll_free && speedup >= 2.0 && escalates && refusal
  in
  let path =
    match Sys.getenv_opt "BENCH8_JSON" with
    | Some p -> p
    | None -> "BENCH_8.json"
  in
  json path maints speedup poll_free cells refusal ~pass;
  Tables.note "wrote %s\n" path;
  if not pass then (
    Tables.note "E19 FAILED\n";
    exit 1)
