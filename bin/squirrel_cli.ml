(* Command-line driver for the Squirrel reproduction.

   Subcommands:
     describe   print the generated mediator (VDP, annotation,
                rulebase, contributor kinds) for a named scenario, or
                with --dot the annotated VDP as Graphviz
     advise     run the Sec. 5.3 annotation advisor with given rates
     run        run a scenario under the standard load, check it
                (exit 1 if INCONSISTENT), and print the reports
                --report names, in this order: profile (answer
                cache, batching, table statistics), metrics, trace,
                stats (the default), freshness
     query      pose one parsed query, optionally after some updates
     chaos      run one chaos-matrix cell (scenario, fault profile,
                seed)
     federation run the sharded federation under a mixed workload and
                print topology, routing counters, and a sample
                scatter-gather answer's merged guarantee
     scenario   load a declarative .scn file (sources, views, hints,
                loads, timed updates), run it, print every export and
                the consistency verdict
     scenarios  list the scenario catalogue: annotations (default
                marked) and main query

   Examples:
     squirrel describe fig1 --annotation ex23 --dot
     squirrel advise ex51 --hot-source dbB
     squirrel run fig1 --annotation ex22 --updates 50 --queries 20
     squirrel run retail --report profile,metrics
     squirrel run fig1 -a ex23 --report trace --jsonl trace.jsonl *)

open Cmdliner
open Sim
open Squirrel
open Workload

(* --- arguments ---------------------------------------------------------- *)

let find_scenario name =
  match Scenario.find name with
  | Some sc -> Ok sc
  | None ->
    Error
      (`Msg
         (Printf.sprintf "unknown scenario %S (try: %s)" name
            (String.concat ", "
               (List.map (fun sc -> sc.Scenario.sc_name) Scenario.catalogue))))

(* no --annotation picks the scenario's default, its first *)
let find_annotation sc = function
  | None -> Ok (snd (List.hd sc.Scenario.sc_annotations))
  | Some name -> (
    match Scenario.annotation sc name with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown annotation %S for %s (try: %s)" name
              sc.Scenario.sc_name
              (String.concat ", " (List.map fst sc.Scenario.sc_annotations)))))

let scenario_arg =
  let doc = "Scenario to operate on (see $(b,scenarios))." in
  let scenario =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  Term.(term_result (const find_scenario $ scenario))

(* the scenario together with its chosen annotation *)
let scenario_ann_arg =
  let doc = "Annotation variant (default: the scenario's first)." in
  let annotation =
    Arg.(
      value
      & opt (some string) None
      & info [ "annotation"; "a" ] ~docv:"NAME" ~doc)
  in
  Term.(
    term_result
      (const (fun sc ann ->
           Result.map (fun a -> (sc, a)) (find_annotation sc ann))
      $ scenario_arg $ annotation))

let seed_arg =
  let doc = "PRNG seed (runs are fully deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let max_batch_arg =
  let doc =
    "Group-commit cap: queued announcements coalesced into one kernel pass \
     (1 = paper-faithful one transaction per pass)."
  in
  Arg.(value & opt int 64 & info [ "max-batch" ] ~docv:"N" ~doc)

let updates_arg ~default ~doc =
  Arg.(value & opt int default & info [ "updates"; "u" ] ~docv:"N" ~doc)

let queries_arg ~default ~doc =
  Arg.(value & opt int default & info [ "queries"; "q" ] ~docv:"N" ~doc)

let check env med =
  Correctness.Checker.check ~vdp:env.Scenario.vdp
    ~sources:env.Scenario.sources ~events:(Mediator.events med) ()

let print_correctness report =
  let open Correctness.Checker in
  Printf.printf "-- correctness --\n";
  Printf.printf "queries checked   %d\n" report.checked_queries;
  Printf.printf "verdict           %s\n"
    (if consistent report then "CONSISTENT" else "INCONSISTENT");
  List.iter
    (fun v -> Printf.printf "violation: %s\n" v.v_detail)
    report.violations

(* an INCONSISTENT verdict fails the command with exit code 1 *)
let exit_if_inconsistent what report =
  if not (Correctness.Checker.consistent report) then begin
    Printf.eprintf "squirrel: %s was inconsistent\n" what;
    exit 1
  end

(* --- describe ----------------------------------------------------------- *)

let describe_cmd =
  let run (sc, ann_of) seed dot =
    let env = sc.Scenario.sc_make ~seed in
    let annotation = ann_of env.Scenario.vdp in
    if dot then print_string (Vdp.Dot.render ~annotation env.Scenario.vdp)
    else
      print_endline (Mediator.describe (Scenario.mediator env ~annotation ()))
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit the annotated VDP as Graphviz (the paper's Figures 1/4) \
             instead.")
  in
  Cmd.v
    (Cmd.info "describe" ~doc:"Print the generated mediator specification")
    Term.(const run $ scenario_ann_arg $ seed_arg $ dot)

(* --- advise ------------------------------------------------------------- *)

let advise_cmd =
  let run sc hot_source hot_rate access_threshold seed =
    let env = sc.Scenario.sc_make ~seed in
    let sources = Vdp.Graph.sources env.Scenario.vdp in
    if hot_source <> "" && not (List.mem hot_source sources) then
      Error
        (`Msg
           (Printf.sprintf "unknown source %S for %s (try: %s)" hot_source
              sc.Scenario.sc_name (String.concat ", " sources)))
    else begin
      let profile =
        {
          Vdp.Advisor.uniform_profile with
          Vdp.Advisor.update_rate =
            (fun rel ->
              (* rate keyed by leaf relation; mark the hot source's
                 relations *)
              let hot =
                List.exists
                  (fun (src, r, _) ->
                    String.equal src hot_source && String.equal r rel)
                  sc.Scenario.sc_updates
              in
              if hot then hot_rate else 1.0);
        }
      in
      let ann, reasons =
        Vdp.Advisor.advise ~access_threshold env.Scenario.vdp profile
      in
      print_endline "-- advisor reasoning --";
      List.iter (fun r -> Printf.printf "  %s\n" r) reasons;
      print_endline "-- advised annotation --";
      print_endline (Vdp.Annotation.to_string ann);
      Ok ()
    end
  in
  let hot_source =
    Arg.(
      value & opt string ""
      & info [ "hot-source" ] ~docv:"SOURCE"
          ~doc:"Source whose relations update frequently.")
  in
  let hot_rate =
    Arg.(
      value & opt float 50.0
      & info [ "hot-rate" ] ~docv:"RATE" ~doc:"Update rate of the hot source.")
  in
  let access_threshold =
    Arg.(
      value & opt float 0.25
      & info [ "access-threshold" ] ~docv:"F"
          ~doc:"Materialize export attributes accessed at least this often.")
  in
  Cmd.v
    (Cmd.info "advise" ~doc:"Run the Sec. 5.3 annotation advisor")
    Term.(
      term_result
        (const run $ scenario_arg $ hot_source $ hot_rate $ access_threshold
        $ seed_arg))

(* --- run ---------------------------------------------------------------- *)

(* The catalogue scenario under the standard load: its update relations
   at the default rates, its main query, quiesced. *)
let run_standard (sc, ann_of) ?config ~updates ~queries seed =
  let env = sc.Scenario.sc_make ~seed in
  let med = Scenario.start ?config env ~annotation:(ann_of env.Scenario.vdp) in
  let node, attrs = sc.Scenario.sc_query in
  Scenario.run_load
    ~rng:(Datagen.state (seed * 31))
    env med ~updates:sc.Scenario.sc_updates
    ~queries:(node, [ (attrs, Relalg.Predicate.True) ])
    {
      Scenario.default_load with
      Scenario.l_updates_per_rel = updates;
      l_queries = queries;
    };
  (env, med)

let print_stats med report =
  let s = Mediator.stats med in
  let v = Obs.Metrics.value in
  Printf.printf "-- stats --\n";
  Printf.printf "update txs        %d\n" (v s.Med.update_txs);
  Printf.printf "query txs         %d\n" (v s.Med.query_txs);
  Printf.printf "  from store      %d\n" (v s.Med.queries_from_store);
  Printf.printf "  key-based       %d\n" (v s.Med.key_based_constructions);
  Printf.printf "polls             %d\n" (v s.Med.polls);
  Printf.printf "tuples polled     %d\n" (v s.Med.polled_tuples);
  Printf.printf "atoms propagated  %d\n" (v s.Med.propagated_atoms);
  Printf.printf "temp relations    %d\n" (v s.Med.temps_built);
  Printf.printf "ops (update)      %d\n" (v s.Med.ops_update);
  Printf.printf "ops (query)       %d\n" (v s.Med.ops_query);
  Printf.printf "store bytes       %d\n" (Mediator.store_bytes med);
  print_correctness report;
  List.iter
    (fun (src, st) -> Printf.printf "staleness %-6s  %.3f\n" src st)
    report.Correctness.Checker.max_staleness

let print_profile med ~max_batch =
  let s = Mediator.stats med in
  let v = Obs.Metrics.value in
  Printf.printf "answer cache: %d hits, %d misses, %d invalidations\n"
    (v s.Med.cache_hits) (v s.Med.cache_misses)
    (v s.Med.cache_invalidations);
  Printf.printf
    "\n\
     -- batching (max_batch %d) --\n\
     %d batches over %d update txs (mean %.2f tx/batch), %d annihilated +/- \
     pairs\n"
    max_batch (v s.Med.update_txs) (v s.Med.coalesced_txs)
    (match v s.Med.update_txs with
    | 0 -> 1.0
    | n -> float_of_int (v s.Med.coalesced_txs) /. float_of_int n)
    (v s.Med.annihilated_pairs);
  let tables =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun n tb acc -> (n, tb) :: acc) med.Med.tables [])
  in
  if tables <> [] then begin
    Printf.printf "\n-- table statistics --\n";
    List.iter
      (fun (n, tb) ->
        Format.printf "%-14s %a@." n Storage.Table.pp_stats
          (Storage.Table.stats tb))
      tables
  end;
  Printf.printf "\n-- metrics registry --\n";
  print_string
    (Obs.Metrics.render (Obs.Metrics.snapshot (Mediator.metrics med)))

let print_metrics med ~json =
  let snap = Obs.Metrics.snapshot (Mediator.metrics med) in
  if json then print_endline (Obs.Metrics.to_json snap)
  else print_string (Obs.Metrics.render snap)

let print_trace med ~jsonl =
  let trace = Mediator.trace med in
  match jsonl with
  | "" -> print_string (Obs.Trace.render trace)
  | "-" -> print_string (Obs.Trace.to_jsonl trace)
  | file ->
    let oc = open_out file in
    output_string oc (Obs.Trace.to_jsonl trace);
    close_out oc;
    Printf.printf "wrote %d spans (%d roots, %d dropped) to %s\n"
      (Obs.Trace.spans_recorded trace)
      (List.length (Obs.Trace.roots trace))
      (Obs.Trace.dropped_roots trace)
      file

let bound_list b =
  String.concat "  " (List.map (fun (s, f) -> Printf.sprintf "%s:%.3f" s f) b)

(* Each derived node's analytic Theorem 7.2 bound, then one sample
   query on the main export, optionally under a freshness SLO. *)
let print_freshness env med ~node ~max_staleness =
  Printf.printf
    "-- analytic Theorem 7.2 bounds (f-bar per contributing source, measured \
     delays) --\n";
  List.iter
    (fun (n : Vdp.Graph.node) ->
      Printf.printf "  %-12s %s\n" n.Vdp.Graph.name
        (bound_list (Mediator.freshness_bound med ~node:n.Vdp.Graph.name)))
    (Vdp.Graph.non_leaves env.Scenario.vdp);
  Printf.printf "\n-- sample query on %s%s --\n" node
    (match max_staleness with
    | Some s -> Printf.sprintf " (max_staleness %.3f)" s
    | None -> " (no SLO)");
  let cell = ref None in
  Engine.spawn env.Scenario.engine (fun () ->
      cell :=
        Some
          (match Mediator.query med ~node ?max_staleness () with
          | a -> Ok a
          | exception Qp.Slo_unsatisfiable m -> Error m));
  let rec drive n =
    match !cell with
    | Some v -> Ok v
    | None when n > 1000 -> Error (`Msg "query did not complete")
    | None ->
      Engine.run env.Scenario.engine
        ~until:(Engine.now env.Scenario.engine +. 1.0);
      drive (n + 1)
  in
  match drive 0 with
  | Error e -> Error e
  | Ok (Ok a) ->
    Printf.printf "  answer: %d tuples, %s\n"
      (Relalg.Bag.cardinal a.Qp.tuples)
      (match a.Qp.quality with
      | Qp.Fresh -> "fresh"
      | Qp.Stale ms ->
        Printf.sprintf "stale (%s)"
          (String.concat ", " (List.map (fun m -> m.Med.st_source) ms)));
    Printf.printf "  online bound: %s\n" (bound_list a.Qp.bound);
    let s = Mediator.stats med in
    Printf.printf "  slo polls: %d, slo refusals: %d\n"
      (Obs.Metrics.value s.Med.slo_polls)
      (Obs.Metrics.value s.Med.slo_refusals);
    Ok ()
  | Ok (Error m) ->
    Printf.printf "  REFUSED: no strategy meets max_staleness %.3f on %s\n"
      m.Qp.sm_slo m.Qp.sm_node;
    Printf.printf "  best bound: %s\n" (bound_list m.Qp.sm_bound);
    Ok ()

let run_cmd =
  let run ((sc, _) as scenario) updates queries seed eca max_batch reports
      json jsonl max_staleness =
    let env, med =
      run_standard scenario
        ~config:(Med.Config.make ~eca_enabled:eca ~max_batch ())
        ~updates ~queries seed
    in
    let wants r = List.mem r reports in
    (* A fixed order; freshness comes last, as its sample query
       changes the mediator's state. *)
    if wants `Profile then print_profile med ~max_batch;
    if wants `Metrics then print_metrics med ~json;
    if wants `Trace then print_trace med ~jsonl;
    let report = check env med in
    if wants `Stats then print_stats med report;
    let fresh =
      if wants `Freshness then
        print_freshness env med ~node:(fst sc.Scenario.sc_query) ~max_staleness
      else Ok ()
    in
    exit_if_inconsistent "run" report;
    fresh
  in
  let eca =
    Arg.(
      value & opt bool true
      & info [ "eca" ] ~docv:"BOOL"
          ~doc:"Enable Eager Compensation (disable to reproduce the anomaly).")
  in
  let reports =
    Arg.(
      value
      & opt
          (list
             (enum
                [
                  ("stats", `Stats);
                  ("profile", `Profile);
                  ("metrics", `Metrics);
                  ("trace", `Trace);
                  ("freshness", `Freshness);
                ]))
          [ `Stats ]
      & info [ "report" ] ~docv:"LIST"
          ~doc:
            "Comma-separated reports to print, always in this order: \
             $(b,profile) (answer cache, batching, table statistics), \
             $(b,metrics) (the metrics registry), $(b,trace) (the \
             transaction span tree), $(b,stats) (counters and the \
             consistency verdict), $(b,freshness) (each derived node's \
             Theorem 7.2 bound, then one sample query).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the metrics report as JSON.")
  in
  let jsonl =
    Arg.(
      value & opt string ""
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Export the trace report as JSON lines (one span per line) to \
             $(docv) instead of rendering the span tree; use - for stdout.")
  in
  let max_staleness =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-staleness"; "s" ] ~docv:"SECONDS"
          ~doc:
            "Freshness SLO for the freshness report's sample query: the \
             answer's per-source staleness bound must not exceed $(docv); \
             the QP escalates to forced source polls if needed and refuses \
             when even that cannot satisfy it.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a scenario under the standard load (commits on each update \
          relation, queries on the main export), check the run for \
          consistency, and print the chosen reports; exits 1 on an \
          INCONSISTENT verdict")
    Term.(
      term_result
        (const run $ scenario_ann_arg
        $ updates_arg ~default:20 ~doc:"Commits per source relation."
        $ queries_arg ~default:10 ~doc:"Queries against the main export."
        $ seed_arg $ eca $ max_batch_arg $ reports $ json $ jsonl
        $ max_staleness))

(* --- query ---------------------------------------------------------------- *)

let query_cmd =
  let run scenario node attrs where updates seed verbose =
    try
      let cond =
        match where with
        | "" -> Relalg.Predicate.True
        | src -> Relalg.Parser.predicate src
      in
      let attrs =
        match attrs with "" -> None | src -> Some (Relalg.Parser.attrs src)
      in
      let env, med = run_standard scenario ~updates ~queries:0 seed in
      let answer = ref None in
      Engine.spawn env.Scenario.engine (fun () ->
          answer := Some (Mediator.query med ~node ?attrs ~cond ()));
      Engine.run env.Scenario.engine
        ~until:(Engine.now env.Scenario.engine +. 60.0);
      match !answer with
      | Some ans ->
        let bag = ans.Qp.tuples in
        let v = Obs.Metrics.value in
        let s = Mediator.stats med in
        Format.printf "%a@." Relalg.Bag.pp bag;
        Printf.printf "(%d tuples; polls %d, key-based %d, from store %d)\n"
          (Relalg.Bag.cardinal bag) (v s.Med.polls)
          (v s.Med.key_based_constructions)
          (v s.Med.queries_from_store);
        if verbose then print_trace med ~jsonl:"";
        Ok ()
      | None -> Error (`Msg "query did not complete")
    with
    | Relalg.Parser.Parse_error msg -> Error (`Msg msg)
    | Med.Mediator_error msg -> Error (`Msg msg)
  in
  let node =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"EXPORT" ~doc:"Export relation to query.")
  in
  let attrs =
    Arg.(
      value & opt string ""
      & info [ "attrs" ] ~docv:"LIST"
          ~doc:"Comma-separated projection (default: all attributes).")
  in
  let where =
    Arg.(
      value & opt string ""
      & info [ "where" ] ~docv:"PRED"
          ~doc:"Selection condition, e.g. 'r3 < 100 and s1 = 7'.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:
            "Also print the transaction span tree (updates, polls, the \
             query's rungs).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Pose one query (with parsed projection/condition) and print the \
             answer")
    Term.(
      term_result
        (const run $ scenario_ann_arg $ node $ attrs $ where
        $ updates_arg ~default:0
            ~doc:"Apply this many commits per relation before querying."
        $ seed_arg $ verbose))

(* --- chaos ----------------------------------------------------------------- *)

let chaos_cmd =
  let run scenario profile max_batch seed =
    match Chaos_run.scenario_by_name scenario with
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown chaos scenario %S (try: %s)" scenario
              (String.concat ", " Chaos_run.scenario_names)))
    | Some sc -> (
      match Faults.by_name profile with
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown fault profile %S (try: %s)" profile
                (String.concat ", " Faults.names)))
      | Some p ->
        let r = Chaos_run.run_one ~max_batch sc p seed in
        let b v = if v then "yes" else "NO" in
        Printf.printf "-- chaos cell %s/%s seed %d --\n" r.Chaos_run.c_scenario
          r.Chaos_run.c_profile r.Chaos_run.c_seed;
        Printf.printf "verdict           %s\n"
          (if Chaos_run.passed r then "PASS" else "FAIL");
        Printf.printf "  quiesced        %s\n" (b r.Chaos_run.c_quiesced);
        Printf.printf "  converged       %s\n" (b r.Chaos_run.c_converged);
        Printf.printf "  consistent      %s\n" (b r.Chaos_run.c_consistent);
        if r.Chaos_run.c_note <> "" then
          Printf.printf "  note            %s\n" r.Chaos_run.c_note;
        Printf.printf "queries           %d fresh, %d stale, %d refused\n"
          r.Chaos_run.c_fresh r.Chaos_run.c_stale r.Chaos_run.c_refused;
        Printf.printf
          "channel           %d sent, %d delivered, %d dropped, %d duplicated\n"
          r.Chaos_run.c_sent r.Chaos_run.c_delivered r.Chaos_run.c_dropped
          r.Chaos_run.c_duplicated;
        Printf.printf "polls             %d (+%d retries, %d exhausted)\n"
          r.Chaos_run.c_polls r.Chaos_run.c_retries r.Chaos_run.c_poll_failures;
        Printf.printf "recovery          %d gaps, %d resyncs, %d deferrals, \
                       %d dup msgs dropped\n"
          r.Chaos_run.c_gaps r.Chaos_run.c_resyncs r.Chaos_run.c_deferrals
          r.Chaos_run.c_dups_dropped;
        Printf.printf "degraded answers  %d\n" r.Chaos_run.c_degraded;
        Printf.printf "version checks    %d\n" r.Chaos_run.c_heartbeats;
        Printf.printf "batching          %d batches over %d update txs\n"
          r.Chaos_run.c_batches r.Chaos_run.c_batched_txs;
        Printf.printf
          "trace             %d retry spans, %d degraded query spans, \
           %d resync spans, invariants %s\n"
          r.Chaos_run.c_retry_spans r.Chaos_run.c_degraded_spans
          r.Chaos_run.c_resync_spans
          (b r.Chaos_run.c_trace_ok);
        Printf.printf "freshness bounds  %d violations, respected %s\n"
          r.Chaos_run.c_bound_violations
          (b r.Chaos_run.c_bounds_ok);
        if Chaos_run.passed r then Ok () else Error (`Msg "chaos cell failed"))
  in
  let profile =
    Arg.(
      value
      & opt string "chaos"
      & info [ "profile"; "p" ] ~docv:"PROFILE"
          ~doc:
            "Fault profile: none, jitter, drop, dup, outage, blackhole, \
             reorder, chaos.")
  in
  let term =
    Term.(
      term_result
        (const run
        $ Arg.(
            required & pos 0 (some string) None
            & info [] ~docv:"SCENARIO"
                ~doc:"Chaos scenario: fig1, ex51 or retail.")
        $ profile $ max_batch_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run one chaos-matrix cell: a scenario under an injected fault \
          profile, checked for convergence and consistency after the faults \
          heal (deterministic per seed — reproduce a failing cell from the \
          e14 benchmark by its coordinates)")
    term

(* --- federation ------------------------------------------------------------ *)

let federation_cmd =
  let run shards keys txs seed =
    if shards <= 0 then Error (`Msg "shards must be >= 1")
    else begin
      let engine = Engine.create () in
      let config = Med.Config.make ~op_time:0.0 () in
      let fed =
        Fed.Coordinator.create ~engine
          ~vdp:(Fed.Fed_scenario.fed_vdp ())
          ~key:Fed.Fed_scenario.partition_key ~shards
          ~make_sources:(fun ~shard:_ ->
            Fed.Fed_scenario.make_sources ~engine ())
          ~config ()
      in
      let groups = 8 in
      let spec =
        {
          Fed.Fed_workload.default_spec with
          w_seed = seed;
          w_keys = keys;
          w_groups = groups;
          w_txs = txs;
          w_queries = 16;
          w_commit_horizon = 2.0;
          w_query_horizon = 2.0;
        }
      in
      let items, tags = Fed.Fed_scenario.base_bags ~seed ~keys ~groups in
      Fed.Coordinator.load fed "Items" items;
      Fed.Coordinator.load fed "Tags" tags;
      Engine.spawn engine (fun () -> Fed.Coordinator.initialize fed);
      Engine.run engine ~until:spec.Fed.Fed_workload.w_commit_start;
      let out =
        Fed.Fed_workload.run ~engine ~spec (Fed.Fed_workload.of_fed fed)
      in
      print_string (Fed.Coordinator.describe fed);
      let c name =
        Obs.Metrics.value
          (Obs.Metrics.counter (Fed.Coordinator.metrics fed) name)
      in
      let fresh_answers =
        Array.fold_left
          (fun n (_, a) ->
            match a.Qp.quality with Qp.Fresh -> n + 1 | Qp.Stale _ -> n)
          0 out.Fed.Fed_workload.o_answers
      in
      Printf.printf
        "\nworkload          %d update txs routed (%d atoms), %d queries \
         (%d/%d fresh)\n"
        (c "fed_routed_txs") (c "fed_routed_atoms") (c "fed_queries")
        fresh_answers
        (Array.length out.Fed.Fed_workload.o_answers);
      Printf.printf
        "routing           %d scatter fan-outs, %d single-shard fast paths\n"
        (c "fed_fanouts") (c "fed_single_shard");
      Printf.printf "degraded answers  %d (shard resyncs %d)\n"
        (c "fed_degraded_answers") (c "fed_shard_resyncs");
      (* one more scatter query, spelled out: show the merged guarantee *)
      let sample = ref None in
      Engine.spawn engine (fun () ->
          sample :=
            Some
              (Fed.Coordinator.query fed ~node:"Enriched"
                 ~cond:Relalg.Predicate.(eq (attr "grp") (int 0))
                 ()));
      Engine.run engine ~until:(Engine.now engine +. 5.0);
      match !sample with
      | None -> Error (`Msg "sample query did not complete")
      | Some ans ->
        let entry = function
          | Med.Version v -> Printf.sprintf "v%d" v
          | Med.Current -> "current"
        in
        Printf.printf
          "\nsample scatter query: Enriched where grp = 0 (fans to all %d \
           shard%s)\n"
          shards
          (if shards = 1 then "" else "s");
        Printf.printf "  tuples   %d\n" (Relalg.Bag.cardinal ans.Qp.tuples);
        Printf.printf "  quality  %s\n"
          (match ans.Qp.quality with
          | Qp.Fresh -> "fresh"
          | Qp.Stale ss ->
            Printf.sprintf "stale (%s)"
              (String.concat ", " (List.map (fun s -> s.Med.st_source) ss)));
        Printf.printf "  reflect  %s   (meet across shard vectors)\n"
          (String.concat ", "
             (List.map
                (fun (src, e) -> Printf.sprintf "%s=%s" src (entry e))
                ans.Qp.reflect));
        Ok ()
    end
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards"; "n" ] ~docv:"N" ~doc:"Number of mediator shards.")
  in
  let keys_arg =
    Arg.(
      value & opt int 512
      & info [ "keys" ] ~docv:"K"
          ~doc:"Distinct partition-key values in the base relations.")
  in
  let txs_arg =
    Arg.(
      value & opt int 64
      & info [ "txs"; "u" ] ~docv:"N"
          ~doc:"Single-key update transactions to route through the workload.")
  in
  let term =
    Term.(
      term_result
        (const run $ shards_arg $ keys_arg $ txs_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "federation"
       ~doc:
         "Run the canonical federated scenario (Enriched/Hot hash-partitioned \
          by key) across N mediator shards under a small mixed workload, then \
          print the shard topology, routing and degradation counters, and \
          the merged reflect vector of a sample scatter-gather query")
    term

(* --- scenario (declarative file) ------------------------------------------- *)

let scenario_cmd =
  let run file describe =
    try
      let c = Scn.of_file file in
      let env = c.Scn.c_env in
      let annotation = c.Scn.c_annotation in
      if describe then begin
        print_endline (Mediator.describe (Scenario.mediator env ~annotation ()));
        Ok ()
      end
      else begin
        List.iter
          (fun sd ->
            Printf.printf "source %-10s backend %-10s (%s)\n"
              sd.Relalg.Parser.sd_name sd.Relalg.Parser.sd_backend
              (String.concat ", "
                 (List.map fst sd.Relalg.Parser.sd_relations)))
          c.Scn.c_decl.Relalg.Parser.sc_sources;
        let med = Scenario.start env ~annotation in
        (* the compiled [at] events are already on the engine's agenda;
           quiescing drives them and every announcement they trigger *)
        Scenario.run_to_quiescence env med;
        let answers = ref [] in
        Engine.spawn env.Scenario.engine (fun () ->
            answers :=
              List.map
                (fun node -> (node, Mediator.query med ~node ()))
                c.Scn.c_exports);
        Engine.run env.Scenario.engine
          ~until:(Engine.now env.Scenario.engine +. 60.0);
        if List.length !answers <> List.length c.Scn.c_exports then
          Error (`Msg "export queries did not complete")
        else begin
          List.iter
            (fun (node, (ans : Qp.answer)) ->
              Printf.printf "-- %s (%d tuples, %s) --\n" node
                (Relalg.Bag.cardinal ans.Qp.tuples)
                (match ans.Qp.quality with
                | Qp.Fresh -> "fresh"
                | Qp.Stale _ -> "stale");
              Format.printf "%a@." Relalg.Bag.pp ans.Qp.tuples)
            (List.rev !answers);
          let report = check env med in
          print_correctness report;
          exit_if_inconsistent "scenario run" report;
          Ok ()
        end
      end
    with
    | Scn.Scenario_error msg -> Error (`Msg msg)
    | Relalg.Parser.Parse_error msg -> Error (`Msg msg)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Scenario file (.scn) to load.")
  in
  let describe =
    Arg.(
      value & flag
      & info [ "describe" ]
          ~doc:
            "Print the generated mediator specification instead of running \
             the scenario.")
  in
  let term = Term.(term_result (const run $ file $ describe)) in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Load a declarative scenario file (sources with storage backends, \
          view definitions, annotation hints, initial loads, timed updates), \
          run it end to end, print every export's answer, and check \
          consistency")
    term

(* --- scenarios ------------------------------------------------------------ *)

let scenarios_cmd =
  let run () =
    List.iter
      (fun sc ->
        let node, attrs = sc.Scenario.sc_query in
        Printf.printf
          "%-9s %s\n          annotations: %s\n          main query:  %s [%s]\n"
          sc.Scenario.sc_name sc.Scenario.sc_doc
          (String.concat ", "
             (List.mapi
                (fun i (name, _) -> if i = 0 then name ^ " (default)" else name)
                sc.Scenario.sc_annotations))
          node (String.concat ", " attrs))
      Scenario.catalogue
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:
         "List the scenario catalogue: each scenario's annotations (the \
          default marked) and its main query")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "squirrel" ~version:"1.0.0"
      ~doc:
        "Squirrel integration mediators: hybrid materialized/virtual data \
         integration (Hull & Zhou, SIGMOD 1996)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            describe_cmd; advise_cmd; run_cmd; query_cmd; chaos_cmd;
            federation_cmd; scenario_cmd; scenarios_cmd;
          ]))
