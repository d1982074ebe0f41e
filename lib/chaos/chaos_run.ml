(* One cell of the chaos matrix: a scenario run under an injected
   fault profile, driven past the fault window, healed, quiesced, and
   checked for convergence and consistency. Shared by the e14 bench
   harness (the full matrix) and the CLI's [chaos] subcommand (one
   cell, for reproducing a failing seed). *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Correctness
open Workload

let fault_window = (2.0, 20.0)
let update_start = 1.0
let update_interval = 0.25
let update_count = 120
let query_start = 1.5
let query_interval = 1.5
let query_count = 20

(* Timeouts and the heartbeat are what make faults survivable at all:
   a dropped answer only surfaces as a timeout, and a dropped FINAL
   announcement only surfaces through the version check. *)
let make_config ?max_batch () =
  Med.Config.make ~op_time:0.0 ~poll_timeout:2.0 ~poll_retries:4
    ~poll_backoff:0.1 ~version_check_interval:2.0 ~trace_capacity:16384
    ?max_batch ()

let config = make_config ()

type scenario = { entry : Scenario.t; annotation : string }

(* fig1 runs hybrid Ex. 2.3: T's virtual attributes force polls, so
   outages degrade the answer to the materialized subset. ex51 is the
   deep VDP. retail's Premium is fully materialized: answers stay
   local, but gap repair in progress still marks them stale. *)
let scenarios =
  List.map
    (fun (name, annotation) ->
      { entry = Option.get (Scenario.find name); annotation })
    [ ("fig1", "ex23"); ("ex51", "paper"); ("retail", "hybrid") ]

let scenario_names = List.map (fun sc -> sc.entry.Scenario.sc_name) scenarios

let scenario_by_name name =
  List.find_opt
    (fun sc -> String.equal sc.entry.Scenario.sc_name name)
    scenarios

type run = {
  c_scenario : string;
  c_profile : string;
  c_seed : int;
  c_quiesced : bool;
  c_converged : bool;
  c_consistent : bool;
  c_fresh : int;
  c_stale : int;
  c_refused : int;
  c_sent : int;
  c_delivered : int;
  c_dropped : int;
  c_duplicated : int;
  c_polls : int;
  c_retries : int;
  c_poll_failures : int;
  c_degraded : int;
  c_gaps : int;
  c_dups_dropped : int;
  c_resyncs : int;
  c_deferrals : int;
  c_heartbeats : int;
  c_retry_spans : int;
      (** poll spans that needed more than one attempt *)
  c_degraded_spans : int;  (** query_tx spans marked degraded *)
  c_resync_spans : int;  (** resync spans in the trace *)
  c_trace_ok : bool;  (** trace invariants held (see {!trace_invariants}) *)
  c_bound_violations : int;
      (** answers whose observed staleness exceeded their reported bound *)
  c_bounds_ok : bool;  (** no answer overran its online freshness bound *)
  c_batches : int;  (** group-commit batches applied *)
  c_batched_txs : int;  (** constituent announcements folded into them *)
  c_note : string;
}

let passed r =
  r.c_quiesced && r.c_converged && r.c_consistent && r.c_trace_ok
  && r.c_bounds_ok

(* Trace invariants the fault model must preserve:
   1. a deferred batch transaction is not the end of the story — some
      applied batch_tx or snapshot rebuild starts at-or-after it
      (otherwise deferred work was silently dropped);
   2. every resync span was triggered by an observed gap: some
      gap_detected event precedes it;
   3. every applied batch_tx's [entries] attribute equals the number
      of update_tx children it wraps — the batch frame never claims
      constituents it did not trace. *)
let trace_invariants trace =
  let roots = Obs.Trace.roots trace in
  let starts name pred =
    List.filter_map
      (fun (sp : Obs.Trace.span) ->
        if String.equal sp.Obs.Trace.name name && pred sp then
          Some sp.Obs.Trace.start_time
        else None)
      roots
  in
  let outcome v (sp : Obs.Trace.span) =
    match Obs.Trace.attr sp "outcome" with Some x -> String.equal x v | None -> false
  in
  let any _ = true in
  let deferred = starts "batch_tx" (outcome "deferred") in
  let applied = starts "batch_tx" (outcome "applied") in
  let snapshots = starts "snapshot" any in
  let resyncs = starts "resync" any in
  let gaps = starts "gap_detected" any in
  let closed_after t0 =
    List.exists (fun t -> t >= t0) applied
    || List.exists (fun t -> t >= t0) snapshots
  in
  let batch_frames_ok =
    List.for_all
      (fun (sp : Obs.Trace.span) ->
        (not (String.equal sp.Obs.Trace.name "batch_tx"))
        ||
        let children =
          List.length
            (List.filter
               (fun (c : Obs.Trace.span) ->
                 String.equal c.Obs.Trace.name "update_tx")
               sp.Obs.Trace.children)
        in
        Obs.Trace.attr sp "entries" = Some (string_of_int children))
      roots
  in
  let problems =
    (if List.for_all closed_after deferred then []
     else [ "deferred batch_tx never followed by applied/snapshot" ])
    @ (if
         List.for_all
           (fun rt -> List.exists (fun gt -> gt <= rt) gaps)
           resyncs
       then []
       else [ "resync without a preceding gap_detected event" ])
    @
    if batch_frames_ok then []
    else [ "batch_tx entries attribute disagrees with update_tx children" ]
  in
  (problems = [], problems)

let span_coverage trace =
  let retry = ref 0 and degraded = ref 0 and resync = ref 0 in
  Obs.Trace.iter_spans
    (fun (sp : Obs.Trace.span) ->
      match sp.Obs.Trace.name with
      | "poll" ->
        (match Obs.Trace.attr sp "attempts" with
        | Some n when int_of_string n > 1 -> incr retry
        | _ ->
          (* exhausted polls also count: retries happened *)
          if Obs.Trace.attr sp "outcome" = Some "exhausted" then incr retry)
      | "query_tx" ->
        if Obs.Trace.attr sp "degraded" = Some "true" then incr degraded
        else if Obs.Trace.attr sp "served" = Some "degraded" then incr degraded
      | "resync" -> incr resync
      | _ -> ())
    trace;
  (!retry, !degraded, !resync)

(* fault-free reference: the view definition evaluated directly over
   the sources' current (post-quiescence) states *)
let reference_answer env name =
  let vdp = env.Scenario.vdp in
  let leaf_env leaf =
    match Graph.node_opt vdp leaf with
    | Some { Graph.kind = Graph.Leaf { source }; _ } ->
      let src =
        List.find
          (fun s -> String.equal (Source_db.name s) source)
          env.Scenario.sources
      in
      Some (Source_db.current src leaf)
    | Some _ | None -> None
  in
  Eval.eval ~env:leaf_env (Graph.expanded_def vdp name)

let run_one ?max_batch ?(tag = "") { entry = sc; annotation } profile seed =
  let env = sc.Scenario.sc_make ~seed in
  let engine = env.Scenario.engine in
  let ann = Option.get (Scenario.annotation sc annotation) in
  let med =
    Scenario.mediator env ~annotation:(ann env.Scenario.vdp)
      ~config:(make_config ?max_batch ()) ()
  in
  Engine.spawn engine (fun () -> Mediator.initialize med);
  Engine.run engine ~until:update_start;
  Faults.apply ~engine ~seed ~window:fault_window profile env.Scenario.sources;
  List.iteri
    (fun i (src_name, rel, specs) ->
      Driver.update_process ~start:update_start
        ~rng:(Datagen.state ((seed * 97) + (i * 13) + 5))
        ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = update_interval;
          u_count = update_count;
          u_delete_fraction = 0.4;
          u_specs = specs;
        })
    sc.Scenario.sc_updates;
  let query_node, query_attrs = sc.Scenario.sc_query in
  let fresh = ref 0 and stale = ref 0 and refused = ref 0 in
  Engine.spawn engine (fun () ->
      Engine.sleep engine query_start;
      for _ = 1 to query_count do
        Engine.sleep engine query_interval;
        try
          match
            (Mediator.query med ~node:query_node ~attrs:query_attrs ())
              .Qp.quality
          with
          | Qp.Fresh -> incr fresh
          | Qp.Stale _ -> incr stale
        with Med.Poll_failed _ | Med.Desync _ -> incr refused
      done);
  let horizon =
    update_start +. (float_of_int update_count *. update_interval) +. 2.0
  in
  Engine.run engine ~until:horizon;
  Faults.clear env.Scenario.sources;
  let quiesced, note =
    try
      Scenario.run_to_quiescence env med;
      (true, [])
    with Scenario.No_quiescence { nq_queue; nq_pending_events; _ } ->
      ( false,
        [
          Printf.sprintf "no quiescence (queue=%d, pending events=%d)" nq_queue
            nq_pending_events;
        ] )
  in
  (* healed channels: one final query per export, checked against the
     fault-free reference *)
  let finals = ref [] in
  Engine.spawn engine (fun () ->
      List.iter
        (fun (n : Graph.node) ->
          let ans =
            try Some (Mediator.query med ~node:n.Graph.name ()).Qp.tuples
            with Med.Poll_failed _ | Med.Desync _ -> None
          in
          finals := (n.Graph.name, ans) :: !finals)
        (Graph.exports env.Scenario.vdp));
  Engine.run engine ~until:(Engine.now engine +. 60.0);
  let diverged =
    List.filter_map
      (fun (name, ans) ->
        match ans with
        | None -> Some (name ^ " unanswered")
        | Some b ->
          if Bag.equal b (reference_answer env name) then None
          else Some (name ^ " diverged"))
      !finals
  in
  let converged = quiesced && diverged = [] in
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  let violations =
    List.filter_map
      (fun (v : Checker.violation) ->
        match v.Checker.v_kind with
        | `Freshness _ -> None
        | `Validity -> Some (Printf.sprintf "validity@%g" v.Checker.v_time)
        | `Chronology -> Some (Printf.sprintf "chronology@%g" v.Checker.v_time)
        | `Order -> Some (Printf.sprintf "order@%g" v.Checker.v_time)
        | `Bound _ -> Some (Printf.sprintf "bound@%g" v.Checker.v_time))
      report.Checker.violations
  in
  let bound_violations = List.length (Checker.bound_violations report) in
  let sum f =
    List.fold_left
      (fun acc s ->
        match Source_db.channel s with Some c -> acc + f c | None -> acc)
      0 env.Scenario.sources
  in
  let s = Mediator.stats med in
  let v = Obs.Metrics.value in
  let trace = Mediator.trace med in
  let trace_ok, trace_problems = trace_invariants trace in
  let retry_spans, degraded_spans, resync_spans = span_coverage trace in
  {
    c_scenario = sc.Scenario.sc_name;
    c_profile = Faults.name profile ^ tag;
    c_seed = seed;
    c_quiesced = quiesced;
    c_converged = converged;
    c_consistent = Checker.consistent report;
    c_fresh = !fresh;
    c_stale = !stale;
    c_refused = !refused;
    c_sent = sum Channel.sent_count;
    c_delivered = sum Channel.delivered_count;
    c_dropped = sum Channel.dropped_count;
    c_duplicated = sum Channel.duplicated_count;
    c_polls = v s.Med.polls;
    c_retries = v s.Med.poll_retries;
    c_poll_failures = v s.Med.poll_failures;
    c_degraded = v s.Med.degraded_answers;
    c_gaps = v s.Med.gaps_detected;
    c_dups_dropped = v s.Med.dup_messages_dropped;
    c_resyncs = v s.Med.resyncs;
    c_deferrals = v s.Med.update_deferrals;
    c_heartbeats = v s.Med.version_checks;
    c_retry_spans = retry_spans;
    c_degraded_spans = degraded_spans;
    c_resync_spans = resync_spans;
    c_trace_ok = trace_ok;
    c_bound_violations = bound_violations;
    c_bounds_ok = bound_violations = 0;
    c_batches = v s.Med.update_txs;
    c_batched_txs = v s.Med.coalesced_txs;
    c_note = String.concat "; " (note @ diverged @ violations @ trace_problems);
  }

(* --- federation profile ------------------------------------------------ *)

let fed_profiles = [ "kill"; "partition" ]

type fed_run = {
  f_profile : string;
  f_seed : int;
  f_shards : int;
  f_victim : int;
  f_outage_queries : int;
  f_outage_stale : int;
  f_bad_markers : int;
  f_resyncs : int;
  f_final_fresh : bool;
  f_converged : bool;
  f_note : string;
}

let fed_passed r =
  r.f_converged && r.f_final_fresh && r.f_resyncs >= 1 && r.f_bad_markers = 0
  && (not (String.equal r.f_profile "kill") || r.f_outage_stale >= 1)

(* fault-free federation reference: every shard's partition evaluated
   directly over its sources' current states, unioned *)
let fed_reference fed name =
  let vdp = Fed.Coordinator.vdp fed in
  let part i =
    let sh = Fed.Coordinator.shard fed i in
    let leaf_env leaf =
      match Graph.node_opt vdp leaf with
      | Some { Graph.kind = Graph.Leaf { source }; _ } ->
        Some
          (Source_db.current (Med.source sh.Fed.Coordinator.sh_med source) leaf)
      | Some _ | None -> None
    in
    Eval.eval ~env:leaf_env (Graph.expanded_def vdp name)
  in
  let rec go acc i =
    if i >= Fed.Coordinator.shard_count fed then acc
    else go (Bag.union acc (part i)) (i + 1)
  in
  go (part 0) 1

let run_federation ~profile ~seed =
  if not (List.mem profile fed_profiles) then
    invalid_arg ("Chaos_run.run_federation: unknown profile " ^ profile);
  let shards = 4 and victim = 2 in
  let outage_from = 4.0 and outage_to = 10.0 in
  let engine = Engine.create () in
  let fed =
    Fed.Coordinator.create ~engine
      ~vdp:(Fed.Fed_scenario.fed_vdp ())
      ~key:Fed.Fed_scenario.partition_key ~shards
      ~make_sources:(fun ~shard:_ -> Fed.Fed_scenario.make_sources ~engine ())
      ~config ()
  in
  let spec =
    {
      Fed.Fed_workload.w_seed = seed;
      w_keys = 512;
      w_groups = 8;
      w_txs = 160;
      w_queries = 32;
      w_commit_start = 1.0;
      w_commit_horizon = 12.0;
      w_query_start = 1.5;
      w_query_horizon = 12.0;
    }
  in
  let items, tags =
    Fed.Fed_scenario.base_bags ~seed ~keys:spec.Fed.Fed_workload.w_keys
      ~groups:spec.Fed.Fed_workload.w_groups
  in
  Fed.Coordinator.load fed "Items" items;
  Fed.Coordinator.load fed "Tags" tags;
  Engine.spawn engine (fun () -> Fed.Coordinator.initialize fed);
  Engine.run engine ~until:1.0;
  (match profile with
  | "kill" ->
    Engine.schedule_at engine ~time:outage_from (fun () ->
        Fed.Coordinator.kill fed victim);
    Engine.schedule_at engine ~time:outage_to (fun () ->
        Fed.Coordinator.revive fed victim)
  | _ ->
    Engine.schedule_at engine ~time:outage_from (fun () ->
        Fed.Coordinator.partition_links fed victim false);
    Engine.schedule_at engine ~time:outage_to (fun () ->
        Fed.Coordinator.partition_links fed victim true));
  let out = Fed.Fed_workload.run ~engine ~spec (Fed.Fed_workload.of_fed fed) in
  let Fed.Fed_workload.{ o_answers; o_finals; _ } = out in
  (* classify queries by their scheduled start time (completion is
     effectively instantaneous under op_time 0) *)
  let qdt =
    spec.Fed.Fed_workload.w_query_horizon
    /. float_of_int (max 1 spec.Fed.Fed_workload.w_queries)
  in
  let slack = 0.2 in
  let victim_prefix = Printf.sprintf "shard%d:" victim in
  let outage_q = ref 0 and outage_stale = ref 0 and bad = ref 0 in
  Array.iteri
    (fun j ((_ : Fed.Fed_workload.query_kind), (a : Qp.answer)) ->
      let tq =
        spec.Fed.Fed_workload.w_query_start +. (float_of_int j *. qdt) +. 0.0037
      in
      if tq > outage_from +. slack && tq < outage_to -. slack then begin
        incr outage_q;
        match a.Qp.quality with
        | Qp.Fresh -> ()
        | Qp.Stale markers ->
          incr outage_stale;
          (* with the shard dead, degraded answers must name it — and
             only it; a silent network partition makes no such claim *)
          if String.equal profile "kill" then
            List.iter
              (fun (m : Med.staleness) ->
                if
                  not
                    (String.starts_with ~prefix:victim_prefix m.Med.st_source)
                then incr bad)
              markers
      end)
    o_answers;
  let final_fresh =
    List.for_all (fun (_, (a : Qp.answer)) -> a.Qp.quality = Qp.Fresh) o_finals
  in
  let diverged =
    List.filter_map
      (fun (name, (a : Qp.answer)) ->
        if Bag.equal a.Qp.tuples (fed_reference fed name) then None
        else Some (name ^ " diverged"))
      o_finals
  in
  {
    f_profile = profile;
    f_seed = seed;
    f_shards = shards;
    f_victim = victim;
    f_outage_queries = !outage_q;
    f_outage_stale = !outage_stale;
    f_bad_markers = !bad;
    f_resyncs =
      Obs.Metrics.value
        (Obs.Metrics.counter (Fed.Coordinator.metrics fed) "fed_shard_resyncs");
    f_final_fresh = final_fresh;
    f_converged = diverged = [];
    f_note = String.concat "; " diverged;
  }
