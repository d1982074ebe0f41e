(* Group-commit batching must be invisible to correctness: a mediator
   draining its announcement queue in coalesced batches has to end in
   exactly the state of one applying the same announcements one at a
   time. We check that differentially — same scenario, same seed, same
   random annotation, same update/query load, run twice with
   [max_batch] 1 and 64 — and require identical final answers,
   identical reflect vectors, and a clean consistency checker on both
   logs (the batched one validating its advertised version intervals).
   Each run's store must also equal one built from scratch under its
   random annotation, table by table.

   The [Med.take_batch] unit tests pin the queue discipline itself,
   on queues built through [Med.enqueue]: the cap, stale-entry
   dropping, per-source version chaining, a gap's hold-back until the
   resync, and the constant cost of an enqueue. *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Delta
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

type diff_scenario = {
  f_name : string;
  f_make : int -> Scenario.env;
  f_annotate : Random.State.t -> Graph.t -> Annotation.t;
  f_rels : (string * string) list;
  f_specs : string -> Datagen.column_spec list;
  f_exports : string list;
}

(* periodic announcements make sources hold several commits back and
   release them together, so the batched run sees real queue depth *)
let scenarios =
  [
    {
      f_name = "fig1";
      f_make =
        (fun seed ->
          Scenario.make_fig1 ~seed ~announce:(Source_db.Periodic 0.9) ());
      f_annotate = random_annotation;
      f_rels = [ ("db1", "R"); ("db2", "S") ];
      f_specs = Scenario.fig1_update_specs;
      f_exports = [ "T" ];
    };
    {
      f_name = "ex51";
      f_make =
        (fun seed ->
          Scenario.make_ex51 ~seed ~announce:(Source_db.Periodic 0.9) ());
      f_annotate = random_annotation;
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C"); ("dbD", "D") ];
      f_specs = Scenario.ex51_update_specs;
      f_exports = [ "E"; "G" ];
    };
    {
      f_name = "retail";
      f_make =
        (fun seed ->
          Scenario.make_retail ~seed ~announce:(Source_db.Periodic 0.9) ());
      f_annotate = random_annotation;
      f_rels =
        [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW"); ("dbCust", "Cust") ];
      f_specs = Scenario.retail_update_specs;
      f_exports = [ "AllOrders"; "Premium" ];
    };
    {
      f_name = "diamond";
      f_make = Tutil.make_diamond ~ac_on:Predicate.(lt (attr "a2") (attr "c2"));
      f_annotate = (fun _ vdp -> Tutil.diamond_annotation vdp);
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C") ];
      f_specs = Tutil.diamond_specs;
      f_exports = [ "AB"; "AC" ];
    };
    {
      f_name = "diamond (both keyed)";
      f_make = Tutil.make_diamond ~ac_on:(Predicate.eq_attrs "a2" "c2");
      f_annotate = (fun _ vdp -> Tutil.diamond_annotation vdp);
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C") ];
      f_specs = Tutil.diamond_specs;
      f_exports = [ "AB"; "AC" ];
    };
  ]

type outcome = {
  o_answers : (string * Bag.t) list;
  o_reflect : (string * int) list;
  o_report : Checker.report;
}

(* one full run at a given batch cap; everything else derives
   deterministically from the seed so the two runs see the same load *)
let run_once sc ~seed ~max_batch =
  let rng = Random.State.make [| seed; 0xBA7C |] in
  let env = sc.f_make seed in
  let annotation = sc.f_annotate rng env.Scenario.vdp in
  let med =
    Scenario.mediator env ~annotation
      ~config:(Med.Config.make ~max_batch ())
      ()
  in
  in_process env (fun () -> Mediator.initialize med);
  let drv_rng = Datagen.state ((seed * 7) + 1) in
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
  (* the query processes get their own generator: query timing depends
     on the batch cap, so sharing [drv_rng] would interleave its draws
     differently per cap and silently fork the update streams *)
  let qry_rng = Datagen.state ((seed * 13) + 5) in
  List.iter
    (fun node ->
      let schema = (Graph.node env.Scenario.vdp node).Graph.schema in
      ignore
        (Driver.query_process ~rng:qry_rng ~med
           {
             Driver.q_node = node;
             q_interval = 0.61;
             q_count = 4;
             q_attr_sets = [ (Schema.attrs schema, Predicate.True) ];
           }))
    sc.f_exports;
  Scenario.run_to_quiescence env med;
  Tutil.check_store env med
    ~what:(Printf.sprintf "%s seed %d (max_batch %d)" sc.f_name seed max_batch);
  let answers =
    in_process env (fun () ->
        List.map
          (fun n -> (n, (Mediator.query med ~node:n ()).Qp.tuples))
          sc.f_exports)
  in
  (* each run must individually agree with direct recomputation over
     its sources' final states — so a differential mismatch below
     always names the guilty side first *)
  List.iter
    (fun (node, answer) ->
      if not (Bag.equal answer (Tutil.recompute env node)) then
        Alcotest.failf
          "%s seed %d (max_batch %d): final %s diverges from recompute"
          sc.f_name seed max_batch node)
    answers;
  {
    o_answers = answers;
    o_reflect =
      List.map
        (fun (src, _) ->
          (src, (Med.reflected_version med src).Med.r_version))
        sc.f_rels;
    o_report =
      Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
        ~events:(Mediator.events med) ();
  }

let require_consistent sc ~seed ~tag report =
  if not (Checker.consistent report) then
    Alcotest.failf "%s seed %d (%s): %s" sc.f_name seed tag
      (String.concat "; "
         (List.map
            (fun v -> v.Checker.v_detail)
            report.Checker.violations))

let diff_case sc =
  Alcotest.test_case sc.f_name `Slow (fun () ->
      let coalesced = ref false in
      for seed = 1 to 6 do
        let serial = run_once sc ~seed ~max_batch:1 in
        let batched = run_once sc ~seed ~max_batch:64 in
        require_consistent sc ~seed ~tag:"serial" serial.o_report;
        require_consistent sc ~seed ~tag:"batched" batched.o_report;
        (* the serial run really is one transaction per pass *)
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: serial batches are singletons"
             sc.f_name seed)
          serial.o_report.Checker.update_batches
          serial.o_report.Checker.batched_txs;
        if
          batched.o_report.Checker.batched_txs
          > batched.o_report.Checker.update_batches
        then coalesced := true;
        (* identical final stores, observed through every export *)
        List.iter
          (fun (node, b_answer) ->
            let s_answer = List.assoc node serial.o_answers in
            if not (Bag.equal s_answer b_answer) then
              Alcotest.failf
                "%s seed %d: final %s differs between batched and \
                 one-at-a-time"
                sc.f_name seed node)
          batched.o_answers;
        (* identical reflect vectors *)
        List.iter
          (fun (src, v) ->
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: reflect(%s)" sc.f_name seed src)
              (List.assoc src serial.o_reflect)
              v)
          batched.o_reflect
      done;
      if not !coalesced then
        Alcotest.failf
          "%s: no batch coalesced more than one transaction across any seed \
           — the differential test never exercised batching"
          sc.f_name)

(* ---- Med.take_batch queue discipline --------------------------------- *)

let fresh_mediator ?max_batch () =
  let env = Scenario.make_fig1 () in
  let config =
    match max_batch with
    | Some m -> Med.Config.make ~max_batch:m ()
    | None -> Med.Config.make ()
  in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config ()
  in
  (env, med)

(* an announcement whose delta covers versions (prev, version] *)
let update env ~source ~rel ~version ~prev =
  let schema = Adapter.schema (Scenario.source env source) rel in
  {
    Message.source;
    prev_version = prev;
    version;
    commit_time = 0.0;
    send_time = 0.0;
    delta = Multi_delta.singleton rel (Rel_delta.empty schema);
  }

let enqueue_all env med =
  List.iter (fun (source, rel, version, prev) ->
      Med.enqueue med (update env ~source ~rel ~version ~prev))

(* a snapshot that polled [source] at version [v] *)
let snapshot_at med source v = Med.after_snapshot med [ (source, v, 0.0) ]

let versions = List.map (fun e -> (e.Med.q_source, e.Med.q_version))

let chain source rel vs = List.map (fun v -> (source, rel, v, v - 1)) vs

let take_batch_cap () =
  let env, med = fresh_mediator ~max_batch:4 () in
  enqueue_all env med (chain "db1" "R" [ 1; 2; 3; 4; 5; 6 ]);
  let batch = Med.take_batch med in
  Alcotest.(check (list (pair string int)))
    "cap takes the head"
    [ ("db1", 1); ("db1", 2); ("db1", 3); ("db1", 4) ]
    (versions batch);
  Alcotest.(check int) "remainder stays queued" 2 (Med.queue_length med);
  (* once the IUP has applied the batch, the remainder chains on *)
  Alcotest.(check (list (pair string (pair int int))))
    "the batch covers one interval"
    [ ("db1", (0, 4)) ]
    (Med.after_batch med batch ~staged:[] ~affected:[]);
  Alcotest.(check (list (pair string int)))
    "in order"
    [ ("db1", 5); ("db1", 6) ]
    (versions (Med.take_batch med))

let take_batch_stale_drop () =
  let env, med = fresh_mediator ~max_batch:8 () in
  enqueue_all env med (chain "db1" "R" [ 1; 2; 3 ]);
  snapshot_at med "db1" 2;
  let batch = Med.take_batch med in
  Alcotest.(check (list (pair string int)))
    "already-reflected versions are dropped, the rest chains"
    [ ("db1", 3) ]
    (versions batch);
  Alcotest.(check int) "queue empty" 0 (Med.queue_length med)

(* Through [enqueue] a lost announcement marks its source dirty: the
   batch holds the source's entries back, clean sources flow past
   them, and the post-snapshot call drops what the snapshot covered
   and finds the source clean again. *)
let take_batch_gap_holds_back () =
  let env, med = fresh_mediator ~max_batch:8 () in
  enqueue_all env med
    [
      ("db1", "R", 1, 0);
      ("db1", "R", 3, 2);
      ("db2", "S", 1, 0);
      ("db1", "R", 4, 3);
    ];
  Alcotest.(check (list string)) "the gap marks db1" [ "db1" ]
    (Med.dirty_sources med);
  Alcotest.(check (list (pair string int)))
    "clean sources flow past the held-back entries"
    [ ("db2", 1) ]
    (versions (Med.take_batch med));
  Alcotest.(check int) "db1's entries stay queued" 3 (Med.queue_length med);
  Alcotest.(check (float 0.0)) "the depth gauge counts them" 3.0
    (List.assoc "queue_depth"
       (Obs.Metrics.snapshot (Mediator.metrics med)).Obs.Metrics.gauges);
  Alcotest.(check (list (pair string int))) "nothing more to take" []
    (versions (Med.take_batch med));
  (* a snapshot reflecting db1 at version 3 covers 1 and 3; 4 chains *)
  snapshot_at med "db1" 3;
  Alcotest.(check (list string)) "db1 clean after the resync" []
    (Med.dirty_sources med);
  Alcotest.(check (list (pair string int)))
    "its surviving entry flows"
    [ ("db1", 4) ]
    (versions (Med.take_batch med));
  Alcotest.(check int) "queue empty" 0 (Med.queue_length med)

let take_batch_multi_source () =
  let env, med = fresh_mediator ~max_batch:8 () in
  enqueue_all env med
    [ ("db1", "R", 1, 0); ("db2", "S", 1, 0); ("db1", "R", 2, 1) ];
  let batch = Med.take_batch med in
  Alcotest.(check (list (pair string int)))
    "sources chain independently in arrival order"
    [ ("db1", 1); ("db2", 1); ("db1", 2) ]
    (versions batch);
  Alcotest.(check int) "queue empty" 0 (Med.queue_length med)

(* Enqueueing a chaining announcement costs the same at any depth, and
   reading the depth allocates nothing. Tracing is off so only the
   queue's own words are counted. *)
let enqueue_constant_words () =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config:(Med.Config.make ~trace_enabled:false ())
      ()
  in
  let next = ref 0 in
  let words_per_enqueue n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      incr next;
      Med.enqueue med
        (update env ~source:"db1" ~rel:"R" ~version:!next ~prev:(!next - 1))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  ignore (words_per_enqueue 10 : float);
  let shallow = words_per_enqueue 100 in
  ignore (words_per_enqueue (10_000 - !next) : float);
  let deep = words_per_enqueue 100 in
  Alcotest.(check int) "depth" 10_100 (Mediator.queue_length med);
  if deep > shallow +. 8.0 then
    Alcotest.failf "words per enqueue grow with depth: %.1f at 10, %.1f at 10000"
      shallow deep;
  let w0 = Gc.minor_words () in
  let depth = Mediator.queue_length med in
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "depth read" 10_100 depth;
  Alcotest.(check (float 0.0)) "queue_length allocates nothing" 0.0 (w1 -. w0)

let unit_cases =
  [
    Alcotest.test_case "cap bounds the batch" `Quick take_batch_cap;
    Alcotest.test_case "stale entries are dropped" `Quick
      take_batch_stale_drop;
    Alcotest.test_case "a version gap holds the source back" `Quick
      take_batch_gap_holds_back;
    Alcotest.test_case "sources chain independently" `Quick
      take_batch_multi_source;
    Alcotest.test_case "enqueue costs constant words" `Quick
      enqueue_constant_words;
  ]

let () =
  Alcotest.run "batching"
    [
      ("take_batch queue discipline", unit_cases);
      ( "batched vs one-at-a-time (differential)",
        List.map diff_case scenarios );
    ]
