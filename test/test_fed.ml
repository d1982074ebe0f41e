(* Federation layer: partition routing, shard-merge semilattice laws,
   the export change stream, Sec. 3 order preservation across
   successive federation queries, and the differential guarantee — an
   N-shard federation answers exactly like one mediator over the
   unpartitioned data, including under chaos after reconvergence. *)

open Relalg
open Sim
open Sources
open Vdp
open Squirrel
open Fed

let diff_config = Med.Config.make ~op_time:0.0 ()

(* --- merge: meet-semilattice laws ------------------------------------- *)

let entry_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, return Med.Current);
        (4, map (fun v -> Med.Version v) (int_range 0 40));
      ])

let vector_gen =
  QCheck2.Gen.(
    list_size (int_range 0 5)
      (pair (oneofl [ "s1"; "s2"; "s3"; "s4" ]) entry_gen))

let vectors_gen = QCheck2.Gen.(list_size (int_range 0 5) vector_gen)

let meet_laws =
  [
    Tutil.qtest "meet_entry commutative"
      QCheck2.Gen.(pair entry_gen entry_gen)
      (fun (a, b) -> Merge.meet_entry a b = Merge.meet_entry b a);
    Tutil.qtest "meet_entry associative"
      QCheck2.Gen.(triple entry_gen entry_gen entry_gen)
      (fun (a, b, c) ->
        Merge.meet_entry (Merge.meet_entry a b) c
        = Merge.meet_entry a (Merge.meet_entry b c));
    Tutil.qtest "meet_entry idempotent" entry_gen (fun a ->
        Merge.meet_entry a a = a);
    Tutil.qtest "Current is the identity" entry_gen (fun a ->
        Merge.meet_entry Med.Current a = a && Merge.meet_entry a Med.Current = a);
  ]

let merge_reflect_laws =
  [
    Tutil.qtest "merge_reflect order-independent" vectors_gen (fun vs ->
        Merge.merge_reflect vs = Merge.merge_reflect (List.rev vs));
    Tutil.qtest "merge_reflect idempotent" vectors_gen (fun vs ->
        let m = Merge.merge_reflect vs in
        Merge.merge_reflect [ m; m ] = m);
    Tutil.qtest "empty contribution is the identity" vectors_gen (fun vs ->
        Merge.merge_reflect ([] :: vs) = Merge.merge_reflect vs);
  ]

let test_merge_degenerate () =
  Alcotest.(check int) "no shards" 0 (List.length (Merge.merge_reflect []));
  let v = [ ("b", Med.Version 3); ("a", Med.Current) ] in
  Alcotest.(check bool)
    "single shard canonicalized" true
    (Merge.merge_reflect [ v ]
    = [ ("a", Med.Current); ("b", Med.Version 3) ]);
  Alcotest.(check bool)
    "two shards meet at the minimum" true
    (Merge.merge_reflect
       [ [ ("a", Med.Version 7) ]; [ ("a", Med.Version 4); ("b", Med.Current) ] ]
    = [ ("a", Med.Version 4); ("b", Med.Current) ])

let test_merge_quality () =
  let stale src v age =
    { Med.st_source = src; st_version = v; st_age = age }
  in
  Alcotest.(check bool)
    "no contributions is fresh" true
    (Merge.merge_quality [] = Qp.Fresh);
  Alcotest.(check bool)
    "all fresh is fresh" true
    (Merge.merge_quality [ Qp.Fresh; Qp.Fresh ] = Qp.Fresh);
  (match
     Merge.merge_quality
       [
         Qp.Fresh;
         Qp.Stale [ stale "a" 5 1.0 ];
         Qp.Stale [ stale "a" 3 0.5; stale "b" 2 2.0 ];
       ]
   with
  | Qp.Fresh -> Alcotest.fail "stale contribution lost"
  | Qp.Stale markers ->
    Alcotest.(check (list string))
      "one marker per source, sorted" [ "a"; "b" ]
      (List.map (fun m -> m.Med.st_source) markers);
    Alcotest.(check int)
      "weakest version wins" 3
      (List.hd markers).Med.st_version);
  Alcotest.(check bool)
    "normalize is order-independent" true
    (Merge.normalize_stale [ stale "b" 1 0.0; stale "a" 2 0.0 ]
    = Merge.normalize_stale [ stale "a" 2 0.0; stale "b" 1 0.0 ])

(* --- partition -------------------------------------------------------- *)

let test_partition_split () =
  let shards = 4 in
  let items, _ = Fed_scenario.base_bags ~seed:3 ~keys:100 ~groups:8 in
  let parts = Partition.split_bag ~shards ~key:"k" items in
  Alcotest.(check int) "one part per shard" shards (Array.length parts);
  Tutil.check_bag "parts reassemble the bag"
    items
    (Array.fold_left Bag.union (Bag.empty (Bag.schema items)) parts);
  Array.iteri
    (fun i part ->
      Bag.iter
        (fun t _ ->
          Alcotest.(check int)
            "tuple lives on its owner" i
            (Partition.owner ~shards (Tuple.get t "k")))
        part)
    parts

let test_partition_targets () =
  let shards = 4 in
  let targets cond = Partition.targets ~shards ~key:"k" cond in
  let owner k = Partition.owner ~shards (Value.Int k) in
  let check name expected cond =
    Alcotest.(check bool) name true (targets cond = expected)
  in
  check "unconstrained scans everywhere" Partition.All_shards Predicate.True;
  check "key equality routes to the owner"
    (Partition.Some_shards [ owner 5 ])
    Predicate.(eq (attr "k") (int 5));
  check "flipped equality too"
    (Partition.Some_shards [ owner 5 ])
    Predicate.(eq (int 5) (attr "k"));
  check "conjunction keeps the bound key"
    (Partition.Some_shards [ owner 5 ])
    Predicate.(And (eq (attr "k") (int 5), ge (attr "amt") (int 3)));
  check "disjunction unions the owners"
    (Partition.Some_shards
       (List.sort_uniq compare [ owner 5; owner 9 ]))
    Predicate.(Or (eq (attr "k") (int 5), And (eq (attr "k") (int 9), ge (attr "amt") (int 3))));
  check "a key set routes to its owners"
    (Partition.Some_shards
       (List.sort_uniq compare [ owner 5; owner 9; owner 12 ]))
    (Predicate.one_of "k" Value.[ Int 12; Int 5; Int 9 ]);
  check "disjunction with an unbound side scans"
    Partition.All_shards
    Predicate.(Or (eq (attr "k") (int 5), ge (attr "amt") (int 3)));
  check "contradiction targets nothing" (Partition.Some_shards [])
    Predicate.False;
  check "other attributes don't route" Partition.All_shards
    Predicate.(eq (attr "grp") (int 2))

(* --- systems under test ------------------------------------------------ *)

let load_sources sources items tags =
  List.iter
    (fun s ->
      match Adapter.name s with
      | "dbItems" -> Adapter.load s "Items" items
      | _ -> Adapter.load s "Tags" tags)
    sources

let small_spec =
  {
    Fed_workload.w_seed = 7;
    w_keys = 1024;
    w_groups = 8;
    w_txs = 128;
    w_queries = 24;
    w_commit_start = 1.0;
    w_commit_horizon = 4.0;
    w_query_start = 1.25;
    w_query_horizon = 4.0;
  }

(* the single-mediator side of the differential: commits go to the
   owning source (each relation has its own), quiescence is the
   coordinator's loop over one mediator *)
let single_sys ~engine ~sources med =
  let quiesce () =
    let slice = 2.0 *. diff_config.Med.Config.flush_interval in
    let rec go rounds stable last_msgs =
      if rounds > 100_000 then Alcotest.fail "single mediator: no quiescence";
      Engine.run engine ~until:(Engine.now engine +. slice);
      let msgs = Obs.Metrics.value (Mediator.stats med).Med.messages_received in
      let quiet = Mediator.queue_length med = 0 && msgs = last_msgs in
      if quiet && stable >= 2 then ()
      else go (rounds + 1) (if quiet then stable + 1 else 0) msgs
    in
    go 0 0 (-1)
  in
  let commit md =
    List.iter
      (fun (rel, d) ->
        let src = Graph.source_of_leaf med.Med.vdp rel in
        let adapter = List.find (fun a -> Adapter.name a = src) sources in
        Adapter.commit adapter (Delta.Multi_delta.singleton rel d))
      (Delta.Multi_delta.bindings md)
  in
  {
    Fed_workload.s_commit = commit;
    s_query =
      (fun ~node ?attrs ?cond () -> Mediator.query med ~node ?attrs ?cond ());
    s_quiesce = quiesce;
  }

let run_single spec =
  let engine = Engine.create () in
  let vdp = Fed_scenario.fed_vdp () in
  let sources = Fed_scenario.make_sources ~engine () in
  let med =
    Mediator.create ~engine ~vdp
      ~annotation:(Annotation.fully_materialized vdp)
      ~config:diff_config
      ~sources:(List.map Adapter.db sources)
      ()
  in
  Mediator.connect med ();
  let items, tags =
    Fed_scenario.base_bags ~seed:spec.Fed_workload.w_seed
      ~keys:spec.Fed_workload.w_keys ~groups:spec.Fed_workload.w_groups
  in
  load_sources sources items tags;
  Engine.spawn engine (fun () -> Mediator.initialize med);
  Engine.run engine ~until:1.0;
  Fed_workload.run ~engine ~spec (single_sys ~engine ~sources med)

let make_fed ?(config = diff_config) ~shards spec =
  let engine = Engine.create () in
  let fed =
    Coordinator.create ~engine
      ~vdp:(Fed_scenario.fed_vdp ())
      ~key:Fed_scenario.partition_key ~shards
      ~make_sources:(fun ~shard:_ -> Fed_scenario.make_sources ~engine ())
      ~config ()
  in
  let items, tags =
    Fed_scenario.base_bags ~seed:spec.Fed_workload.w_seed
      ~keys:spec.Fed_workload.w_keys ~groups:spec.Fed_workload.w_groups
  in
  Coordinator.load fed "Items" items;
  Coordinator.load fed "Tags" tags;
  Engine.spawn engine (fun () -> Coordinator.initialize fed);
  Engine.run engine ~until:1.0;
  (engine, fed)

let run_fed ~shards spec =
  let engine, fed = make_fed ~shards spec in
  Fed_workload.run ~engine ~spec (Fed_workload.of_fed fed)

let is_fresh (a : Qp.answer) =
  match a.Qp.quality with Qp.Fresh -> true | Qp.Stale _ -> false

(* --- differential: N shards ≡ one mediator ----------------------------- *)

let check_outcome_equal name (ref_out : Fed_workload.outcome)
    (out : Fed_workload.outcome) =
  Array.iteri
    (fun j (kind, (a : Qp.answer)) ->
      let kind', (b : Qp.answer) = out.Fed_workload.o_answers.(j) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: query %d plan agrees" name j)
        true (kind = kind');
      Tutil.check_bag (Printf.sprintf "%s: query %d tuples" name j) a.Qp.tuples
        b.Qp.tuples;
      Alcotest.(check bool)
        (Printf.sprintf "%s: query %d freshness" name j)
        (is_fresh a) (is_fresh b))
    ref_out.Fed_workload.o_answers;
  List.iter2
    (fun (n, (a : Qp.answer)) (n', (b : Qp.answer)) ->
      Alcotest.(check string) (name ^ ": final node") n n';
      Tutil.check_bag (Printf.sprintf "%s: final %s" name n) a.Qp.tuples
        b.Qp.tuples;
      Alcotest.(check bool)
        (Printf.sprintf "%s: final %s freshness" name n)
        (is_fresh a) (is_fresh b))
    ref_out.Fed_workload.o_finals out.Fed_workload.o_finals

let test_differential () =
  let reference = run_single small_spec in
  Alcotest.(check bool)
    "reference finals fresh" true
    (List.for_all (fun (_, a) -> is_fresh a) reference.Fed_workload.o_finals);
  List.iter
    (fun shards ->
      check_outcome_equal
        (Printf.sprintf "%d-shard" shards)
        reference
        (run_fed ~shards small_spec))
    [ 1; 2; 4 ]

(* --- export change stream ---------------------------------------------- *)

let test_export_stream () =
  let engine = Engine.create () in
  let vdp = Fed_scenario.fed_vdp () in
  let sources = Fed_scenario.make_sources ~engine () in
  let med =
    Mediator.create ~engine ~vdp
      ~annotation:(Annotation.fully_materialized vdp)
      ~config:diff_config
      ~sources:(List.map Adapter.db sources)
      ()
  in
  Mediator.connect med ();
  let items, tags = Fed_scenario.base_bags ~seed:1 ~keys:50 ~groups:4 in
  load_sources sources items tags;
  let deltas = ref [] and snapshots = ref 0 in
  Mediator.subscribe med (function
    | Med.Update_tx { ut_txs = 0; _ } -> incr snapshots
    | Med.Update_tx { ut_exports; ut_reflect; _ } ->
      deltas := (List.map fst ut_exports, List.map fst ut_reflect) :: !deltas
    | Med.Query_tx _ -> ());
  Engine.spawn engine (fun () -> Mediator.initialize med);
  Engine.run engine ~until:1.0;
  Alcotest.(check (list string))
    "exports carry both view schemas"
    [ "Enriched"; "Hot" ]
    (List.sort compare (List.map fst (Med.export_schemas med)));
  (* replace key 0's item with a hot amount: both exports change *)
  let db_items = List.hd sources in
  let old_item =
    List.find
      (fun t -> Tuple.get t "k" = Value.Int 0)
      (Bag.support (Adapter.current db_items "Items"))
  in
  let new_item =
    Tuple.of_list
      [ ("k", Value.Int 0); ("grp", Value.Int 0); ("amt", Value.Int 99) ]
  in
  Adapter.commit db_items
    (Delta.Multi_delta.singleton "Items"
       (Delta.Rel_delta.insert
          (Delta.Rel_delta.delete
             (Delta.Rel_delta.empty Fed_scenario.schema_items)
             old_item)
          new_item));
  let sys = single_sys ~engine ~sources med in
  sys.Fed_workload.s_quiesce ();
  (match !deltas with
  | [ (nodes, reflect) ] ->
    Alcotest.(check bool)
      "delta names the changed exports" true
      (List.mem "Enriched" nodes);
    Alcotest.(check (list string))
      "reflect covers every source" [ "dbItems"; "dbTags" ]
      (List.sort compare reflect)
  | evs ->
    Alcotest.failf "expected exactly one export delta, saw %d"
      (List.length evs));
  Alcotest.(check int) "no snapshot in a clean run" 0 !snapshots

(* --- federation answers keep Sec. 3 order preservation ----------------- *)

(* [a] reflects at least what [b] does: a later version, or the
   source's current state *)
let reflects_at_least a b =
  match (a, b) with
  | Med.Current, _ -> true
  | Med.Version _, Med.Current -> false
  | Med.Version x, Med.Version y -> x >= y

let test_fed_order_preservation () =
  (* one shard, so the federation answer is the shard's answer: a later
     Hot query must not reflect less than an earlier Enriched one, nor
     claim a tighter freshness bound than the shard itself gives *)
  let spec =
    { small_spec with Fed_workload.w_seed = 1; w_keys = 64; w_txs = 0 }
  in
  let engine, fed = make_fed ~shards:1 spec in
  let fed_query node =
    Engine.run_process engine (fun () -> Coordinator.query fed ~node ())
  in
  let route d =
    Engine.run_process engine (fun () ->
        Coordinator.commit fed (Delta.Multi_delta.singleton "Items" d));
    Coordinator.run_to_quiescence fed
  in
  let items = Delta.Rel_delta.empty Fed_scenario.schema_items in
  let item k amt =
    Tuple.of_list [ ("k", Value.Int k); ("grp", Value.Int 0); ("amt", Value.Int amt) ]
  in
  ignore (fed_query "Hot");
  (* an item below the Hot threshold: dbItems moves on, Hot's contents
     do not *)
  route (Delta.Rel_delta.insert items (item 64 (Fed_scenario.hot_threshold - 1)));
  let enriched = fed_query "Enriched" in
  let own =
    Engine.run_process engine (fun () ->
        Mediator.query (Coordinator.mediator fed 0) ~node:"Hot" ())
  in
  let hot = fed_query "Hot" in
  List.iter
    (fun (src, e) ->
      Alcotest.(check bool)
        (src ^ ": Hot reflects at least what Enriched did")
        true
        (reflects_at_least (List.assoc src hot.Qp.reflect) e))
    enriched.Qp.reflect;
  List.iter
    (fun (src, b) ->
      Alcotest.(check bool)
        (src ^ ": bound no tighter than the shard's own")
        true
        (List.assoc src hot.Qp.bound >= b))
    own.Qp.bound;
  (* a routed update that enters Hot is served *)
  let old_item =
    List.find
      (fun t -> Tuple.get t "k" = Value.Int 0)
      (Bag.support
         (fst (Fed_scenario.base_bags ~seed:1 ~keys:64 ~groups:8)))
  in
  let hot_item = item 0 99 in
  route (Delta.Rel_delta.insert (Delta.Rel_delta.delete items old_item) hot_item);
  Alcotest.(check bool)
    "the new hot tuple is served" true
    (Bag.mult (fed_query "Hot").Qp.tuples hot_item >= 1)

(* --- chaos cells ------------------------------------------------------- *)

let check_fed_cell profile seed =
  let r = Chaos_run.run_federation ~profile ~seed in
  if not (Chaos_run.fed_passed r) then
    Alcotest.failf
      "federation %s cell failed (seed %d): converged=%b final_fresh=%b \
       resyncs=%d outage: %d queries / %d stale / %d foreign markers%s"
      profile seed r.Chaos_run.f_converged r.Chaos_run.f_final_fresh
      r.Chaos_run.f_resyncs r.Chaos_run.f_outage_queries
      r.Chaos_run.f_outage_stale r.Chaos_run.f_bad_markers
      (if r.Chaos_run.f_note = "" then "" else "; " ^ r.Chaos_run.f_note)

let test_chaos_kill () = check_fed_cell "kill" 11
let test_chaos_partition () = check_fed_cell "partition" 11

let () =
  Alcotest.run "fed"
    [
      ( "merge",
        meet_laws @ merge_reflect_laws
        @ [
            Alcotest.test_case "degenerate merges" `Quick test_merge_degenerate;
            Alcotest.test_case "quality merge" `Quick test_merge_quality;
          ] );
      ( "partition",
        [
          Alcotest.test_case "split by ownership" `Quick test_partition_split;
          Alcotest.test_case "predicate targeting" `Quick
            test_partition_targets;
        ] );
      ( "federation",
        [
          Alcotest.test_case "differential vs one mediator" `Quick
            test_differential;
          Alcotest.test_case "export change stream" `Quick test_export_stream;
          Alcotest.test_case "order preservation across exports" `Quick
            test_fed_order_preservation;
          Alcotest.test_case "chaos: shard kill" `Quick test_chaos_kill;
          Alcotest.test_case "chaos: network partition" `Quick
            test_chaos_partition;
        ] );
    ]
