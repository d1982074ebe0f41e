(* Tests for the mediator-local store: indexed tables and the
   mediator's table catalog. *)

open Relalg
open Delta
open Storage
open Tutil

(* the stored tuples [Table.probe] finds under one value *)
let probed t attr v =
  let acc = ref (Bag.empty (Table.schema t)) in
  Table.probe t attr v (fun tuple m -> acc := Bag.add ~mult:m !acc tuple);
  !acc

let test_table_basic () =
  let t = Table.create ~name:"S" schema_s in
  Table.insert t (s_tuple 1 2 3);
  Table.insert ~mult:2 t (s_tuple 4 5 6);
  Alcotest.(check int) "cardinal" 3 (Bag.cardinal (Table.contents t));
  Alcotest.(check int) "support" 2 (Table.support_cardinal t);
  Alcotest.(check int) "mult" 2 (Table.mult t (s_tuple 4 5 6));
  Table.delete t (s_tuple 4 5 6);
  Alcotest.(check int) "after delete" 1 (Table.mult t (s_tuple 4 5 6));
  Table.delete ~mult:10 t (s_tuple 4 5 6);
  Alcotest.(check int) "monus clamps" 0 (Table.mult t (s_tuple 4 5 6))

let test_table_key_index () =
  let t = Table.create ~name:"S" schema_s in
  for i = 0 to 9 do
    Table.insert t (s_tuple i (i * 10) (i * 3))
  done;
  Alcotest.(check bool) "key indexed" true (Table.has_index_on t "s1");
  let hit = probed t "s1" (Value.Int 4) in
  Alcotest.(check int) "indexed probe" 1 (Bag.cardinal hit);
  Alcotest.(check bool) "right tuple" true (Bag.mem hit (s_tuple 4 40 12));
  let miss = probed t "s1" (Value.Int 99) in
  Alcotest.(check int) "miss" 0 (Bag.cardinal miss)

let test_table_secondary_index () =
  let t = Table.create ~indexes:[ "s2" ] ~name:"S" schema_s in
  Table.insert t (s_tuple 1 7 0);
  Table.insert t (s_tuple 2 7 0);
  Table.insert t (s_tuple 3 8 0);
  Alcotest.(check bool) "secondary index" true (Table.has_index_on t "s2");
  Alcotest.(check int) "two matches" 2 (Bag.cardinal (probed t "s2" (Value.Int 7)))

let test_table_scan_fallback () =
  let t = Table.create ~name:"S" schema_s in
  Table.insert t (s_tuple 1 7 0);
  Table.insert t (s_tuple 2 7 0);
  (* no index on s3: a probe is refused, and a join on s3 is left to
     the caller's generic join over the scanned contents *)
  Alcotest.(check bool) "no index" false (Table.has_index_on t "s3");
  (try
     Table.probe t "s3" (Value.Int 0) (fun _ _ -> ());
     Alcotest.fail "expected Table_error"
   with Table.Table_error _ -> ());
  let d = Rel_delta.insert (Rel_delta.empty schema_r) (r_tuple 1 0 0 0) in
  let on = Predicate.(eq (attr "r2") (attr "s3")) in
  Alcotest.(check bool) "delta_join declines" true
    (Option.is_none (Table.delta_join t ~left:(Rel_delta.schema d) ~on ()))

let test_table_index_maintained_through_deletes () =
  let t = Table.create ~name:"S" schema_s in
  Table.insert t (s_tuple 1 2 3);
  Table.delete t (s_tuple 1 2 3);
  Alcotest.(check int)
    "index entry removed" 0
    (Bag.cardinal (probed t "s1" (Value.Int 1)))

let test_table_apply_delta_and_load () =
  let t = Table.create ~name:"S" schema_s in
  Table.load t (Bag.of_tuples schema_s [ s_tuple 1 2 3; s_tuple 4 5 6 ]);
  let d =
    Rel_delta.insert
      (Rel_delta.delete (Rel_delta.empty schema_s) (s_tuple 1 2 3))
      (s_tuple 7 8 9)
  in
  Table.apply_delta t d;
  check_bag "delta applied"
    (Bag.of_tuples schema_s [ s_tuple 4 5 6; s_tuple 7 8 9 ])
    (Table.contents t);
  Alcotest.(check int)
    "index consistent after load+delta" 1
    (Bag.cardinal (probed t "s1" (Value.Int 7)))

let test_table_rejects_bad_tuple () =
  let t = Table.create ~name:"S" schema_s in
  try
    Table.insert t (Tuple.of_list [ ("x", Value.Int 1) ]);
    Alcotest.fail "expected Bag_error"
  with Bag.Bag_error _ -> ()

(* The mediator keeps the catalog itself: one table per node with a
   materialized attribute, holding the projection onto those
   attributes (Example 2.3's annotation over Figure 1). *)
let ex23_mediator () =
  let env = Workload.Scenario.make_fig1 () in
  let med =
    Workload.Scenario.mediator env
      ~annotation:(Workload.Scenario.ann_ex23 env.Workload.Scenario.vdp)
      ()
  in
  (env, med)

let test_store_catalog () =
  let _, med = ex23_mediator () in
  let vdp = med.Squirrel.Med.vdp in
  let names =
    List.filter_map
      (fun (n : Vdp.Graph.node) ->
        Option.map (fun _ -> n.Vdp.Graph.name)
          (Squirrel.Med.node_table med n.Vdp.Graph.name))
      (Vdp.Graph.nodes vdp)
  in
  Alcotest.(check (list string)) "names"
    (List.filter
       (fun n -> Squirrel.Med.mat_attrs med n <> [])
       (List.map (fun (n : Vdp.Graph.node) -> n.Vdp.Graph.name)
          (Vdp.Graph.non_leaves vdp)))
    names;
  List.iter
    (fun n ->
      let table = Option.get (Squirrel.Med.node_table med n) in
      Alcotest.(check (list string))
        (n ^ " holds its materialized attributes")
        (Squirrel.Med.mat_attrs med n)
        (Schema.attrs (Table.schema table)))
    names;
  Alcotest.(check bool) "a leaf has no table" true
    (Squirrel.Med.node_table med "R" = None)

let test_store_env_and_bytes () =
  let env, med = ex23_mediator () in
  let engine = env.Workload.Scenario.engine in
  Sim.Engine.spawn engine (fun () -> Squirrel.Mediator.initialize med);
  Sim.Engine.run engine ~until:(Sim.Engine.now engine +. 5.0);
  let table = Option.get (Squirrel.Med.node_table med "T") in
  (match Squirrel.Med.store_env med "T" with
  | Some b ->
    Alcotest.(check int) "env view" (Bag.cardinal (Table.contents table))
      (Bag.cardinal b)
  | None -> Alcotest.fail "expected table");
  Alcotest.(check bool) "absent" true (Squirrel.Med.store_env med "NOPE" = None);
  Alcotest.(check bool) "bytes counted" true
    (Squirrel.Mediator.store_bytes med > 0)

(* [Hash_index.of_bag] builds in bulk what adding the bag's tuples one
   by one builds: over random bags whose key column holds Null,
   duplicate multiplicities, several tuples per key and the equal keys
   Int 1 and Float 1., every probe, the distinct-key count and the
   longest chain agree *)
let test_hash_index_of_bag_equals_adds () =
  let schema =
    Schema.make [ ("k", Value.TInt); ("x", Value.TInt) ]
  in
  let keys = Value.[ Null; Int 1; Float 1.; Int 2; Int 3 ] in
  let pick rng l = List.nth l (Random.State.int rng (List.length l)) in
  let rng = Random.State.make [| 24 |] in
  for case = 1 to 200 do
    let bu = Bag.builder schema in
    for _ = 1 to Random.State.int rng 40 do
      Bag.badd bu
        (Tuple.of_list [ ("k", pick rng keys); ("x", Value.Int (Random.State.int rng 4)) ])
        (1 + Random.State.int rng 3)
    done;
    let bag = Bag.seal bu in
    let bulk = Hash_index.of_bag "k" bag in
    let added = Hash_index.create "k" in
    Bag.iter (Hash_index.add added) bag;
    let rows ix v =
      let acc = ref [] in
      Hash_index.probe ix v (fun t m -> acc := (Tuple.to_string t, m) :: !acc);
      List.sort compare !acc
    in
    List.iter
      (fun v ->
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "case %d: probe %s" case (Value.to_string v))
          (rows added v) (rows bulk v))
      keys;
    Alcotest.(check (pair int int))
      (Printf.sprintf "case %d: distinct keys, longest chain" case)
      (Hash_index.distinct added, Hash_index.max_chain added)
      (Hash_index.distinct bulk, Hash_index.max_chain bulk)
  done

let () =
  Alcotest.run "storage"
    [
      ( "table",
        [
          Alcotest.test_case "basic" `Quick test_table_basic;
          Alcotest.test_case "key index" `Quick test_table_key_index;
          Alcotest.test_case "secondary index" `Quick test_table_secondary_index;
          Alcotest.test_case "scan fallback" `Quick test_table_scan_fallback;
          Alcotest.test_case "index through deletes" `Quick test_table_index_maintained_through_deletes;
          Alcotest.test_case "apply delta / load" `Quick test_table_apply_delta_and_load;
          Alcotest.test_case "rejects bad tuples" `Quick test_table_rejects_bad_tuple;
        ] );
      ( "hash index",
        [ Alcotest.test_case "of_bag = adds" `Quick test_hash_index_of_bag_equals_adds ] );
      ( "store",
        [
          Alcotest.test_case "catalog" `Quick test_store_catalog;
          Alcotest.test_case "env and bytes" `Quick test_store_env_and_bytes;
        ] );
    ]
