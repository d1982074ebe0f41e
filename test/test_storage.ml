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

(* [Hash_index] against a list model: random of_bag/add/remove/probe
   runs over keys that include Null and the equal keys Int 1 and
   Float 1., multiplicities above 1, removals of absent tuples and of
   more copies than held (monus), and, in some runs, one key holding
   10^4 rows. After every probe and at the end of a run, every probe,
   the distinct-key count and the longest chain agree with the model. *)
type ix_op = Ix_add of int * int * int | Ix_remove of int * int * int | Ix_probe of int

let ix_keys = Value.[| Null; Int 1; Float 1.; Int 2; Int 3; Int 9 |]
let crowded_key = 5 (* [Int 9]: 10^4 rows in a crowded run *)
let crowd = 10_000
let ix_schema = Schema.make [ ("k", Value.TInt); ("x", Value.TInt) ]
let ix_tuple = Tuple.maker [ "k"; "x" ]

(* a crowded key's rows are spread over its whole chain *)
let ix_row k x =
  ix_tuple [ ix_keys.(k); Value.Int (if k = crowded_key then x * 1999 else x) ]

let ix_gen =
  let open QCheck2.Gen in
  let atom = triple (int_bound 5) (int_bound 5) (int_range 1 3) in
  let op =
    oneof
      [
        map (fun (k, x, m) -> Ix_add (k, x, m)) atom;
        map (fun (k, x, m) -> Ix_remove (k, x, m)) atom;
        map (fun k -> Ix_probe k) (int_bound 5);
      ]
  in
  quad (list_size (int_bound 30) atom) (frequency [ (3, pure false); (1, pure true) ])
    bool (list_size (int_bound 60) op)

let ix_print (rows, crowded, bulk, ops) =
  let atom (k, x, m) = Printf.sprintf "(%d,%d,%d)" k x m in
  Printf.sprintf "rows=[%s] crowded=%b bulk=%b ops=[%s]"
    (String.concat ";" (List.map atom rows))
    crowded bulk
    (String.concat ";"
       (List.map
          (function
            | Ix_add (k, x, m) -> "+" ^ atom (k, x, m)
            | Ix_remove (k, x, m) -> "-" ^ atom (k, x, m)
            | Ix_probe k -> Printf.sprintf "?%d" k)
          ops))

(* the model: (tuple, multiplicity) pairs, multiplicities positive *)
let model_add model t m =
  if List.exists (fun (u, _) -> Tuple.equal u t) model then
    List.map (fun (u, n) -> if Tuple.equal u t then (u, n + m) else (u, n)) model
  else (t, m) :: model

let model_remove model t m =
  List.filter_map
    (fun (u, n) ->
      if not (Tuple.equal u t) then Some (u, n)
      else if n > m then Some (u, n - m)
      else None)
    model

let key_of t = Tuple.get t "k"
let sorted l = List.sort (fun (a, _) (b, _) -> Tuple.compare a b) l

let model_probe model v =
  sorted (List.filter (fun (u, _) -> Value.equal (key_of u) v) model)

let index_probe ix v =
  let acc = ref [] in
  Hash_index.probe ix v (fun t m -> acc := (t, m) :: !acc);
  sorted !acc

let same_rows a b =
  List.length a = List.length b
  && List.for_all2 (fun (t, m) (u, n) -> Tuple.equal t u && m = n) a b

let model_keys model =
  List.fold_left
    (fun acc (u, _) ->
      if List.exists (Value.equal (key_of u)) acc then acc else key_of u :: acc)
    [] model

let model_max_chain model =
  List.fold_left
    (fun acc v ->
      max acc (List.length (List.filter (fun (u, _) -> Value.equal (key_of u) v) model)))
    0 (model_keys model)

let ix_agrees (rows, crowded, bulk, ops) =
  let bu = Bag.builder ix_schema in
  List.iter (fun (k, x, m) -> Bag.badd bu (ix_row k x) m) rows;
  if crowded then
    for x = 0 to crowd - 1 do
      Bag.badd bu (ix_tuple [ ix_keys.(crowded_key); Value.Int x ]) (1 + (x mod 3))
    done;
  let bag = Bag.seal bu in
  let ix =
    if bulk then Hash_index.of_bag "k" bag
    else begin
      let ix = Hash_index.create "k" in
      Bag.iter (Hash_index.add ix) bag;
      ix
    end
  in
  let model = ref (Bag.fold (fun t m acc -> (t, m) :: acc) bag []) in
  let probe_agrees v = same_rows (model_probe !model v) (index_probe ix v) in
  List.for_all
    (function
      | Ix_add (k, x, m) ->
        Hash_index.add ix (ix_row k x) m;
        model := model_add !model (ix_row k x) m;
        true
      | Ix_remove (k, x, m) ->
        Hash_index.remove ix (ix_row k x) m;
        model := model_remove !model (ix_row k x) m;
        true
      | Ix_probe k -> probe_agrees ix_keys.(k))
    ops
  && Array.for_all probe_agrees ix_keys
  && Hash_index.distinct ix = List.length (model_keys !model)
  && Hash_index.max_chain ix = model_max_chain !model

let test_hash_index_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"hash index = list model" ~count:150 ~print:ix_print
       ix_gen ix_agrees)

(* Once an index has room, a write allocates nothing: removals, adds
   back, adds of new tuples (into the rows the removals freed), count
   changes, and all of them on a key holding 10^4 rows as well *)
let test_hash_index_writes_allocate_nothing () =
  let n = 2_000 in
  let bu = Bag.builder ix_schema in
  for x = 0 to crowd - 1 do
    Bag.badd bu (ix_tuple Value.[ Int 9; Int x ]) 1
  done;
  for x = 0 to n - 1 do
    Bag.badd bu (ix_tuple Value.[ Int (100 + x); Int x ]) 1
  done;
  let ix = Hash_index.of_bag "k" (Bag.seal bu) in
  let crowded = Array.init crowd (fun x -> ix_tuple Value.[ Int 9; Int x ]) in
  let unique = Array.init n (fun x -> ix_tuple Value.[ Int (100 + x); Int x ]) in
  let fresh = Array.init n (fun x -> ix_tuple Value.[ Int (100 + x); Int (-x) ]) in
  (* tuples cache their hash at first use *)
  Array.iter (fun a -> Array.iter (fun t -> ignore (Tuple.hash t : int)) a)
    [| crowded; unique; fresh |];
  let w0 = Gc.minor_words () in
  for x = 0 to n - 1 do
    Hash_index.remove ix crowded.(x * 5) 1;
    Hash_index.remove ix unique.(x) 1;
    Hash_index.add ix fresh.(x) 2;
    Hash_index.add ix fresh.(x) 1;
    Hash_index.remove ix fresh.(x) 4;
    Hash_index.add ix crowded.(x * 5) 3;
    Hash_index.add ix unique.(x) 1;
    Hash_index.remove ix crowded.(x * 5) 2
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "words allocated by index writes" 0.0 (w1 -. w0);
  let count v =
    let c = ref 0 in
    Hash_index.probe ix v (fun _ m -> c := !c + m);
    !c
  in
  Alcotest.(check int) "the crowded key's count" crowd (count (Value.Int 9));
  Alcotest.(check (pair int int)) "distinct keys, longest chain" (n + 1, crowd)
    (Hash_index.distinct ix, Hash_index.max_chain ix)

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
        [
          Alcotest.test_case "of_bag = adds" `Quick test_hash_index_of_bag_equals_adds;
          test_hash_index_model;
          Alcotest.test_case "writes allocate nothing" `Quick
            test_hash_index_writes_allocate_nothing;
        ] );
      ( "store",
        [
          Alcotest.test_case "catalog" `Quick test_store_catalog;
          Alcotest.test_case "env and bytes" `Quick test_store_env_and_bytes;
        ] );
    ]
