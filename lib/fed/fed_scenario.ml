open Relalg
open Sources
open Vdp

let partition_key = "k"

let schema_items =
  Schema.make ~key:[ "k" ]
    [ ("k", Value.TInt); ("grp", Value.TInt); ("amt", Value.TInt) ]

let schema_tags =
  Schema.make ~key:[ "k" ] [ ("k", Value.TInt); ("tag", Value.TInt) ]

let hot_threshold = 90

let fed_vdp () =
  let b =
    Builder.create
      ~source_of:(function
        | "Items" -> Some "dbItems" | "Tags" -> Some "dbTags" | _ -> None)
      ~schema_of:(function
        | "Items" -> Some schema_items
        | "Tags" -> Some schema_tags
        | _ -> None)
      ()
  in
  Builder.add_export b ~name:"Enriched"
    Expr.(
      project [ "k"; "grp"; "amt"; "tag" ] (join (base "Items") (base "Tags")));
  Builder.add_export b ~name:"Hot"
    Expr.(
      select Predicate.(ge (attr "amt") (int hot_threshold)) (base "Items"));
  Builder.build b

let make_sources ~engine ?(announce = Source_db.Immediate) () =
  [
    Adapter.relational
      (Source_db.create ~engine ~name:"dbItems"
         ~relations:[ ("Items", schema_items) ]
         ~announce ());
    Adapter.relational
      (Source_db.create ~engine ~name:"dbTags"
         ~relations:[ ("Tags", schema_tags) ]
         ~announce ());
  ]

(* Deterministic base state: key k carries a random group, amount and
   tag — one draw sequence, so every system built from the same seed
   loads identical relations regardless of shard count. *)
let base_bags ~seed ~keys ~groups =
  let rng = Workload.Datagen.state seed in
  let items = ref (Bag.empty schema_items) in
  let tags = ref (Bag.empty schema_tags) in
  for k = 0 to keys - 1 do
    let grp = Random.State.int rng groups in
    let amt = Random.State.int rng 100 in
    let tag = Random.State.int rng 1000 in
    items :=
      Bag.add !items
        (Tuple.of_list
           [ ("k", Value.Int k); ("grp", Value.Int grp); ("amt", Value.Int amt) ]);
    tags :=
      Bag.add !tags
        (Tuple.of_list [ ("k", Value.Int k); ("tag", Value.Int tag) ])
  done;
  (!items, !tags)
