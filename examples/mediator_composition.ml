(* Mediators compose: a mediator's exports can themselves be mirrored
   into a source database (Med_source), so a parent
   mediator integrates them exactly like any other source — the
   paper's composability claim made executable.

   The topology here is a two-tier integration:

     dbEast --> [child East] --BigEast--+
                                        +--> [parent] AllBig
     dbWest --> [child West] --BigWest--+

   Each regional child filters its own orders database down to the
   big-ticket orders; the parent unions the two regional exports.
   Updates are committed only at the bottom (the children's own
   sources) and ripple up two tiers: child update transaction ->
   export delta -> mirrored source version -> announcement -> parent
   update transaction. The Sec. 3 checker then audits the parent's
   answers against the mirrored source histories.

   Run with: dune exec examples/mediator_composition.exe *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Workload
open Delta

let section title = Printf.printf "\n=== %s ===\n%!" title

let schema_orders =
  Schema.make ~key:[ "oid" ]
    [ ("oid", Value.TInt); ("cust", Value.TInt); ("amt", Value.TInt) ]

let order oid cust amt =
  Tuple.of_list
    [ ("oid", Value.Int oid); ("cust", Value.Int cust); ("amt", Value.Int amt) ]

(* a regional child: one orders database, one filtered export *)
let make_child ~engine ~region ~relation ~export ~rows =
  let db =
    Source_db.create ~engine ~name:("db" ^ region)
      ~relations:[ (relation, schema_orders) ]
      ~announce:Source_db.Immediate ()
  in
  Source_db.load db relation (Bag.of_tuples schema_orders rows);
  let b =
    Builder.create
      ~source_of:(fun r -> if r = relation then Some ("db" ^ region) else None)
      ~schema_of:(fun r -> if r = relation then Some schema_orders else None)
      ()
  in
  Builder.add_export b ~name:export
    (Parser.expr (Printf.sprintf "select amt >= 100 (%s)" relation));
  let vdp = Builder.build b in
  let med =
    Mediator.create ~engine ~vdp
      ~annotation:(Annotation.fully_materialized vdp)
      ~sources:[ db ] ()
  in
  Mediator.connect med ();
  (db, med)

let () =
  let engine = Engine.create () in

  section "Tier 1: two regional child mediators";
  let db_east, child_east =
    make_child ~engine ~region:"East" ~relation:"OrdersE" ~export:"BigEast"
      ~rows:[ order 1 7 250; order 2 8 40; order 3 7 120 ]
  in
  let db_west, child_west =
    make_child ~engine ~region:"West" ~relation:"OrdersW" ~export:"BigWest"
      ~rows:[ order 100 9 300; order 101 9 15 ]
  in
  Engine.spawn engine (fun () -> Mediator.initialize child_east);
  Engine.spawn engine (fun () -> Mediator.initialize child_west);
  Engine.run engine ~until:1.0;
  let export_size child node =
    match Med.store_env child node with Some b -> Bag.cardinal b | None -> 0
  in
  Printf.printf "child East exports BigEast (%d big orders of %d)\n"
    (export_size child_east "BigEast")
    (Bag.cardinal (Source_db.current db_east "OrdersE"));
  Printf.printf "child West exports BigWest (%d big orders of %d)\n"
    (export_size child_west "BigWest")
    (Bag.cardinal (Source_db.current db_west "OrdersW"));

  section "Tier 2: wrap each child as a source";
  let ms_east = Med_source.create ~name:"medEast" child_east in
  let ms_west = Med_source.create ~name:"medWest" child_west in
  let src_east = Adapter.mirror (Med_source.source_db ms_east) in
  let src_west = Adapter.mirror (Med_source.source_db ms_west) in
  List.iter
    (fun a ->
      let db = Adapter.db a in
      Printf.printf "%-8s kind=%-8s relations=[%s] version=%d\n"
        (Adapter.name a) (Adapter.kind a)
        (String.concat ", " (Source_db.relation_names db))
        (Source_db.version db))
    [ src_east; src_west ];

  let b =
    Builder.create
      ~source_of:(function
        | "BigEast" -> Some "medEast" | "BigWest" -> Some "medWest"
        | _ -> None)
      ~schema_of:(function
        | "BigEast" | "BigWest" -> Some schema_orders | _ -> None)
      ()
  in
  Builder.add_export b ~name:"AllBig" (Parser.expr "BigEast union BigWest");
  let vdp = Builder.build b in
  let env = Scenario.make_env ~engine ~vdp [ src_east; src_west ] in
  let parent =
    Scenario.mediator env ~annotation:(Annotation.fully_materialized vdp) ()
  in
  Engine.spawn engine (fun () -> Mediator.initialize parent);
  Engine.run engine ~until:(Engine.now engine +. 1.0);

  section "Initial answer at the top tier";
  let show () =
    let ans = ref None in
    Engine.spawn engine (fun () ->
        ans := Some (Mediator.query parent ~node:"AllBig" ()));
    Engine.run engine ~until:(Engine.now engine +. 30.0);
    match !ans with
    | None -> failwith "query did not complete"
    | Some a ->
      Format.printf "AllBig = %a@." Bag.pp a.Qp.tuples;
      Printf.printf "  quality %s, reflects [%s]\n"
        (match a.Qp.quality with Qp.Fresh -> "fresh" | Qp.Stale _ -> "stale")
        (String.concat "; "
           (List.map
              (fun (s, e) ->
                Printf.sprintf "%s=%s" s
                  (match e with
                  | Med.Version v -> Printf.sprintf "v%d" v
                  | Med.Current -> "current"))
              a.Qp.reflect));
      a.Qp.tuples
  in
  let before = show () in
  assert (Bag.cardinal before = 3);

  section "Updates at the bottom tier ripple up two levels";
  let commit db rel f t =
    Source_db.commit db
      (Multi_delta.singleton rel (f (Rel_delta.empty schema_orders) t))
  in
  Printf.printf "insert OrdersE (4, 8, 999)   -- big: joins the union\n";
  commit db_east "OrdersE" Rel_delta.insert (order 4 8 999);
  Printf.printf "insert OrdersW (102, 9, 20)  -- small: filtered at tier 1\n";
  commit db_west "OrdersW" Rel_delta.insert (order 102 9 20);
  Printf.printf "delete OrdersW (100, 9, 300) -- removes a big order\n";
  commit db_west "OrdersW" Rel_delta.delete (order 100 9 300);
  Scenario.run_to_quiescence env parent;
  let after = show () in
  assert (Bag.cardinal after = 3);
  let mirrored = Med_source.source_db in
  Printf.printf "mirrored versions now: %s=v%d, %s=v%d\n"
    (Med_source.name ms_east) (Source_db.version (mirrored ms_east))
    (Med_source.name ms_west) (Source_db.version (mirrored ms_west));

  section "Consistency audit over the mirrored histories";
  let report =
    Correctness.Checker.check ~vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events parent) ()
  in
  Printf.printf "checked %d answers against medEast/medWest histories: %s\n"
    report.Correctness.Checker.checked_queries
    (if Correctness.Checker.consistent report then "CONSISTENT"
     else "INCONSISTENT");
  assert (Correctness.Checker.consistent report)
