(* Building your own integration from scratch — the full user journey
   a downstream adopter would follow, with view definitions written in
   the textual syntax of Relalg.Parser:

     1. declare source databases and their relations
     2. state the integrated view as text
     3. let the Builder derive the VDP and the Advisor pick an
        annotation from your workload statistics
     4. deploy, load, update, query — and verify consistency

   The domain: a logistics company integrating a shipments database
   and a fleet database into views of late shipments per vehicle.

   Run with: dune exec examples/custom_integration.exe *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Delta

let section title = Printf.printf "\n=== %s ===\n%!" title

(* -- 1. sources --------------------------------------------------------- *)

let schema_shipments =
  Schema.make ~key:[ "sid" ]
    [
      ("sid", Value.TInt);
      ("vehicle", Value.TInt);
      ("eta", Value.TInt);
      ("age", Value.TInt);
    ]

let schema_fleet =
  Schema.make ~key:[ "vehicle" ]
    [ ("vehicle", Value.TInt); ("depot", Value.TInt); ("capacity", Value.TInt) ]

let source_of = function
  | "Shipments" -> Some "ops_db"
  | "Fleet" -> Some "fleet_db"
  | _ -> None

let schema_of = function
  | "Shipments" -> Some schema_shipments
  | "Fleet" -> Some schema_fleet
  | _ -> None

(* -- 2. the view, as text ------------------------------------------------ *)

let late_def =
  Parser.expr
    "project sid, vehicle, depot, age (\n\
    \  select age > eta (Shipments)\n\
    \  join\n\
    \  Fleet\n\
     )"

(* -- driver -------------------------------------------------------------- *)

let () =
  section "Parsed view definition";
  Format.printf "LateByVehicle := %a@." Expr.pp late_def;

  section "Builder: derive the VDP";
  let b = Builder.create ~source_of ~schema_of () in
  Builder.add_export b ~name:"LateByVehicle" late_def;
  let vdp = Builder.build b in
  Format.printf "%a@." Graph.pp vdp;

  section "Advisor: annotate from workload statistics";
  (* shipments churn constantly; the fleet barely changes; queries
     mostly ask which vehicles are late (not capacity details) *)
  let profile =
    {
      Advisor.update_rate = (function "Shipments" -> 80.0 | _ -> 0.5);
      attr_access =
        (fun _ attr -> if String.equal attr "depot" then 0.05 else 0.9);
    }
  in
  let annotation, reasons = Advisor.advise vdp profile in
  List.iter (fun r -> Printf.printf "  - %s\n" r) reasons;
  Printf.printf "%s\n" (Annotation.to_string annotation);

  section "Deploy";
  let engine = Engine.create () in
  let ops_db =
    Source_db.create ~engine ~name:"ops_db"
      ~relations:[ ("Shipments", schema_shipments) ]
      ~announce:Source_db.Immediate ()
  in
  let fleet_db =
    Source_db.create ~engine ~name:"fleet_db"
      ~relations:[ ("Fleet", schema_fleet) ]
      ~announce:(Source_db.Periodic 5.0) ()
  in
  let rng = Workload.Datagen.state 8 in
  Source_db.load fleet_db "Fleet"
    (Workload.Datagen.bag rng schema_fleet
       [
         { Workload.Datagen.c_attr = "vehicle"; c_min = 0; c_max = 0 };
         { Workload.Datagen.c_attr = "depot"; c_min = 1; c_max = 4 };
         { Workload.Datagen.c_attr = "capacity"; c_min = 10; c_max = 40 };
       ]
       ~size:12);
  Source_db.load ops_db "Shipments"
    (Workload.Datagen.bag rng schema_shipments
       [
         { Workload.Datagen.c_attr = "sid"; c_min = 0; c_max = 0 };
         { Workload.Datagen.c_attr = "vehicle"; c_min = 0; c_max = 11 };
         { Workload.Datagen.c_attr = "eta"; c_min = 2; c_max = 9 };
         { Workload.Datagen.c_attr = "age"; c_min = 0; c_max = 12 };
       ]
       ~size:60);
  let med =
    Mediator.create ~engine ~vdp ~annotation ~sources:[ ops_db; fleet_db ] ()
  in
  Mediator.connect med ();
  Mediator.enable_source_filtering med;
  Engine.spawn engine (fun () -> Mediator.initialize med);
  Engine.run engine ~until:1.0;
  Printf.printf "initialized; contributor kinds: ops_db=%s fleet_db=%s\n"
    (match Mediator.contributor_kind med "ops_db" with
    | Ledger.Materialized_contributor -> "materialized"
    | Ledger.Hybrid_contributor -> "hybrid"
    | Ledger.Virtual_contributor -> "virtual")
    (match Mediator.contributor_kind med "fleet_db" with
    | Ledger.Materialized_contributor -> "materialized"
    | Ledger.Hybrid_contributor -> "hybrid"
    | Ledger.Virtual_contributor -> "virtual");

  section "Query with a parsed condition";
  let where = Parser.predicate "age >= 8 and depot = 2" in
  Engine.spawn engine (fun () ->
      let answer =
        Mediator.query med ~node:"LateByVehicle"
          ~attrs:(Parser.attrs "sid, vehicle, age")
          ~cond:where ()
      in
      Format.printf "very late at depot 2:@.%a@." Bag.pp answer.Qp.tuples);
  Engine.run engine ~until:(Engine.now engine +. 5.0);

  section "Live updates";
  (* a shipment ages past its eta *)
  let stale =
    Tuple.of_list
      [
        ("sid", Value.Int 9001);
        ("vehicle", Value.Int 3);
        ("eta", Value.Int 2);
        ("age", Value.Int 10);
      ]
  in
  Source_db.commit ops_db
    (Multi_delta.singleton "Shipments"
       (Rel_delta.insert (Rel_delta.empty schema_shipments) stale));
  Engine.run engine ~until:(Engine.now engine +. 5.0);
  Engine.spawn engine (fun () ->
      let answer =
        Mediator.query med ~node:"LateByVehicle" ~attrs:[ "sid"; "vehicle" ] ()
      in
      Printf.printf "late shipments now: %d (includes sid 9001: %b)\n"
        (Bag.cardinal answer.Qp.tuples)
        (List.exists
           (fun t -> Value.equal (Tuple.get t "sid") (Value.Int 9001))
           (Bag.support answer.Qp.tuples)));
  Engine.run engine ~until:(Engine.now engine +. 5.0);

  section "Consistency";
  let report =
    Correctness.Checker.check ~vdp
      ~sources:[ ops_db; fleet_db ]
      ~events:(Mediator.events med) ()
  in
  Printf.printf "checked %d queries: %s\n"
    report.Correctness.Checker.checked_queries
    (if Correctness.Checker.consistent report then "CONSISTENT" else "BROKEN")
