(* Consistency vs pseudo-consistency: the Figure 2 scenario of
   Remark 3.1, plus a live demonstration that disabling Eager
   Compensation produces exactly the kind of anomaly the formal
   definitions rule out.

   Run with: dune exec examples/consistency_demo.exe *)

open Relalg
open Delta
open Vdp
open Sim
open Sources
open Squirrel
open Correctness
open Workload

let section title = Printf.printf "\n=== %s ===\n%!" title

(* --- Part 1: Figure 2, replayed ---------------------------------------- *)

let schema_r2 = Schema.make [ ("p1", Value.TInt); ("p2", Value.TInt) ]
let r2 p1 p2 = Tuple.of_list [ ("p1", Value.Int p1); ("p2", Value.Int p2) ]

let letter i = String.make 1 (Char.chr (Char.code 'a' + i))

let fig2 () =
  let vdp =
    let b =
      Builder.create
        ~source_of:(function "R" -> Some "db" | _ -> None)
        ~schema_of:(function "R" -> Some schema_r2 | _ -> None)
        ()
    in
    Builder.add_export b ~name:"V" Expr.(project [ "p2" ] (base "R"));
    Builder.build b
  in
  let engine = Engine.create () in
  let src =
    Source_db.create ~engine ~name:"db" ~relations:[ ("R", schema_r2) ]
      ~announce:Source_db.Never ()
  in
  Source_db.load src "R" (Bag.of_tuples schema_r2 [ r2 0 0 ]);
  let states = [ (2.0, 1, 1); (3.0, 2, 0); (4.0, 3, 0); (5.0, 4, 0); (6.0, 5, 0) ] in
  List.fold_left
    (fun prev (time, p1, p2) ->
      Engine.schedule engine ~delay:time (fun () ->
          Source_db.commit src
            (Multi_delta.singleton "R"
               (Rel_delta.insert
                  (Rel_delta.delete (Rel_delta.empty schema_r2) prev)
                  (r2 p1 p2))));
      r2 p1 p2)
    (r2 0 0) states
  |> ignore;
  Engine.run engine;
  (vdp, src)

let () =
  section "Figure 2: the scenario";
  let vdp, src = fig2 () in
  Printf.printf "%-6s %-12s %-10s\n" "time" "state(DB)" "state(V)";
  let v_letters = [ 0; 0; 1; 0; 1; 0 ] in
  List.iteri
    (fun i v ->
      let _, _, state = List.nth (Source_db.history src) (min i 5) in
      let r = List.hd (Bag.support (List.assoc "R" state)) in
      Printf.printf "t%d     {R(%s,%s)}     {S(%s)}\n" (i + 1)
        (letter (match Tuple.get r "p1" with Value.Int n -> n | _ -> 0))
        (letter (match Tuple.get r "p2" with Value.Int n -> n | _ -> 0))
        (letter v))
    v_letters;
  let observations =
    List.mapi
      (fun i v ->
        {
          Checker.o_time = float_of_int (i + 1);
          o_export = "V";
          o_state =
            Bag.of_tuples
              (Schema.make [ ("p2", Value.TInt) ])
              [ Tuple.of_list [ ("p2", Value.Int v) ] ];
        })
      v_letters
  in
  Printf.printf "\npseudo-consistent (per-pair vectors exist):   %b\n"
    (Checker.pseudo_consistent ~vdp ~sources:[ src ] observations);
  Printf.printf "consistent (a single monotone reflect exists): %b\n"
    (Checker.consistent_assignment ~vdp ~sources:[ src ] observations <> None);
  print_endline
    "=> pseudo-consistency does not imply consistency (Remark 3.1).";

  (* And a view that honestly tracks the source IS consistent: *)
  let honest =
    List.mapi
      (fun i v ->
        {
          Checker.o_time = float_of_int (i + 1);
          o_export = "V";
          o_state =
            Bag.of_tuples
              (Schema.make [ ("p2", Value.TInt) ])
              [ Tuple.of_list [ ("p2", Value.Int v) ] ];
        })
      [ 0; 0; 1; 0; 0; 0 ]
  in
  (match Checker.consistent_assignment ~vdp ~sources:[ src ] honest with
  | Some witness ->
    Printf.printf "\nan honest view admits the monotone reflect: %s\n"
      (String.concat " "
         (List.map
            (fun (t, v) ->
              Printf.sprintf "t=%.0f->v%d" t (List.assoc "db" v))
            witness))
  | None -> print_endline "unexpected: honest view not consistent");

  (* --- Part 2: a live Squirrel run is consistent; ECA off is not ------- *)
  section "A live Squirrel run satisfies the definitions";
  let run ~eca =
    let env = Scenario.make_fig1 ~seed:21 () in
    let config = Med.Config.make ~eca_enabled:eca () in
    let med =
      Scenario.mediator env ~annotation:(Scenario.ann_ex22 env.Scenario.vdp)
        ~config ()
    in
    Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
    Engine.run env.Scenario.engine ~until:1.0;
    (* simultaneous R and S inserts that join: the ECA stress case *)
    let db1 = Scenario.source env "db1" in
    let db2 = Scenario.source env "db2" in
    Adapter.commit db1
      (Driver.single_insert db1 "R"
         (Tuple.of_list
            [
              ("r1", Value.Int 900);
              ("r2", Value.Int 901);
              ("r3", Value.Int 1);
              ("r4", Value.Int 100);
            ]));
    Adapter.commit db2
      (Driver.single_insert db2 "S"
         (Tuple.of_list
            [ ("s1", Value.Int 901); ("s2", Value.Int 2); ("s3", Value.Int 3) ]));
    Scenario.run_to_quiescence env med;
    Engine.spawn env.Scenario.engine (fun () ->
        ignore (Mediator.query med ~node:"T" ()));
    Engine.run env.Scenario.engine
      ~until:(Engine.now env.Scenario.engine +. 5.0);
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  let good = run ~eca:true in
  Printf.printf "with Eager Compensation:    %d queries, consistent = %b\n"
    good.Checker.checked_queries (Checker.consistent good);
  let bad = run ~eca:false in
  Printf.printf "without Eager Compensation: %d queries, consistent = %b\n"
    bad.Checker.checked_queries (Checker.consistent bad);
  List.iter
    (fun v -> Printf.printf "  violation: %s\n" v.Checker.v_detail)
    (List.filteri (fun i _ -> i < 1) bad.Checker.violations)
