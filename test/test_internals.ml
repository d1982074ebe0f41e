(* Focused tests for internals not fully covered by the end-to-end
   suites: the VAP's phase-1 closure and request merging (Sec. 6.3),
   the QP's key-based plan selection, the advisor's access threshold
   and leaf-parent demand rule, and simulation-engine edge cases. *)

open Relalg
open Vdp
open Sim
open Squirrel
open Workload

let setup annotation_of =
  let env = Scenario.make_fig1 ~seed:51 () in
  let med =
    Scenario.mediator env ~annotation:(annotation_of env.Scenario.vdp) ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  (env, med)

(* --- VAP closure --------------------------------------------------------- *)

let test_vap_closure_descends_to_virtual_children () =
  let _, med = setup Scenario.ann_ex23 in
  (* requesting all of T must pull in both (virtual) children *)
  let reqs =
    (Vap.closure med
       [
         {
           Vap.r_node = "T";
           r_attrs = [ "r1"; "r3"; "s1"; "s2" ];
           r_cond = Predicate.True;
         };
       ])
      .Vap.c_requests
  in
  let names = List.map (fun r -> r.Vap.r_node) reqs in
  Alcotest.(check bool) "T requested" true (List.mem "T" names);
  Alcotest.(check bool) "R' requested" true (List.mem "R'" names);
  Alcotest.(check bool) "S' requested" true (List.mem "S'" names);
  (* parents come before children in the returned order *)
  let pos x = Option.get (List.find_index (String.equal x) names) in
  Alcotest.(check bool) "T before R'" true (pos "T" < pos "R'")

let test_vap_closure_stops_at_materialized () =
  let _, med = setup Scenario.ann_ex21 in
  (* everything materialized: a request for T needs no children *)
  let reqs =
    (Vap.closure med
       [ { Vap.r_node = "T"; r_attrs = [ "r1" ]; r_cond = Predicate.True } ])
      .Vap.c_requests
  in
  Alcotest.(check (list string))
    "only the requested node" [ "T" ]
    (List.map (fun r -> r.Vap.r_node) reqs)

let test_vap_closure_merges_requests () =
  (* two requests against T with different attrs/conds merge into ONE
     temporary per node, attrs unioned and conditions disjoined (the
     paper's (B ∪ A', f ∨ g)) *)
  let _, med = setup Scenario.ann_ex23 in
  let c1 = Predicate.(lt (attr "r3") (int 10)) in
  let c2 = Predicate.(Cmp (Gt, attr "s2", int 50)) in
  let reqs =
    (Vap.closure med
       [
         { Vap.r_node = "T"; r_attrs = [ "r1"; "r3" ]; r_cond = c1 };
         { Vap.r_node = "T"; r_attrs = [ "s1"; "s2" ]; r_cond = c2 };
       ])
      .Vap.c_requests
  in
  let t_reqs = List.filter (fun r -> r.Vap.r_node = "T") reqs in
  Alcotest.(check int) "one merged request for T" 1 (List.length t_reqs);
  let t = List.hd t_reqs in
  List.iter
    (fun a ->
      Alcotest.(check bool) ("merged attrs contain " ^ a) true
        (List.mem a t.Vap.r_attrs))
    [ "r1"; "r3"; "s1"; "s2" ];
  Alcotest.(check bool)
    "conditions disjoined" true
    (Predicate.equal t.Vap.r_cond (Predicate.Or (c1, c2)));
  (* key sets on one attribute merge into one, and a request merged
     twice changes nothing *)
  let keyed vs = { Vap.r_node = "T"; r_attrs = [ "r1" ]; r_cond = Predicate.one_of "r1" vs } in
  let merged =
    (Vap.closure med
       [ keyed Value.[ Int 1; Int 2 ]; keyed Value.[ Int 2; Int 3 ]; keyed Value.[ Int 2; Int 3 ] ])
      .Vap.c_requests
  in
  Alcotest.(check bool)
    "key sets merged" true
    (List.exists
       (fun r ->
         r.Vap.r_node = "T"
         && Predicate.equal r.Vap.r_cond (Predicate.one_of "r1" Value.[ Int 1; Int 2; Int 3 ]))
       merged)

let test_vap_rejects_leaf_requests () =
  let _, med = setup Scenario.ann_ex21 in
  try
    ignore
      (Vap.closure med
         [ { Vap.r_node = "R"; r_attrs = [ "r1" ]; r_cond = Predicate.True } ]);
    Alcotest.fail "expected Mediator_error"
  with Med.Mediator_error _ -> ()

(* --- key-based plans ------------------------------------------------------ *)

let test_key_based_plan_selection () =
  let _, med = setup Scenario.ann_ex23 in
  (* r3 is determined by R''s key r1, which is materialized on T *)
  (match Qp.key_based_plan med ~node:"T" ~needed:[ "r3"; "s1" ] with
  | Some [ ("R'", [ "r1" ]) ] -> ()
  | Some plan ->
    Alcotest.failf "unexpected plan %s"
      (String.concat "; "
         (List.map (fun (c, k) -> c ^ "(" ^ String.concat "," k ^ ")") plan))
  | None -> Alcotest.fail "expected a key-based plan");
  (* s2 comes from S' through its key s1 *)
  (match Qp.key_based_plan med ~node:"T" ~needed:[ "s2" ] with
  | Some [ ("S'", [ "s1" ]) ] -> ()
  | _ -> Alcotest.fail "expected the S' plan");
  (* r3 and s2 together span both children: each comes from its own
     keyed child *)
  (match Qp.key_based_plan med ~node:"T" ~needed:[ "r3"; "s2" ] with
  | Some [ ("R'", [ "r1" ]); ("S'", [ "s1" ]) ] -> ()
  | _ -> Alcotest.fail "expected the two-child plan");
  (* nothing virtual needed: no plan *)
  Alcotest.(check bool)
    "no plan when covered" true
    (Qp.key_based_plan med ~node:"T" ~needed:[ "r1"; "s1" ] = None)

(* The key-based construction polls a keyed child under the query's
   condition restricted to the child, conjoined with the semijoin key
   sets: a point query on the key already holds its key set, which must
   not be conjoined a second time (it once polled db1 with
   [r1 = 11584 and r1 = 11584]). Each conjunct of the polled condition
   appears once. *)
let test_semijoin_cond_conjuncts_once () =
  let open Predicate in
  let r1 = attr "r1" in
  let point v = eq r1 (int v) in
  let cases =
    [
      ("point query", point 11584, [ ("r1", Value.[ Int 11584 ]) ], [ point 11584 ]);
      ( "point query, constant first",
        eq (int 7) r1,
        [ ("r1", Value.[ Int 7 ]) ],
        [ eq (int 7) r1 ] );
      ( "point query and a residual",
        conj [ point 5; lt (attr "r3") (int 10) ],
        [ ("r1", Value.[ Int 5 ]) ],
        [ point 5; lt (attr "r3") (int 10) ] );
      ( "a narrower key set is a conjunct of its own",
        one_of "r1" Value.[ Int 5; Int 6 ],
        [ ("r1", Value.[ Int 5 ]) ],
        [ one_of "r1" Value.[ Int 5; Int 6 ]; point 5 ] );
      ( "no condition",
        True,
        [ ("r1", Value.[ Int 2; Int 1 ]) ],
        [ one_of "r1" Value.[ Int 1; Int 2 ] ] );
      ( "conjuncts outside the child are dropped",
        conj [ eq (attr "s2") (int 3); point 4 ],
        [ ("r1", Value.[ Int 4 ]) ],
        [ point 4 ] );
    ]
  in
  List.iter
    (fun (what, cond, keys, expected) ->
      let got =
        Predicate.conjuncts (Qp.semijoin_cond cond ~attrs:[ "r1"; "r2"; "r3" ] keys)
      in
      Alcotest.(check (list string))
        what
        (List.map (Format.asprintf "%a" Predicate.pp) expected)
        (List.map (Format.asprintf "%a" Predicate.pp) got);
      List.iteri
        (fun i p ->
          List.iteri
            (fun j q ->
              if i < j && Predicate.equal p q then
                Alcotest.failf "%s: %a appears twice" what Predicate.pp p)
            got)
        got)
    cases

let test_key_based_plan_respects_config () =
  let env = Scenario.make_fig1 ~seed:51 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config:(Med.Config.make ~key_based_enabled:false ())
      ()
  in
  Alcotest.(check bool)
    "disabled by config" true
    (Qp.key_based_plan med ~node:"T" ~needed:[ "r3" ] = None)

(* --- advisor rules -------------------------------------------------------- *)

let test_advisor_access_threshold () =
  let vdp = Scenario.fig1_vdp () in
  let profile =
    {
      Advisor.uniform_profile with
      Advisor.attr_access =
        (fun _ attr -> if String.equal attr "r3" then 0.2 else 0.9);
    }
  in
  let ann_strict, _ =
    Advisor.advise ~access_threshold:0.5 vdp profile
  in
  (* 0.2 and 0.9... threshold 0.5: r3 virtual, others materialized *)
  Alcotest.(check (list string))
    "only r3 virtual at 0.5" [ "r3" ]
    (Annotation.virtual_attrs ann_strict "T");
  let ann_lax, _ =
    Advisor.advise ~access_threshold:0.1 vdp profile
  in
  Alcotest.(check (list string))
    "nothing virtual at 0.1" []
    (Annotation.virtual_attrs ann_lax "T")

let test_advisor_demand_factor () =
  let vdp = Scenario.fig1_vdp () in
  let profile =
    {
      Advisor.update_rate = (function "R" -> 10.0 | _ -> 8.0);
      attr_access = (fun _ _ -> 1.0);
    }
  in
  (* the factor is 1: a leaf-parent is materialized exactly when its
     siblings' update demand reaches its own update rate. R' demand
     (8.0) < own rate (10.0): virtual; S' demand (10.0) >= own (8.0):
     materialized *)
  let ann, _ = Advisor.advise vdp profile in
  Alcotest.(check bool) "virtual below its own rate" true
    (Annotation.materialized_attrs ann "R'" = []);
  Alcotest.(check bool) "materialized above its own rate" true
    (Annotation.virtual_attrs ann "S'" = []);
  (* equal rates: demand reaches the own rate, so both materialize *)
  let even, _ =
    Advisor.advise vdp { profile with Advisor.update_rate = (fun _ -> 5.0) }
  in
  Alcotest.(check bool) "materialized at equal rates" true
    (Annotation.virtual_attrs even "R'" = []
    && Annotation.virtual_attrs even "S'" = [])

(* --- engine edges ----------------------------------------------------------- *)

let test_ivar_multiple_waiters () =
  let engine = Engine.create () in
  let iv = Engine.Ivar.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Engine.spawn engine (fun () ->
        let v = Engine.Ivar.read engine iv in
        got := (i, v) :: !got)
  done;
  Engine.schedule engine ~delay:1.0 (fun () -> Engine.Ivar.fill engine iv 42);
  Engine.run engine;
  Alcotest.(check int) "all woke" 3 (List.length !got);
  Alcotest.(check bool) "all saw the value" true
    (List.for_all (fun (_, v) -> v = 42) !got)

let test_mutex_releases_on_exception () =
  let engine = Engine.create () in
  let m = Engine.Mutex.create () in
  let second_ran = ref false in
  Engine.spawn engine (fun () ->
      try Engine.Mutex.with_lock engine m (fun () -> failwith "boom")
      with Failure _ -> ());
  Engine.spawn engine (fun () ->
      Engine.Mutex.with_lock engine m (fun () -> second_ran := true));
  Engine.run engine;
  Alcotest.(check bool) "lock released after exception" true !second_ran

let test_channel_zero_delay_order () =
  let engine = Engine.create () in
  let got = ref [] in
  let ch = Channel.create engine ~delay:0.0 (fun m -> got := m :: !got) in
  Channel.send ch 1;
  Channel.send ch 2;
  Engine.run engine;
  Alcotest.(check (list int)) "zero-delay FIFO" [ 1; 2 ] (List.rev !got)

(* --- mediator error handling -------------------------------------------------- *)

let test_query_validation_errors () =
  let env, med = setup Scenario.ann_ex21 in
  (try
     ignore (Engine.run_process env.Scenario.engine (fun () -> Mediator.query med ~node:"R'" ()));
     Alcotest.fail "expected Mediator_error (non-export)"
   with Med.Mediator_error _ -> ());
  try
    ignore
      (Engine.run_process env.Scenario.engine (fun () ->
           Mediator.query med ~node:"T" ~attrs:[ "nope" ] ()));
    Alcotest.fail "expected Mediator_error (bad attr)"
  with Med.Mediator_error _ -> ()

let test_create_validation () =
  let env = Scenario.make_fig1 ~seed:52 () in
  (* missing source *)
  try
    ignore
      (Mediator.create ~engine:env.Scenario.engine ~vdp:env.Scenario.vdp
         ~annotation:(Scenario.ann_ex21 env.Scenario.vdp)
         ~sources:[ List.hd env.Scenario.sources ]
         ());
    Alcotest.fail "expected Mediator_error"
  with Med.Mediator_error _ -> ()

let () =
  Alcotest.run "internals"
    [
      ( "vap closure",
        [
          Alcotest.test_case "descends to virtual children" `Quick test_vap_closure_descends_to_virtual_children;
          Alcotest.test_case "stops at materialized" `Quick test_vap_closure_stops_at_materialized;
          Alcotest.test_case "merges requests (B∪A', f∨g)" `Quick test_vap_closure_merges_requests;
          Alcotest.test_case "rejects leaf requests" `Quick test_vap_rejects_leaf_requests;
        ] );
      ( "key-based plans",
        [
          Alcotest.test_case "selection" `Quick test_key_based_plan_selection;
          Alcotest.test_case "config switch" `Quick test_key_based_plan_respects_config;
          Alcotest.test_case "polled condition: each conjunct once" `Quick
            test_semijoin_cond_conjuncts_once;
        ] );
      ( "advisor config",
        [
          Alcotest.test_case "access threshold" `Quick test_advisor_access_threshold;
          Alcotest.test_case "demand factor" `Quick test_advisor_demand_factor;
        ] );
      ( "engine edges",
        [
          Alcotest.test_case "ivar multiple waiters" `Quick test_ivar_multiple_waiters;
          Alcotest.test_case "mutex exception safety" `Quick test_mutex_releases_on_exception;
          Alcotest.test_case "zero-delay channel" `Quick test_channel_zero_delay_order;
        ] );
      ( "validation",
        [
          Alcotest.test_case "query errors" `Quick test_query_validation_errors;
          Alcotest.test_case "create errors" `Quick test_create_validation;
        ] );
    ]
