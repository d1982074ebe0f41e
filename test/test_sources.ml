(* Tests for simulated autonomous source databases: versioned commits,
   announcement modes, poll semantics (flush-before-answer, FIFO with
   updates), and history access. *)

open Relalg
open Delta
open Sim
open Sources
open Tutil

let mk_source ?(announce = Source_db.Immediate) engine =
  Source_db.create ~engine ~name:"db" ~relations:[ ("S", schema_s) ] ~announce ()

(* a poll expected to succeed; must run in a simulation process *)
let poll src queries =
  match
    Source_db.try_poll src (List.map (fun (l, e) -> (l, ask src e)) queries)
  with
  | Ok answer -> answer
  | Error e -> Alcotest.fail (Source_db.poll_error_to_string e)

let delta_ins tuple =
  Multi_delta.singleton "S" (Rel_delta.insert (Rel_delta.empty schema_s) tuple)

let test_commit_and_history () =
  let engine = Engine.create () in
  let src = mk_source engine in
  Source_db.load src "S" (Bag.of_tuples schema_s [ s_tuple 1 2 3 ]);
  Alcotest.(check int) "version 0" 0 (Source_db.version src);
  Engine.schedule engine ~delay:1.0 (fun () ->
      Source_db.commit src (delta_ins (s_tuple 4 5 6)));
  Engine.schedule engine ~delay:2.0 (fun () ->
      Source_db.commit src (delta_ins (s_tuple 7 8 9)));
  Engine.run engine;
  Alcotest.(check int) "version 2" 2 (Source_db.version src);
  Alcotest.(check int) "current size" 3 (Bag.cardinal (Source_db.current src "S"));
  (* history *)
  let h = Source_db.history src in
  Alcotest.(check int) "three entries" 3 (List.length h);
  let state1 = Source_db.state_at_version src 1 in
  Alcotest.(check int)
    "version 1 has two tuples" 2
    (Bag.cardinal (List.assoc "S" state1));
  Alcotest.(check (float 1e-9))
    "commit time of v1" 1.0
    (Source_db.commit_time_of_version src 1);
  Alcotest.(check (option (float 1e-9)))
    "next commit after v1" (Some 2.0)
    (Source_db.next_commit_time_after src 1);
  Alcotest.(check (option (float 1e-9)))
    "no commit after v2" None
    (Source_db.next_commit_time_after src 2)

let test_load_after_commit_rejected () =
  let engine = Engine.create () in
  let src = mk_source engine in
  Source_db.commit src (delta_ins (s_tuple 1 2 3));
  try
    Source_db.load src "S" (Bag.empty schema_s);
    Alcotest.fail "expected Source_error"
  with Source_db.Source_error _ -> ()

let test_unknown_relation_rejected () =
  let engine = Engine.create () in
  let src = mk_source engine in
  let bad =
    Multi_delta.singleton "NOPE"
      (Rel_delta.insert (Rel_delta.empty schema_s) (s_tuple 1 2 3))
  in
  try
    Source_db.commit src bad;
    Alcotest.fail "expected Source_error"
  with Source_db.Source_error _ -> ()

let collect_updates engine src =
  let received = ref [] in
  Source_db.connect src ~comm_delay:0.1 ~q_proc_delay:0.01 (function
    | Message.Update u -> received := u :: !received
    | Message.Answer (iv, a) -> Engine.Ivar.fill engine iv a);
  received

let test_immediate_announce () =
  let engine = Engine.create () in
  let src = mk_source ~announce:Source_db.Immediate engine in
  let received = collect_updates engine src in
  Source_db.commit src (delta_ins (s_tuple 1 2 3));
  Source_db.commit src (delta_ins (s_tuple 4 5 6));
  Engine.run engine;
  Alcotest.(check int) "one message per commit" 2 (List.length !received);
  let first = List.nth (List.rev !received) 0 in
  Alcotest.(check int) "version" 1 first.Message.version;
  Alcotest.(check int) "atoms" 1 (Multi_delta.atom_count first.Message.delta)

let test_periodic_announce_batches () =
  let engine = Engine.create () in
  let src = mk_source ~announce:(Source_db.Periodic 10.0) engine in
  let received = collect_updates engine src in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Source_db.commit src (delta_ins (s_tuple 1 2 3)));
  Engine.schedule engine ~delay:2.0 (fun () ->
      Source_db.commit src (delta_ins (s_tuple 4 5 6)));
  Engine.run engine ~until:15.0;
  Alcotest.(check int) "one batched message" 1 (List.length !received);
  let msg = List.hd !received in
  Alcotest.(check int) "net delta has both atoms" 2
    (Multi_delta.atom_count msg.Message.delta);
  Alcotest.(check int) "version is the last commit" 2 msg.Message.version

let test_periodic_net_delta_cancels () =
  (* insert then delete within one period: the announced net delta is
     empty-ish (the paper's "net updates") *)
  let engine = Engine.create () in
  let src = mk_source ~announce:(Source_db.Periodic 10.0) engine in
  let received = collect_updates engine src in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Source_db.commit src (delta_ins (s_tuple 1 2 3)));
  Engine.schedule engine ~delay:2.0 (fun () ->
      Source_db.commit src
        (Multi_delta.singleton "S"
           (Rel_delta.delete (Rel_delta.empty schema_s) (s_tuple 1 2 3))));
  Engine.run engine ~until:15.0;
  (* the net delta cancels out; an (empty) message may or may not be
     sent — either way no atoms should be announced *)
  let atoms =
    List.fold_left
      (fun acc u -> acc + Multi_delta.atom_count u.Message.delta)
      0 !received
  in
  Alcotest.(check int) "no net atoms announced" 0 atoms

let test_never_announces () =
  let engine = Engine.create () in
  let src = mk_source ~announce:Source_db.Never engine in
  let received = collect_updates engine src in
  Source_db.commit src (delta_ins (s_tuple 1 2 3));
  Engine.run engine ~until:50.0;
  Alcotest.(check int) "virtual contributor stays silent" 0 (List.length !received)

let test_poll_single_state () =
  let engine = Engine.create () in
  let src = mk_source engine in
  Source_db.load src "S"
    (Bag.of_tuples schema_s [ s_tuple 1 2 3; s_tuple 4 5 60 ]);
  let _ = collect_updates engine src in
  let answer = ref None in
  Engine.spawn engine (fun () ->
      answer :=
        Some
          (poll src
             [
               ("all", Expr.base "S");
               ("low", Expr.select cond_s3 (Expr.base "S"));
             ]));
  Engine.run engine;
  match !answer with
  | Some a ->
    Alcotest.(check int) "version 0" 0 a.Message.answer_version;
    Alcotest.(check int) "all" 2 (Bag.cardinal (List.assoc "all" a.Message.results));
    Alcotest.(check int) "low" 1 (Bag.cardinal (List.assoc "low" a.Message.results))
  | None -> Alcotest.fail "no answer"

(* No poll builds an index: a key on an undeclared column is served
   by a scan, with the answer and the tuple ops (one per key plus the
   matching rows) of the indexed poll. A declaration (a {!prepare} with
   the column as a key) builds the index at once, and a handle prepared
   earlier probes it too; a reload (still version 0) rebuilds it from
   the new contents, and a key or a declaration on an unknown column,
   or a definition over an unknown relation, is refused. *)
let test_keyed_poll_declared_index () =
  let engine = Engine.create () in
  let src = mk_source engine in
  Source_db.load src "S" (Bag.of_tuples schema_s [ s_tuple 1 2 3; s_tuple 2 4 3 ]);
  let _ = collect_updates engine src in
  let keyed column v =
    let q = Expr.select Predicate.(eq (attr "s2") (int v)) (Expr.base "S") in
    let key = { Source_db.k_column = column; k_values = [ Value.Int v ] } in
    let rq = ask src ~key q in
    let ops0 = Eval.tuple_ops () in
    match Source_db.try_poll src [ ("q", rq) ] with
    | Ok a ->
      (Bag.cardinal (List.assoc "q" a.Message.results), Eval.tuple_ops () - ops0)
    | Error e -> Alcotest.fail (Source_db.poll_error_to_string e)
  in
  let indexed () = Source_db.indexed src in
  let steps = ref [] and refused = ref [] in
  let step what v = steps := (what, v) :: !steps in
  let refuses f =
    try
      f ();
      false
    with Source_db.Source_error _ -> true
  in
  Engine.spawn engine (fun () ->
      ignore (poll src [ ("all", Expr.base "S") ]);
      step "unkeyed poll: indexes" (List.length (indexed ()));
      let rows, ops = keyed "s2" 2 in
      step "undeclared key: rows" rows;
      step "undeclared key: ops" ops;
      step "undeclared key: scanned" (Source_db.scanned_keys src);
      step "undeclared key: indexes" (List.length (indexed ()));
      ignore (Source_db.prepare src ~keys:[ "s2" ] (Expr.base "S"));
      step "declared: indexes" (List.length (indexed ()));
      let rows, ops = keyed "s2" 2 in
      step "declared key: rows" rows;
      step "declared key: ops" ops;
      step "declared key: scanned" (Source_db.scanned_keys src);
      Source_db.load src "S"
        (Bag.of_tuples schema_s
           [ s_tuple 4 2 6; s_tuple 5 2 6; s_tuple 6 3 6; s_tuple 7 3 6 ]);
      step "reloaded: indexes" (List.length (indexed ()));
      let rows, ops = keyed "s2" 2 in
      step "reloaded key: rows" rows;
      step "reloaded key: ops" ops;
      refused :=
        [
          refuses (fun () -> ignore (keyed "zz" 2));
          refuses (fun () -> ignore (Source_db.prepare src ~keys:[ "zz" ] (Expr.base "S")));
          refuses (fun () -> ignore (Source_db.prepare src ~keys:[ "s1" ] (Expr.base "Q")));
        ]);
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "indexes and keyed answers"
    [
      ("unkeyed poll: indexes", 0);
      ("undeclared key: rows", 1);
      ("undeclared key: ops", 2);
      ("undeclared key: scanned", 1);
      ("undeclared key: indexes", 0);
      ("declared: indexes", 1);
      ("declared key: rows", 1);
      ("declared key: ops", 2);
      ("declared key: scanned", 1);
      ("reloaded: indexes", 1);
      ("reloaded key: rows", 2);
      ("reloaded key: ops", 3);
    ]
    (List.rev !steps);
  Alcotest.(check (list bool))
    "unknown key column, column and relation refused" [ true; true; true ]
    !refused

let test_poll_flushes_pending_first () =
  (* the ECA precondition: with Periodic announcements, a poll must
     push the staged net delta onto the channel before answering, and
     FIFO must deliver it before the answer *)
  let engine = Engine.create () in
  let src = mk_source ~announce:(Source_db.Periodic 1000.0) engine in
  let arrivals = ref [] in
  Source_db.connect src ~comm_delay:0.1 ~q_proc_delay:0.01 (function
    | Message.Update u -> arrivals := `Update u.Message.version :: !arrivals
    | Message.Answer (iv, a) ->
      arrivals := `Answer a.Message.answer_version :: !arrivals;
      Engine.Ivar.fill engine iv a);
  Source_db.commit src (delta_ins (s_tuple 1 2 3));
  Engine.spawn engine (fun () ->
      ignore (poll src [ ("all", Expr.base "S") ]));
  Engine.run engine ~until:100.0;
  (match List.rev !arrivals with
  | [ `Update 1; `Answer 1 ] -> ()
  | _ -> Alcotest.fail "expected the staged update to arrive before the answer");
  Alcotest.(check int) "polls served" 1 (Source_db.polls_served src)

let test_poll_answer_ordered_after_updates () =
  (* updates committed while a poll is in flight are still ordered
     correctly: the answer reflects them and arrives after them *)
  let engine = Engine.create () in
  let src = mk_source engine in
  let arrivals = ref [] in
  Source_db.connect src ~comm_delay:0.5 ~q_proc_delay:0.01 (function
    | Message.Update u -> arrivals := `Update u.Message.version :: !arrivals
    | Message.Answer (iv, a) ->
      arrivals := `Answer a.Message.answer_version :: !arrivals;
      Engine.Ivar.fill engine iv a);
  (* commit lands while the poll request is travelling *)
  Engine.schedule engine ~delay:0.2 (fun () ->
      Source_db.commit src (delta_ins (s_tuple 9 9 9)));
  Engine.spawn engine (fun () ->
      let a = poll src [ ("all", Expr.base "S") ] in
      Alcotest.(check int) "answer reflects the racing commit" 1
        a.Message.answer_version);
  Engine.run engine ~until:100.0;
  match List.rev !arrivals with
  | [ `Update 1; `Answer 1 ] -> ()
  | _ -> Alcotest.fail "update must be delivered before the poll answer"

let test_poll_atomic_version_stamp () =
  (* regression: a commit landing during the source's query-processing
     window must be reflected by BOTH the results and the version
     stamp, or the mediator's Eager Compensation over-corrects (this
     exact bug was caught by the E6 consistency checker) *)
  let engine = Engine.create () in
  let src = mk_source engine in
  Source_db.load src "S" (Bag.of_tuples schema_s [ s_tuple 1 2 3 ]);
  let _ = collect_updates engine src in
  (* comm_delay 0.1: request arrives at 0.1; q_proc 0.01 ends at 0.11;
     schedule a commit in between *)
  Engine.schedule engine ~delay:0.105 (fun () ->
      Source_db.commit src (delta_ins (s_tuple 7 7 7)));
  let got = ref None in
  Engine.spawn engine (fun () ->
      got := Some (poll src [ ("all", Expr.base "S") ]));
  Engine.run engine ~until:10.0;
  match !got with
  | Some a ->
    let results = List.assoc "all" a.Message.results in
    let claims_v1 = a.Message.answer_version = 1 in
    let has_new_row = Bag.mem results (s_tuple 7 7 7) in
    Alcotest.(check bool)
      "version stamp agrees with the result contents" true
      (claims_v1 = has_new_row)
  | None -> Alcotest.fail "no answer"

let test_outage_refuses_polls () =
  let engine = Engine.create () in
  let src = mk_source engine in
  let _ = collect_updates engine src in
  Source_db.set_outages src [ (1.0, 3.0) ];
  let results = ref [] in
  let poll_at t =
    Engine.schedule engine ~delay:t (fun () ->
        Engine.spawn engine (fun () ->
            results :=
              (t, Source_db.try_poll src [ ("S", ask src (Expr.base "S")) ])
              :: !results))
  in
  poll_at 0.5;
  poll_at 1.5;
  poll_at 3.5;
  Engine.run engine;
  (match List.assoc 0.5 !results with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("before window: " ^ Source_db.poll_error_to_string e));
  (match List.assoc 1.5 !results with
  | Error (Source_db.Unavailable { u_until = Some t; _ }) ->
    Alcotest.(check (float 1e-9)) "reports window end" 3.0 t
  | Error e -> Alcotest.fail ("wrong error: " ^ Source_db.poll_error_to_string e)
  | Ok _ -> Alcotest.fail "poll inside window succeeded");
  (match List.assoc 3.5 !results with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("after window: " ^ Source_db.poll_error_to_string e));
  Alcotest.(check int) "failure counted" 1 (Source_db.poll_failures src)

let test_blackhole_times_out () =
  let engine = Engine.create () in
  let src = mk_source engine in
  let _ = collect_updates engine src in
  Source_db.set_outages src ~mode:Source_db.Black_hole [ (0.0, 10.0) ];
  let result = ref None in
  let t_done = ref 0.0 in
  Engine.spawn engine (fun () ->
      result :=
        Some (Source_db.try_poll src ~timeout:2.0 [ ("S", ask src (Expr.base "S")) ]);
      t_done := Engine.now engine);
  Engine.run engine;
  (match !result with
  | Some (Error (Source_db.Timed_out { t_timeout; _ })) ->
    Alcotest.(check (float 1e-9)) "timeout reported" 2.0 t_timeout;
    Alcotest.(check (float 1e-9)) "gave up at the deadline" 2.0 !t_done
  | Some (Error e) ->
    Alcotest.fail ("wrong error: " ^ Source_db.poll_error_to_string e)
  | Some (Ok _) -> Alcotest.fail "black hole answered"
  | None -> Alcotest.fail "poll never returned")

let test_retention_bounds_history () =
  (* regression: history used to grow by one full snapshot per commit
     with no way to prune; the release watermark must cap it *)
  let engine = Engine.create () in
  let src = mk_source engine in
  let retained () = List.length (Source_db.history src) in
  for i = 1 to 20 do
    Source_db.commit src (delta_ins (s_tuple i i i))
  done;
  Engine.run engine;
  Alcotest.(check int) "unreleased history kept" 21 (retained ());
  Source_db.release src ~upto:18;
  Alcotest.(check int) "watermark prunes" 3 (retained ());
  Alcotest.(check int) "latest version intact" 20 (Source_db.version src);
  (* retained tail still answers; pruned versions refuse *)
  ignore (Source_db.state_at_version src 18);
  (try
     ignore (Source_db.state_at_version src 1);
     Alcotest.fail "pruned version served"
   with Source_db.Source_error _ -> ());
  Source_db.release src ~upto:10;
  Alcotest.(check int) "watermark never retreats" 3 (retained ())

let test_filter_drops_irrelevant_atoms () =
  let engine = Engine.create () in
  let src = mk_source engine in
  let received = collect_updates engine src in
  (* ship only rows with s3 < 50, projected to s1,s3 *)
  Source_db.set_filter src ~relation:"S" ~attrs:[ "s1"; "s3" ]
    ~cond:Predicate.(lt (attr "s3") (int 50));
  Source_db.commit src (delta_ins (s_tuple 1 2 3));
  (* filtered out *)
  Source_db.commit src (delta_ins (s_tuple 4 5 99));
  Engine.run engine;
  let atoms =
    List.fold_left
      (fun acc u -> acc + Multi_delta.atom_count u.Message.delta)
      0 !received
  in
  Alcotest.(check int) "only the relevant atom shipped" 1 atoms;
  (* the shipped atom is projected *)
  let narrow =
    List.find_map
      (fun u -> Multi_delta.find u.Message.delta "S")
      (List.rev !received)
  in
  (match narrow with
  | Some d ->
    Rel_delta.fold
      (fun t _ () ->
        Alcotest.(check (list string)) "projected attrs" [ "s1"; "s3" ]
          (List.map fst (Tuple.to_list t)))
      d ()
  | None -> Alcotest.fail "expected a shipped delta");
  (* heartbeat: the filtered-out commit still advanced the announced
     version *)
  let last = List.hd !received in
  Alcotest.(check int) "version heartbeat" 2 last.Message.version

let test_filter_unknown_attr_rejected () =
  let engine = Engine.create () in
  let src = mk_source engine in
  try
    Source_db.set_filter src ~relation:"S" ~attrs:[ "zz" ] ~cond:Predicate.True;
    Alcotest.fail "expected Source_error"
  with Source_db.Source_error _ -> ()

let () =
  Alcotest.run "sources"
    [
      ( "state & history",
        [
          Alcotest.test_case "commit and history" `Quick test_commit_and_history;
          Alcotest.test_case "load after commit" `Quick test_load_after_commit_rejected;
          Alcotest.test_case "unknown relation" `Quick test_unknown_relation_rejected;
        ] );
      ( "announcements",
        [
          Alcotest.test_case "immediate" `Quick test_immediate_announce;
          Alcotest.test_case "periodic batches" `Quick test_periodic_announce_batches;
          Alcotest.test_case "net delta cancels" `Quick test_periodic_net_delta_cancels;
          Alcotest.test_case "never (virtual contributor)" `Quick test_never_announces;
          Alcotest.test_case "source-side filtering" `Quick test_filter_drops_irrelevant_atoms;
          Alcotest.test_case "filter validation" `Quick test_filter_unknown_attr_rejected;
        ] );
      ( "polling",
        [
          Alcotest.test_case "single-state batch" `Quick test_poll_single_state;
          Alcotest.test_case "keyed poll after reload" `Quick test_keyed_poll_declared_index;
          Alcotest.test_case "flush before answer" `Quick test_poll_flushes_pending_first;
          Alcotest.test_case "ordered after racing updates" `Quick test_poll_answer_ordered_after_updates;
          Alcotest.test_case "atomic version stamp (regression)" `Quick test_poll_atomic_version_stamp;
        ] );
      ( "faults",
        [
          Alcotest.test_case "outage refuses polls" `Quick test_outage_refuses_polls;
          Alcotest.test_case "black hole times out" `Quick test_blackhole_times_out;
          Alcotest.test_case "bounded history (regression)" `Quick
            test_retention_bounds_history;
        ] );
    ]
