(* Backend-conformance suite: one set of source-contract checks run
   against the database of every backend family — the relational
   Source_db, the Triple_store (native put/delete mutations mapped into
   signed-bag deltas), and a mediator mirrored as a source (Med_source
   over a child's materialized export). Plus the heterogeneity
   differential: the same fig1 workload over relational and triple
   backends must produce bag-identical answers with identical reflect
   vectors. *)

open Relalg
open Delta
open Sim
open Sources
open Squirrel
open Workload
open Tutil

(* --- the parametric fixture ------------------------------------------- *)

(* Each backend exposes the same logical relation (schema_s, exported
   as [i_relation]), loaded with [init] at version 0, and a way to
   insert/delete one copy of a tuple through its own mutation path.
   [i_quiesce] drives the engine far enough for the mutation to be
   visible in the adapter's database. *)
type inst = {
  i_adapter : Adapter.t;
  i_relation : string;
  i_insert : Tuple.t -> unit;
  i_delete : Tuple.t -> unit;
  i_quiesce : unit -> unit;
}

let k_tuple k = s_tuple k (k * 10) (k mod 100)

(* attach a mediator end so polls can travel: answers are filled into
   their ivars, announcements are dropped *)
let connect engine a =
  Source_db.connect (Adapter.db a) ~comm_delay:0.01 ~q_proc_delay:0.01 (function
    | Message.Update _ -> ()
    | Message.Answer (iv, ans) -> Engine.Ivar.fill engine iv ans)

let one f tuple = Multi_delta.singleton "S" (f (Rel_delta.empty schema_s) tuple)

let relational_inst init engine =
  let db =
    Source_db.create ~engine ~name:"db" ~relations:[ ("S", schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  let a = Adapter.relational db in
  Option.iter (Adapter.load a "S") init;
  connect engine a;
  {
    i_adapter = a;
    i_relation = "S";
    i_insert = (fun tuple -> Adapter.commit a (one Rel_delta.insert tuple));
    i_delete = (fun tuple -> Adapter.commit a (one Rel_delta.delete tuple));
    i_quiesce = (fun () -> Engine.run engine);
  }

let triple_inst init engine =
  let ts =
    Triple_store.create ~engine ~name:"db" ~relations:[ ("S", schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  (* live entity ids per inserted tuple; a delete retracts the newest,
     or (for a loaded tuple) goes through the relational face *)
  let ids = Tuple.Tbl.create 8 in
  let a = Adapter.triple ts in
  Option.iter (Adapter.load a "S") init;
  connect engine a;
  {
    i_adapter = a;
    i_relation = "S";
    i_insert =
      (fun tuple ->
        let id = Triple_store.put ts ~relation:"S" (Tuple.to_list tuple) in
        Tuple.Tbl.replace ids tuple
          (id :: Option.value ~default:[] (Tuple.Tbl.find_opt ids tuple)));
    i_delete =
      (fun tuple ->
        match Tuple.Tbl.find_opt ids tuple with
        | Some (id :: rest) ->
          Tuple.Tbl.replace ids tuple rest;
          Triple_store.delete ts id
        | Some [] | None -> Adapter.commit a (one Rel_delta.delete tuple));
    i_quiesce = (fun () -> Engine.run engine);
  }

(* child mediator over one relational source, exporting S identically;
   mutations are commits at the child's own source, surfaced in the
   mirror after the child's update transaction runs *)
let mediator_inst init engine =
  let db =
    Source_db.create ~engine ~name:"dbS" ~relations:[ ("S", schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  let src = Adapter.relational db in
  Option.iter (Adapter.load src "S") init;
  let b =
    Vdp.Builder.create
      ~source_of:(function "S" -> Some "dbS" | _ -> None)
      ~schema_of:(function "S" -> Some schema_s | _ -> None)
      ()
  in
  Vdp.Builder.add_export b ~name:"E" (Expr.base "S");
  let vdp = Vdp.Builder.build b in
  let child =
    Mediator.create ~engine ~vdp
      ~annotation:(Vdp.Annotation.fully_materialized vdp)
      ~sources:[ db ] ()
  in
  Mediator.connect child ();
  Engine.spawn engine (fun () -> Mediator.initialize child);
  Engine.run engine ~until:1.0;
  let ms = Med_source.create child in
  let quiesce () = Engine.run engine ~until:(Engine.now engine +. 5.0) in
  let a = Adapter.mirror (Med_source.source_db ms) in
  connect engine a;
  {
    i_adapter = a;
    i_relation = "E";
    i_insert =
      (fun tuple ->
        Adapter.commit src (one Rel_delta.insert tuple);
        quiesce ());
    i_delete =
      (fun tuple ->
        Adapter.commit src (one Rel_delta.delete tuple);
        quiesce ());
    i_quiesce = quiesce;
  }

let backends =
  [
    ("relational", relational_inst);
    ("triple", triple_inst);
    ("mediator", mediator_inst);
  ]

(* --- contract checks --------------------------------------------------- *)

let test_identity mk () =
  let engine = Engine.create () in
  let i = mk None engine in
  let a = Adapter.db i.i_adapter in
  Alcotest.(check bool) "kind nonempty" true (Adapter.kind i.i_adapter <> "");
  Alcotest.(check bool)
    "relation listed" true
    (List.mem i.i_relation (Source_db.relation_names a));
  Alcotest.(check bool)
    "schema matches" true
    (Schema.equal (Source_db.schema a i.i_relation) schema_s);
  Alcotest.(check bool) "announces" true (Source_db.announces a)

(* one quiesced mutation round, one version; current state tracks the
   mutations exactly *)
let test_version_cadence mk () =
  let engine = Engine.create () in
  let i = mk None engine in
  let a = Adapter.db i.i_adapter in
  let v0 = Source_db.version a in
  i.i_insert (k_tuple 1);
  i.i_quiesce ();
  Alcotest.(check int) "one version per insert" (v0 + 1) (Source_db.version a);
  i.i_insert (k_tuple 2);
  i.i_quiesce ();
  i.i_delete (k_tuple 1);
  i.i_quiesce ();
  Alcotest.(check int) "three versions" (v0 + 3) (Source_db.version a);
  check_bag "current reflects all mutations"
    (Bag.of_tuples schema_s [ k_tuple 2 ])
    (Source_db.current a i.i_relation)

let test_history mk () =
  let engine = Engine.create () in
  let i = mk None engine in
  let a = Adapter.db i.i_adapter in
  let v0 = Source_db.version a in
  i.i_insert (k_tuple 1);
  i.i_quiesce ();
  i.i_insert (k_tuple 2);
  i.i_quiesce ();
  let vn = Source_db.version a in
  Alcotest.(check int)
    "history spans v0..vn"
    (vn - v0 + 1)
    (List.length (Source_db.history a));
  check_bag "mid-history state"
    (Bag.of_tuples schema_s [ k_tuple 1 ])
    (List.assoc i.i_relation (Source_db.state_at_version a (v0 + 1)));
  let t1 = Source_db.commit_time_of_version a (v0 + 1) in
  let t2 = Source_db.commit_time_of_version a (v0 + 2) in
  Alcotest.(check bool) "commit times monotone" true (t1 <= t2);
  Alcotest.(check (option (float 1e-9)))
    "next commit after v0+1" (Some t2)
    (Source_db.next_commit_time_after a (v0 + 1));
  Alcotest.(check (option (float 1e-9)))
    "nothing after the last version" None
    (Source_db.next_commit_time_after a vn)

(* a poll answers from the current state and stamps the version it
   reflects *)
let test_poll mk () =
  let engine = Engine.create () in
  let i = mk None engine in
  let a = Adapter.db i.i_adapter in
  i.i_insert (k_tuple 1);
  i.i_insert (k_tuple 2);
  i.i_quiesce ();
  let result = ref None in
  Engine.spawn engine (fun () ->
      result := Some (Source_db.try_poll a [ ("q", ask a (Expr.base i.i_relation)) ]));
  Engine.run engine ~until:(Engine.now engine +. 30.0);
  match !result with
  | Some (Ok ans) ->
    Alcotest.(check string)
      "answer names the source" (Source_db.name a) ans.Message.answer_source;
    Alcotest.(check int)
      "answer reflects the current version" (Source_db.version a)
      ans.Message.answer_version;
    check_bag "answer is the current state"
      (Source_db.current a i.i_relation)
      (List.assoc "q" ans.Message.results)
  | Some (Error e) -> Alcotest.fail (Source_db.poll_error_to_string e)
  | None -> Alcotest.fail "poll did not complete"

let test_outage_refusal mk () =
  let engine = Engine.create () in
  let i = mk None engine in
  let a = Adapter.db i.i_adapter in
  let now = Engine.now engine in
  Source_db.set_outages a [ (now +. 1.0, now +. 3.0) ];
  let result = ref None in
  Engine.schedule engine ~delay:2.0 (fun () ->
      Engine.spawn engine (fun () ->
          result :=
            Some (Source_db.try_poll a [ ("q", ask a (Expr.base i.i_relation)) ])));
  Engine.run engine ~until:(now +. 30.0);
  match !result with
  | Some (Error (Source_db.Unavailable { u_until = Some t; u_source })) ->
    Alcotest.(check string)
      "refusal names the source" (Source_db.name a) u_source;
    Alcotest.(check (float 1e-9)) "refusal carries the window end"
      (now +. 3.0) t
  | Some (Error e) ->
    Alcotest.fail
      ("expected Unavailable, got " ^ Source_db.poll_error_to_string e)
  | Some (Ok _) -> Alcotest.fail "expected a refusal inside the outage window"
  | None -> Alcotest.fail "poll did not complete"

let test_outage_black_hole mk () =
  let engine = Engine.create () in
  let i = mk None engine in
  let a = Adapter.db i.i_adapter in
  let now = Engine.now engine in
  Source_db.set_outages a ~mode:Source_db.Black_hole [ (now, now +. 60.0) ];
  let result = ref None in
  Engine.spawn engine (fun () ->
      result :=
        Some
          (Source_db.try_poll a ~timeout:2.0
             [ ("q", ask a (Expr.base i.i_relation)) ]));
  Engine.run engine ~until:(now +. 30.0);
  match !result with
  | Some (Error (Source_db.Timed_out { t_timeout; _ })) ->
    Alcotest.(check (float 1e-9)) "timeout echoed" 2.0 t_timeout
  | Some (Error e) ->
    Alcotest.fail
      ("expected Timed_out, got " ^ Source_db.poll_error_to_string e)
  | Some (Ok _) -> Alcotest.fail "expected a timeout through the black hole"
  | None -> Alcotest.fail "poll did not complete"

(* --- keyed polls ---------------------------------------------------------- *)

(* the answers of [requests], polled in one source transaction *)
let poll_results engine a requests =
  let result = ref None in
  Engine.spawn engine (fun () ->
      result := Some (Source_db.try_poll a requests));
  Engine.run engine ~until:(Engine.now engine +. 30.0);
  match !result with
  | Some (Ok ans) -> ans.Message.results
  | Some (Error e) -> Alcotest.fail (Source_db.poll_error_to_string e)
  | None -> Alcotest.fail "poll did not complete"

let s_row s1 s2 =
  Tuple.of_list [ ("s1", v_int s1); ("s2", s2); ("s3", v_int (s1 mod 3)) ]

(* the key column s2 holds Null and repeated values; Float 10. equals
   Int 10 under Value.equal, a Null key matches nothing, 999 has no
   rows *)
let s2_values = Value.[ Null; Int 0; Int 10; Int 20; Int 30 ]

let key_sets =
  Value.
    [
      [ Int 10 ];
      [ Float 10. ];
      [ Null ];
      [ Int 999 ];
      [ Int 0; Int 20 ];
      [ Int 10; Float 10.; Null; Int 30 ];
    ]

let in_keys attr ks =
  Predicate.disj
    (List.map (fun v -> Predicate.eq (Predicate.attr attr) (Predicate.Const v)) ks)

(* per key set, the same query asked unkeyed and keyed: a plain
   selection, and one through a rename and a projection (the key still
   names the base column), both keyed on the declared column s2; and a
   selection keyed on s3, which no declaration names *)
let keyed_queries rel =
  List.concat
    (List.mapi
       (fun i ks ->
         let plain = Expr.select (in_keys "s2" ks) (Expr.base rel) in
         let renamed =
           Expr.project [ "t2"; "s3" ]
             (Expr.select (in_keys "t2" ks)
                (Expr.rename [ ("s2", "t2") ] (Expr.base rel)))
         in
         let key = { Source_db.k_column = "s2"; k_values = ks } in
         let s3_keys = Value.Int (i mod 3) :: ks in
         [
           (Printf.sprintf "plain%d" i, plain, key);
           (Printf.sprintf "renamed%d" i, renamed, key);
           ( Printf.sprintf "undeclared%d" i,
             Expr.select (in_keys "s3" s3_keys) (Expr.base rel),
             { Source_db.k_column = "s3"; k_values = s3_keys } );
         ])
       key_sets)

(* Over a random insert/delete stream, a keyed poll answers exactly what
   the unkeyed poll of the same query answers, at every version from
   the load on: multiplicities above one, partial deletes, Null in the
   key column, Int/Float keys, keys without rows, multi-key sets, and
   keys on a column no declaration names (served by a scan). The
   declared index is built by the declaration (version 0) and must
   follow every later commit; no poll builds another. *)
let test_keyed_poll mk () =
  let engine = Engine.create () in
  let init =
    Bag.add ~mult:2
      (Bag.of_tuples schema_s [ s_row 1 (v_int 10); s_row 2 Value.Null ])
      (s_row 3 (v_int 10))
  in
  let i = mk (Some init) engine in
  let a = Adapter.db i.i_adapter in
  let qs = keyed_queries i.i_relation in
  (* each query prepared once, asked unkeyed and keyed at every
     version *)
  let unkeyed = List.map (fun (l, e, _) -> ("u_" ^ l, ask a e)) qs in
  let keyed = List.map (fun (l, e, key) -> ("k_" ^ l, ask a ~key e)) qs in
  (* the keyed answers at the current version, each checked against
     its unkeyed twin *)
  let check_version () =
    let res = poll_results engine a (unkeyed @ keyed) in
    List.iter
      (fun (l, _, _) ->
        check_bag
          (Printf.sprintf "%s at v%d" l (Source_db.version a))
          (List.assoc ("u_" ^ l) res)
          (List.assoc ("k_" ^ l) res))
      qs;
    res
  in
  let rows_keyed_10 res = Bag.cardinal (List.assoc "k_plain0" res) in
  let declared = [ (i.i_relation, "s2") ] in
  Alcotest.(check (list (pair string string)))
    "no index before a declaration" [] (Source_db.indexed a);
  let declare () =
    ignore (Source_db.prepare a ~keys:[ "s2" ] (Expr.base i.i_relation))
  in
  declare ();
  declare ();
  Alcotest.(check (list (pair string string)))
    "one index, on the declared column" declared (Source_db.indexed a);
  Alcotest.(check int) "v0: three rows keyed 10" 3 (rows_keyed_10 (check_version ()));
  Alcotest.(check (list (pair string string)))
    "no poll builds an index" declared (Source_db.indexed a);
  (* a partial delete: one of the two copies *)
  i.i_delete (s_row 3 (v_int 10));
  i.i_quiesce ();
  Alcotest.(check int)
    "partial delete: two rows keyed 10" 2
    (rows_keyed_10 (check_version ()));
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 30 do
    let present = Bag.support (Source_db.current a i.i_relation) in
    (if present = [] || Random.State.int rng 5 < 3 then
       i.i_insert
         (s_row (1 + Random.State.int rng 4)
            (List.nth s2_values (Random.State.int rng (List.length s2_values))))
     else
       i.i_delete (List.nth present (Random.State.int rng (List.length present))));
    i.i_quiesce ();
    ignore (check_version ())
  done;
  Alcotest.(check (list (pair string string)))
    "still the declared index only" declared (Source_db.indexed a);
  Alcotest.(check bool)
    "the undeclared keys were scanned" true (Source_db.scanned_keys a > 0)

(* Prepared polls against the evaluator. Per request, a one-request
   poll's answer and tuple-op charge are checked against [Eval.eval] of
   [π_attrs σ_cond def]: over the current relation for the answer, and
   for the charge over the rows the key selects, plus one op per key
   (Nulls dropped, equal values merged; a key set at least as large as
   the relation's distinct rows reads all of it and charges no key
   op). The definitions are the bare relation, a selection, and a
   rename with a projection, whose key still names the base column;
   the keys are on a declared column (s2) and on undeclared ones (s1,
   s3), and include an empty set, Null, Int 10 and Float 10., and a set
   larger than the relation. Each handle is prepared once and asked
   again after commits. *)
let test_prepared_poll mk () =
  let engine = Engine.create () in
  let init =
    Bag.add ~mult:2
      (Bag.of_tuples schema_s
         [ s_row 1 (v_int 10); s_row 2 Value.Null; s_row 4 (v_int 20); s_row 5 (v_int 30) ])
      (s_row 3 (v_int 10))
  in
  let i = mk (Some init) engine in
  let a = Adapter.db i.i_adapter in
  let rel = i.i_relation in
  let defs =
    [
      ("bare", Expr.base rel, fun c -> c);
      ("select", Expr.select Predicate.(lt (attr "s3") (int 2)) (Expr.base rel), fun c -> c);
      ( "rename",
        Expr.project [ "t1"; "t2"; "s3" ]
          (Expr.rename [ ("s1", "t1"); ("s2", "t2") ] (Expr.base rel)),
        function "s1" -> "t1" | "s2" -> "t2" | c -> c );
    ]
  in
  let prepared =
    List.map (fun (name, def, at) -> (name, def, at, Source_db.prepare a ~keys:[ "s2" ] def)) defs
  in
  let many = List.init 12 (fun v -> Value.Int v) in
  (* (what, narrowed attributes, key column and values); the key set is
     conjoined to the request's condition, as the VAP asks *)
  let cases at =
    let narrow = Some [ at "s2"; at "s1" ] in
    let keyed col vs = Some { Source_db.k_column = col; k_values = vs } in
    [
      ("whole", None, None);
      ("narrower", narrow, None);
      ("declared", None, keyed "s2" Value.[ Int 10 ]);
      ("declared, narrower", narrow, keyed "s2" Value.[ Int 10; Int 30 ]);
      ("Float key", None, keyed "s2" Value.[ Float 10. ]);
      ("Int = Float, Null", narrow, keyed "s2" Value.[ Int 10; Float 10.; Null; Int 30 ]);
      ("Null only", None, keyed "s2" Value.[ Null ]);
      ("empty", None, keyed "s2" []);
      ("undeclared", None, keyed "s3" Value.[ Int 1; Int 2 ]);
      ("undeclared, narrower", narrow, keyed "s1" Value.[ Int 3 ]);
      ("at least the support", narrow, keyed "s2" many);
    ]
  in
  let request (_, def, at, p) (what, attrs, key) =
    let cond =
      match key with
      | None -> if what = "whole" then Predicate.True else Predicate.(lt (attr (at "s3")) (int 2))
      | Some k -> Predicate.one_of (at k.Source_db.k_column) k.Source_db.k_values
    in
    (def, { Source_db.rq_prepared = p; rq_attrs = attrs; rq_cond = cond; rq_key = key })
  in
  let oracle def (rq : Source_db.request) =
    let current = Source_db.current a rel in
    let expr =
      let sel =
        if Predicate.equal rq.rq_cond Predicate.True then def else Expr.select rq.rq_cond def
      in
      match rq.rq_attrs with None -> sel | Some attrs -> Expr.project attrs sel
    in
    let rows, key_ops =
      match rq.rq_key with
      | None -> (current, 0)
      | Some k ->
        let ks = Predicate.normalize_keys k.k_values in
        if List.length ks >= Bag.support_cardinal current then (current, 0)
        else
          ( Bag.filter
              (fun t -> List.exists (Value.equal (Tuple.get t k.k_column)) ks)
              current,
            List.length ks )
    in
    let env rows n = if String.equal n rel then Some rows else None in
    let answer = Eval.eval ~env:(env current) expr in
    let ops0 = Eval.tuple_ops () in
    ignore (Eval.eval ~env:(env rows) expr : Bag.t);
    (answer, key_ops + Eval.tuple_ops () - ops0)
  in
  let poll rq =
    let result = ref None in
    Engine.spawn engine (fun () ->
        let ops0 = Eval.tuple_ops () in
        let r = Source_db.try_poll a [ ("q", rq) ] in
        result := Some (r, Eval.tuple_ops () - ops0));
    Engine.run engine ~until:(Engine.now engine +. 30.0);
    match !result with
    | Some (Ok ans, ops) -> (List.assoc "q" ans.Message.results, ops)
    | Some (Error e, _) -> Alcotest.fail (Source_db.poll_error_to_string e)
    | None -> Alcotest.fail "poll did not complete"
  in
  let check_all () =
    List.iter
      (fun ((name, _, at, _) as pd) ->
        List.iter
          (fun ((what, _, _) as case) ->
            let def, rq = request pd case in
            let label = Printf.sprintf "%s/%s at v%d" name what (Source_db.version a) in
            let want, want_ops = oracle def rq in
            let got, got_ops = poll rq in
            check_bag (label ^ ": answer") want got;
            Alcotest.(check int) (label ^ ": tuple ops") want_ops got_ops)
          (cases at))
      prepared
  in
  let declared = [ (rel, "s2") ] in
  Alcotest.(check (list (pair string string)))
    "the prepared key column is indexed" declared (Source_db.indexed a);
  let scanned = Source_db.scanned_keys a in
  check_all ();
  i.i_insert (s_row 6 (v_int 10));
  i.i_delete (s_row 3 (v_int 10));
  i.i_quiesce ();
  check_all ();
  Alcotest.(check (list (pair string string)))
    "no poll builds an index" declared (Source_db.indexed a);
  Alcotest.(check bool)
    "the undeclared keys were scanned" true (Source_db.scanned_keys a > scanned)

(* the mediator-backed source is read-only upstream *)
let test_mediator_read_only () =
  let engine = Engine.create () in
  let i = mediator_inst None engine in
  let delta =
    Multi_delta.singleton "E"
      (Rel_delta.insert (Rel_delta.empty schema_s) (k_tuple 9))
  in
  (try
     Adapter.commit i.i_adapter delta;
     Alcotest.fail "expected Source_error on upstream commit"
   with Source_db.Source_error _ -> ());
  try
    Adapter.load i.i_adapter "E" (Bag.empty schema_s);
    Alcotest.fail "expected Source_error on upstream load"
  with Source_db.Source_error _ -> ()

(* a triple store validates a whole relational delta before its first
   native change: a two-relation delta whose second part is invalid
   leaves its entities and the export version untouched *)
let test_triple_invalid_delta_atomic () =
  let engine = Engine.create () in
  let ts =
    Triple_store.create ~engine ~name:"db"
      ~relations:[ ("R", schema_r); ("S", schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  let id = Triple_store.put ts ~relation:"S" (Tuple.to_list (k_tuple 1)) in
  let entity = Triple_store.get ts id in
  let valid_r =
    Rel_delta.insert (Rel_delta.empty schema_r) (r_tuple 1 2 3 100)
  in
  let invalid_second_parts =
    [
      ( "retract no entity renders",
        "S",
        Rel_delta.delete (Rel_delta.empty schema_s) (k_tuple 2) );
      ( "tuple outside the schema",
        "S",
        Rel_delta.insert (Rel_delta.empty schema_s) (r_tuple 5 6 7 8) );
      ( "unknown relation",
        "Z",
        Rel_delta.insert (Rel_delta.empty schema_s) (k_tuple 3) );
    ]
  in
  List.iter
    (fun (what, rel, d) ->
      let db = Triple_store.source_db ts in
      let version = Source_db.version db in
      let delta = Multi_delta.add (Multi_delta.singleton "R" valid_r) rel d in
      (try
         Triple_store.commit ts delta;
         Alcotest.fail (what ^ ": expected Source_error")
       with Source_db.Source_error _ -> ());
      (* ids are handed out in order, so an entity asserted by the
         valid first part would have taken [id + 1] *)
      Alcotest.(check bool) (what ^ ": entity kept") true
        (Triple_store.get ts id = entity);
      Alcotest.(check bool) (what ^ ": no entity asserted") true
        (Triple_store.get ts (id + 1) = None);
      Alcotest.(check int) (what ^ ": export version") version
        (Source_db.version db);
      check_bag (what ^ ": export R") (Bag.empty schema_r)
        (Source_db.current db "R"))
    invalid_second_parts

(* the mirror's version 0 is the child's export state, so the child
   must be initialized before it is wrapped *)
let test_mirror_needs_initialized_child () =
  let engine = Engine.create () in
  let db =
    Source_db.create ~engine ~name:"dbS" ~relations:[ ("S", schema_s) ]
      ~announce:Source_db.Immediate ()
  in
  let b =
    Vdp.Builder.create
      ~source_of:(function "S" -> Some "dbS" | _ -> None)
      ~schema_of:(function "S" -> Some schema_s | _ -> None)
      ()
  in
  Vdp.Builder.add_export b ~name:"E" (Expr.base "S");
  let vdp = Vdp.Builder.build b in
  let child =
    Mediator.create ~engine ~vdp
      ~annotation:(Vdp.Annotation.fully_materialized vdp)
      ~sources:[ db ] ()
  in
  try
    ignore (Med_source.create child);
    Alcotest.fail "expected Mediator_error on an uninitialized child"
  with Med.Mediator_error _ -> ()

(* --- heterogeneity differential ---------------------------------------- *)

(* the same fig1 environment over relational and triple backends, fed a
   scripted identical update sequence: answers must be bag-identical
   and reflect the same source versions *)
let run_fig1 backend =
  let env = Scenario.make_fig1 ~seed:7 ~backend () in
  let med = Scenario.mediator env ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) () in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  let db1 = Scenario.source env "db1" and db2 = Scenario.source env "db2" in
  let ins db rel schema tuple delay =
    Engine.schedule env.Scenario.engine ~delay (fun () ->
        Adapter.commit db
          (Multi_delta.singleton rel
             (Rel_delta.insert (Rel_delta.empty schema) tuple)))
  in
  let del db rel schema tuple delay =
    Engine.schedule env.Scenario.engine ~delay (fun () ->
        Adapter.commit db
          (Multi_delta.singleton rel
             (Rel_delta.delete (Rel_delta.empty schema) tuple)))
  in
  ins db1 "R" schema_r (r_tuple 1000 10 1 100) 0.5;
  ins db2 "S" schema_s (s_tuple 500 7 10) 0.7;
  ins db1 "R" schema_r (r_tuple 1001 500 2 100) 0.9;
  ins db1 "R" schema_r (r_tuple 1002 500 3 200) 1.1;
  del db1 "R" schema_r (r_tuple 1000 10 1 100) 1.3;
  ins db2 "S" schema_s (s_tuple 501 8 99) 1.5;
  Scenario.run_to_quiescence env med;
  let ans = ref None in
  Engine.spawn env.Scenario.engine (fun () ->
      ans := Some (Mediator.query med ~node:"T" ()));
  Engine.run env.Scenario.engine
    ~until:(Engine.now env.Scenario.engine +. 30.0);
  match !ans with
  | Some a -> (env, a)
  | None -> Alcotest.fail "query did not complete"

let entry_str = function
  | Med.Version v -> Printf.sprintf "v%d" v
  | Med.Current -> "current"

let test_differential () =
  let env_r, ans_r = run_fig1 `Relational in
  let env_t, ans_t = run_fig1 `Triple in
  Alcotest.(check string)
    "backends differ" "triple"
    (Adapter.kind (Scenario.source env_t "db1"));
  check_bag "answers bag-identical across backends" ans_r.Qp.tuples
    ans_t.Qp.tuples;
  Alcotest.(check (list (pair string string)))
    "reflect vectors identical"
    (List.map (fun (s, e) -> (s, entry_str e)) ans_r.Qp.reflect)
    (List.map (fun (s, e) -> (s, entry_str e)) ans_t.Qp.reflect);
  (* the base exports themselves agree, not just the view *)
  List.iter
    (fun (src, rel) ->
      check_bag
        (Printf.sprintf "%s/%s exports agree" src rel)
        (Adapter.current (Scenario.source env_r src) rel)
        (Adapter.current (Scenario.source env_t src) rel))
    [ ("db1", "R"); ("db2", "S") ]

let conformance name check =
  List.map
    (fun (backend, mk) ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name backend) `Quick
        (check mk))
    backends

let () =
  Alcotest.run "adapter"
    [
      ("identity", conformance "identity" test_identity);
      ("versions", conformance "version cadence" test_version_cadence);
      ("history", conformance "history" test_history);
      ("poll", conformance "poll" test_poll);
      ("keyed poll", conformance "keyed = unkeyed" test_keyed_poll);
      ("prepared poll", conformance "prepared = evaluated" test_prepared_poll);
      ("outage refusal", conformance "refusal" test_outage_refusal);
      ("outage black hole", conformance "black hole" test_outage_black_hole);
      ( "read-only upstream",
        [ Alcotest.test_case "mediator-backed" `Quick test_mediator_read_only ]
      );
      ( "triple store",
        [
          Alcotest.test_case "invalid delta changes nothing" `Quick
            test_triple_invalid_delta_atomic;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "uninitialized child rejected" `Quick
            test_mirror_needs_initialized_child;
        ] );
      ( "heterogeneity differential",
        [ Alcotest.test_case "fig1 relational vs triple" `Quick test_differential ]
      );
    ]
