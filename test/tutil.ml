(* Shared helpers for the test suites: schemas and relations of the
   paper's running examples, alcotest testables, qcheck generators,
   and a check of a mediator's store against a from-scratch build. *)

open Relalg
open Delta

(* the net delta of an expression, through its compiled delta plan *)
let delta_of_expr ~env ~deltas e =
  let schema n =
    match (deltas n, env n) with
    | Some d, _ -> Rel_delta.schema d
    | None, Some b -> Bag.schema b
    | None, None -> raise (Eval.Unbound_relation n)
  in
  Delta_plan.run ~env ~deltas (Delta_plan.of_expr ~schema e)

let v_int i = Value.Int i
let v_str s = Value.Str s

(* --- Example 2.1: R(r1,r2,r3,r4) key r1; S(s1,s2,s3) key s1;
       T = pi_{r1,r3,s1,s2}( sigma_{r4=100} R |X|_{r2=s1} sigma_{s3<50} S ) *)

let schema_r =
  Schema.make ~key:[ "r1" ]
    [ ("r1", Value.TInt); ("r2", Value.TInt); ("r3", Value.TInt); ("r4", Value.TInt) ]

let schema_s =
  Schema.make ~key:[ "s1" ]
    [ ("s1", Value.TInt); ("s2", Value.TInt); ("s3", Value.TInt) ]

let r_tuple r1 r2 r3 r4 =
  Tuple.of_list
    [ ("r1", v_int r1); ("r2", v_int r2); ("r3", v_int r3); ("r4", v_int r4) ]

(* a bag from rows given positionally in schema attribute order *)
let of_rows schema rows =
  Bag.of_tuples schema
    (List.map (fun row -> Tuple.of_list (List.combine (Schema.attrs schema) row)) rows)

let s_tuple s1 s2 s3 =
  Tuple.of_list [ ("s1", v_int s1); ("s2", v_int s2); ("s3", v_int s3) ]

let sample_r =
  Bag.of_tuples schema_r
    [
      r_tuple 1 10 7 100;
      r_tuple 2 20 8 100;
      r_tuple 3 10 9 100;
      r_tuple 4 30 6 200 (* filtered out by r4 = 100 *);
    ]

let sample_s =
  Bag.of_tuples schema_s
    [
      s_tuple 10 55 20;
      s_tuple 20 66 30;
      s_tuple 30 77 99 (* filtered out by s3 < 50 *);
    ]

let cond_r4 = Predicate.(eq (attr "r4") (int 100))
let cond_s3 = Predicate.(lt (attr "s3") (int 50))
let join_cond = Predicate.eq_attrs "r2" "s1"

let t_def =
  Expr.(
    project [ "r1"; "r3"; "s1"; "s2" ]
      (join ~on:join_cond (select cond_r4 (base "R")) (select cond_s3 (base "S"))))

(* A diamond: leaf-parent A′ feeds AB = A′ ⋈_{a2=b2} B′, whose read of
   A′ is restricted to the b2 keys of ΔB′, and AC = A′ ⋈_{a2 ? c2} C′.
   A′ keeps a1, a2 materialized and a3 virtual, so AC reads A′ from the
   store while AB needs a temp: a batch changing B and C together must
   not let AC see the rows kept for AB. With [?] = [<] AC's read is not
   restrictable; with [?] = [=] it is restricted to the c2 keys of ΔC′,
   and the temp must hold a2 ∈ keys(ΔB′) ∪ keys(ΔC′). *)
let diamond_specs = function
  | "A" ->
    [
      { Workload.Datagen.c_attr = "a1"; c_min = 0; c_max = 0 };
      { Workload.Datagen.c_attr = "a2"; c_min = 0; c_max = 7 };
      { Workload.Datagen.c_attr = "a3"; c_min = 0; c_max = 99 };
    ]
  | "B" ->
    [
      { Workload.Datagen.c_attr = "b1"; c_min = 0; c_max = 0 };
      { Workload.Datagen.c_attr = "b2"; c_min = 0; c_max = 7 };
    ]
  | "C" ->
    [
      { Workload.Datagen.c_attr = "c1"; c_min = 0; c_max = 0 };
      { Workload.Datagen.c_attr = "c2"; c_min = 0; c_max = 7 };
    ]
  | rel -> invalid_arg ("diamond_specs: " ^ rel)

let diamond_schema = function
  | "A" ->
    Schema.make ~key:[ "a1" ]
      [ ("a1", Value.TInt); ("a2", Value.TInt); ("a3", Value.TInt) ]
  | "B" -> Schema.make ~key:[ "b1" ] [ ("b1", Value.TInt); ("b2", Value.TInt) ]
  | "C" -> Schema.make ~key:[ "c1" ] [ ("c1", Value.TInt); ("c2", Value.TInt) ]
  | rel -> invalid_arg ("diamond_schema: " ^ rel)

let make_diamond ~ac_on seed =
  let engine = Sim.Engine.create () in
  let rng = Workload.Datagen.state seed in
  let db rel =
    let a =
      Workload.Scenario.mk_source ~backend:`Relational ~engine ~name:("db" ^ rel)
        ~relations:[ (rel, diamond_schema rel) ]
        ~announce:(Sources.Source_db.Periodic 0.9) ()
    in
    Sources.Adapter.load a rel
      (Workload.Datagen.bag rng (diamond_schema rel) (diamond_specs rel) ~size:12);
    a
  in
  let b =
    Vdp.Builder.create
      ~source_of:(function
        | ("A" | "B" | "C") as rel -> Some ("db" ^ rel) | _ -> None)
      ~schema_of:(function
        | ("A" | "B" | "C") as rel -> Some (diamond_schema rel) | _ -> None)
      ()
  in
  Vdp.Builder.add_export b ~name:"AB"
    Expr.(
      project [ "a1"; "a3"; "b1" ]
        (join ~on:(Predicate.eq_attrs "a2" "b2") (base "A") (base "B")));
  Vdp.Builder.add_export b ~name:"AC"
    Expr.(
      project [ "a1"; "c1" ]
        (join ~on:ac_on (base "A") (base "C")));
  Workload.Scenario.make_env ~engine ~vdp:(Vdp.Builder.build b) [ db "A"; db "B"; db "C" ]

let diamond_annotation vdp =
  Vdp.Annotation.of_list vdp [ ("A'", [ ("a3", Vdp.Annotation.V) ]) ]

(* --- alcotest testables --- *)

let bag = Alcotest.testable Bag.pp Bag.equal
let rel_delta = Alcotest.testable Rel_delta.pp Rel_delta.equal
let value = Alcotest.testable Value.pp Value.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal

let check_bag = Alcotest.check bag
let check_delta = Alcotest.check rel_delta

(* --- mediator store against a from-scratch build --- *)

(* a node's extension recomputed from the sources' current states *)
let recompute env node =
  let vdp = env.Workload.Scenario.vdp in
  let env_fn leaf =
    match Vdp.Graph.node_opt vdp leaf with
    | Some { Vdp.Graph.kind = Vdp.Graph.Leaf { source }; _ } ->
      Some (Sources.Adapter.current (Workload.Scenario.source env source) leaf)
    | Some _ | None -> None
  in
  Eval.eval ~env:env_fn (Vdp.Graph.expanded_def vdp node)

(* the store must equal one built from scratch under the mediator's
   annotation: every node with materialized attributes has a table
   equal to the projection of its recomputed extension, every fully
   virtual node has none *)
let check_store env med ~what =
  List.iter
    (fun node ->
      let name = node.Vdp.Graph.name in
      let mat =
        Vdp.Annotation.materialized_attrs (Squirrel.Mediator.annotation med) name
      in
      match (Squirrel.Med.node_table med name, mat) with
      | None, [] -> ()
      | None, _ :: _ -> Alcotest.failf "%s: %s has no table" what name
      | Some _, [] -> Alcotest.failf "%s: %s has a stale table" what name
      | Some tbl, _ :: _ ->
        let expected = Bag.project mat (recompute env name) in
        if not (Bag.equal (Storage.Table.contents tbl) expected) then
          Alcotest.failf "%s: table %s diverges from a from-scratch build"
            what name)
    (Vdp.Graph.non_leaves env.Workload.Scenario.vdp)

(* --- qcheck generators --- *)

(* Small integer domains keep collision (and hence join/diff overlap)
   probability high, which is what exercises the interesting paths. *)
let small_int_gen = QCheck2.Gen.int_range 0 6

let tuple_gen schema =
  let open QCheck2.Gen in
  let attrs = Schema.attrs schema in
  let rec build acc = function
    | [] -> return (Tuple.of_list acc)
    | a :: rest -> small_int_gen >>= fun v -> build ((a, v_int v) :: acc) rest
  in
  build [] attrs

let bag_gen ?(max_size = 12) schema =
  let open QCheck2.Gen in
  list_size (int_range 0 max_size) (tuple_gen schema)
  >|= fun tuples -> Bag.of_tuples schema tuples

(* a delta that is non-redundant w.r.t. [bag]: deletions are drawn from
   the bag's contents (with multiplicity <= present), insertions are
   arbitrary *)
let delta_gen_for schema bag =
  let open QCheck2.Gen in
  let support = Bag.support bag in
  let deletions_gen =
    match support with
    | [] -> return []
    | _ ->
      list_size (int_range 0 4) (oneofl support) >|= fun chosen ->
      (* clamp each tuple's total deletions to its multiplicity *)
      let seen = ref [] in
      let count t =
        List.length (List.filter (fun t' -> Tuple.equal t t') !seen)
      in
      List.filter
        (fun t ->
          if count t < Bag.mult bag t then begin
            seen := t :: !seen;
            true
          end
          else false)
        chosen
  in
  let insertions_gen = list_size (int_range 0 4) (tuple_gen schema) in
  pair deletions_gen insertions_gen >|= fun (dels, inss) ->
  let d = List.fold_left (fun d t -> Rel_delta.delete d t) (Rel_delta.empty schema) dels in
  List.fold_left (fun d t -> Rel_delta.insert d t) d inss

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* the retained spans named [name], preorder, oldest root first *)
let find_spans trace name =
  let acc = ref [] in
  Obs.Trace.iter_spans
    (fun sp -> if String.equal sp.Obs.Trace.name name then acc := sp :: !acc)
    trace;
  List.rev !acc

(* [expr] prepared at [src] and asked whole: no projection or
   condition of the request's own, and a key only when given *)
let ask ?key src expr =
  {
    Sources.Source_db.rq_prepared = Sources.Source_db.prepare src expr;
    rq_attrs = None;
    rq_cond = Predicate.True;
    rq_key = key;
  }
