(* Unit tests for the relational-algebra substrate. *)

open Relalg
open Tutil

(* --- Value --- *)

let test_value_compare () =
  Alcotest.(check bool) "int eq" true (Value.equal (v_int 3) (v_int 3));
  Alcotest.(check bool)
    "int/float numeric equality" true
    (Value.equal (v_int 3) (Value.Float 3.0));
  Alcotest.(check bool) "str lt" true (Value.compare (v_str "a") (v_str "b") < 0);
  Alcotest.(check bool)
    "null never lt" false
    Predicate.(compile (lt (Const Value.Null) (int 1)) Tuple.empty);
  Alcotest.(check int) "ordering across types" (-1)
    (compare (Value.compare (Value.Bool true) (v_int 0)) 0)

let test_value_arith () =
  Alcotest.check value "int add" (v_int 7) (Value.add (v_int 3) (v_int 4));
  Alcotest.check value "promotion"
    (Value.Float 4.5)
    (Value.add (v_int 4) (Value.Float 0.5));
  Alcotest.check value "mul" (v_int 12) (Value.mul (v_int 3) (v_int 4));
  Alcotest.(check_raises) "string arith" (Value.Type_error
    "add: non-numeric operands (string, int)") (fun () ->
      ignore (Value.add (v_str "x") (v_int 1)))

let test_value_hash_consistency () =
  Alcotest.(check bool)
    "equal values share hash" true
    (Value.hash (v_int 5) = Value.hash (Value.Float 5.0))

(* --- Schema --- *)

let test_schema_basic () =
  Alcotest.(check (list string))
    "attrs in order"
    [ "r1"; "r2"; "r3"; "r4" ]
    (Schema.attrs schema_r);
  Alcotest.(check (list string)) "key" [ "r1" ] (Schema.key schema_r);
  Alcotest.(check bool) "mem" true (Schema.mem schema_r "r3");
  Alcotest.(check bool) "not mem" false (Schema.mem schema_r "zz")

let test_schema_project () =
  let p = Schema.project schema_r [ "r3"; "r1" ] in
  Alcotest.(check (list string)) "reordered" [ "r3"; "r1" ] (Schema.attrs p);
  Alcotest.(check (list string)) "key kept" [ "r1" ] (Schema.key p);
  let q = Schema.project schema_r [ "r2" ] in
  Alcotest.(check (list string)) "key dropped" [] (Schema.key q);
  Alcotest.check_raises "unknown attr"
    (Schema.Schema_error "project: unknown attribute \"zz\"") (fun () ->
      ignore (Schema.project schema_r [ "zz" ]))

let test_schema_dup () =
  Alcotest.check_raises "duplicate attribute"
    (Schema.Schema_error "duplicate attribute \"a\"") (fun () ->
      ignore (Schema.make [ ("a", Value.TInt); ("a", Value.TInt) ]))

let test_schema_join () =
  let j = Schema.join schema_r schema_s in
  Alcotest.(check (list string))
    "joined attrs"
    [ "r1"; "r2"; "r3"; "r4"; "s1"; "s2"; "s3" ]
    (Schema.attrs j);
  Alcotest.(check (list string)) "combined key" [ "r1"; "s1" ] (Schema.key j);
  (* shared attribute with agreeing type merges *)
  let a = Schema.make [ ("x", Value.TInt); ("y", Value.TInt) ] in
  let b = Schema.make [ ("y", Value.TInt); ("z", Value.TInt) ] in
  Alcotest.(check (list string))
    "shared merged" [ "x"; "y"; "z" ]
    (Schema.attrs (Schema.join a b));
  let b_bad = Schema.make [ ("y", Value.TStr) ] in
  Alcotest.check_raises "type conflict"
    (Schema.Schema_error "join: attribute \"y\" has conflicting types")
    (fun () -> ignore (Schema.join a b_bad))

let test_schema_union_compatible () =
  Alcotest.(check bool)
    "same schema" true
    (Schema.union_compatible schema_r schema_r);
  Alcotest.(check bool)
    "different" false
    (Schema.union_compatible schema_r schema_s)

(* --- Tuple --- *)

let test_tuple_basic () =
  let t = r_tuple 1 10 7 100 in
  Alcotest.check value "get" (v_int 10) (Tuple.get t "r2");
  Alcotest.check_raises "get absent" Not_found (fun () -> ignore (Tuple.get t "zz"));
  Alcotest.(check int) "arity" 4 (List.length (Tuple.to_list t));
  Alcotest.check tuple "project"
    (Tuple.of_list [ ("r1", v_int 1); ("r3", v_int 7) ])
    (Tuple.projector [ "r1"; "r3" ] t)

let test_tuple_concat () =
  let a = Tuple.of_list [ ("x", v_int 1); ("y", v_int 2) ] in
  let b = Tuple.of_list [ ("y", v_int 2); ("z", v_int 3) ] in
  let merge = Tuple.merger () in
  (match merge a b with
  | Some m -> Alcotest.(check int) "merged arity" 3 (List.length (Tuple.to_list m))
  | None -> Alcotest.fail "concat should agree");
  let b_bad = Tuple.of_list [ ("y", v_int 9) ] in
  Alcotest.(check bool)
    "disagreement" true
    (Option.is_none (merge a b_bad))

(* a maker fills the interned descriptor in the names' order: the same
   tuple as [of_list] over the paired bindings, whatever that order *)
let test_tuple_maker () =
  let names = [ "c"; "a"; "b" ] in
  let make = Tuple.maker names in
  let vals = Value.[ Int 3; Null; Str "x" ] in
  let t = make vals in
  Alcotest.(check bool)
    "equals of_list" true
    (Tuple.equal t (Tuple.of_list (List.combine names vals)));
  Alcotest.(check (list string))
    "sorted attrs" [ "a"; "b"; "c" ]
    (List.map fst (Tuple.to_list t));
  Alcotest.(check bool) "c" true (Value.equal (Tuple.get t "c") (Value.Int 3));
  Alcotest.(check bool) "empty" true (Tuple.equal (Tuple.maker [] []) Tuple.empty);
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "duplicate name" true (invalid (fun () -> Tuple.maker [ "a"; "a" ]));
  Alcotest.(check bool) "too few" true (invalid (fun () -> make [ Value.Int 1 ]));
  Alcotest.(check bool) "too many" true (invalid (fun () -> make (Value.Int 0 :: vals)))

let test_tuple_schema_match () =
  let shape_r = Tuple.shape schema_r in
  Alcotest.(check bool)
    "matches" true
    (Tuple.fits shape_r (r_tuple 1 2 3 4));
  Alcotest.(check bool)
    "wrong arity" false
    (Tuple.fits shape_r (s_tuple 1 2 3));
  let wrong_ty =
    Tuple.of_list
      [ ("r1", v_str "x"); ("r2", v_int 0); ("r3", v_int 0); ("r4", v_int 0) ]
  in
  Alcotest.(check bool) "wrong type" false (Tuple.fits shape_r wrong_ty)

(* --- Predicate --- *)

let test_predicate_eval () =
  let t = r_tuple 1 10 7 100 in
  Alcotest.(check bool) "eq true" true (Predicate.compile cond_r4 t);
  Alcotest.(check bool)
    "arith condition" true
    Predicate.(compile (lt (Add (attr "r1", attr "r3")) (int 9)) t);
  Alcotest.(check bool)
    "nonlinear condition (Example 5.1 style)" true
    Predicate.(
      compile (lt (Add (Mul (attr "r1", attr "r1"), attr "r3")) (int 9)) t);
  Alcotest.(check bool)
    "and/or/not" true
    Predicate.(
      compile (conj [ cond_r4; Not (lt (attr "r2") (int 5)) ]) t)

let test_predicate_attrs () =
  Alcotest.(check (list string))
    "attrs" [ "r2"; "s1" ]
    (Predicate.attrs join_cond);
  Alcotest.(check (list (pair string string)))
    "equi pairs"
    [ ("r2", "s1") ]
    (Predicate.equi_pairs join_cond)

let test_predicate_restrict () =
  let p = Predicate.(conj [ cond_r4; lt (attr "s3") (int 50) ]) in
  let restricted = Predicate.restrict_to p (Schema.attrs schema_r) in
  Alcotest.(check bool)
    "restricted keeps r-conjunct" true
    (Predicate.equal restricted cond_r4)

let test_predicate_simplify () =
  Alcotest.(check bool)
    "and true" true
    Predicate.(equal (simplify (And (True, cond_r4))) cond_r4);
  Alcotest.(check bool)
    "or false" true
    Predicate.(equal (simplify (Or (cond_r4, False))) cond_r4);
  Alcotest.(check bool)
    "not not stays" true
    Predicate.(equal (simplify (Not True)) False)

(* key sets are found in either operand order and nesting, only over
   one attribute and constants; a 100k-key set is one [In] *)
let test_predicate_key_sets () =
  let open Predicate in
  let ks = Alcotest.(list (pair string (list string))) in
  let show l = List.map (fun (a, vs) -> (a, List.map Value.to_string vs)) l in
  let cond =
    conj
      [
        or_ (eq (attr "r1") (int 1)) (or_ (eq (int 2) (attr "r1")) (eq (attr "r1") (int 1)));
        one_of "s1" Value.[ Int 7 ];
        or_ (eq (attr "r1") (int 1)) (eq (attr "r2") (int 2));
        or_ (eq (attr "r1") (int 1)) (lt (attr "r1") (int 0));
        eq (attr "r1") (attr "r2");
      ]
  in
  Alcotest.check ks "two key sets"
    [ ("r1", [ "1"; "2" ]); ("s1", [ "7" ]) ]
    (show (key_sets cond));
  Alcotest.(check bool) "one_of [] is False" true (one_of "r1" [] = False);
  let n = 100_000 in
  let big = one_of "r1" (List.init n (fun i -> Value.Int i)) in
  (match key_sets (And (True, big)) with
  | [ ("r1", vs) ] -> Alcotest.(check int) "all keys" n (List.length vs)
  | _ -> Alcotest.fail "expected one key set");
  Alcotest.(check int)
    "one In" n
    (match big with In (_, vs) -> List.length vs | _ -> 0);
  let f = compile big in
  Alcotest.(check bool)
    "hash lookup" true
    (f (Tuple.of_list [ ("r1", Value.Float 99_999.) ])
    && not (f (Tuple.of_list [ ("r1", Value.Int n) ])));
  (* past 2^53 an Int and the Float it rounds to are two keys *)
  let b = 1 lsl 53 in
  let p = one_of "a" Value.[ Int (b + 1); Float 0x1p53 ] in
  (match p with
  | In ("a", vs) -> Alcotest.(check int) "both keys kept" 2 (List.length vs)
  | _ -> Alcotest.fail "expected an In of two keys");
  List.iter
    (fun v ->
      let row =
        Tuple.of_list [ ("a", v); ("b", Value.Float 0.); ("c", Value.Str "") ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "a = %s agrees with the oracle" (Value.to_string v))
        (Oracle.eval_pred p row) (compile p row))
    Value.[ Int b; Int (b + 1); Int (b + 2); Float 0x1p53 ];
  Alcotest.(check bool) "Int 2^53 matches Float 2^53" true
    (compile p
       (Tuple.of_list
          [ ("a", Value.Int b); ("b", Value.Float 0.); ("c", Value.Str "") ]))

(* --- Bag --- *)

let test_bag_multiplicity () =
  let b = Bag.add ~mult:2 (Bag.add sample_r (r_tuple 9 9 9 9)) (r_tuple 9 9 9 9) in
  Alcotest.(check int) "mult" 3 (Bag.mult b (r_tuple 9 9 9 9));
  Alcotest.(check int) "cardinal" 7 (Bag.cardinal b);
  Alcotest.(check int) "support" 5 (Bag.support_cardinal b);
  let b = Bag.remove ~mult:5 b (r_tuple 9 9 9 9) in
  Alcotest.(check int) "monus clamps" 0 (Bag.mult b (r_tuple 9 9 9 9))

let test_bag_select_project () =
  let sel = Bag.select cond_r4 sample_r in
  Alcotest.(check int) "selected" 3 (Bag.cardinal sel);
  let proj = Bag.project [ "r2" ] sel in
  Alcotest.(check int) "projection keeps multiplicity" 3 (Bag.cardinal proj);
  Alcotest.(check int)
    "projection merges support" 2
    (Bag.support_cardinal proj);
  Alcotest.(check int)
    "r2=10 has multiplicity 2" 2
    (Bag.mult proj (Tuple.of_list [ ("r2", v_int 10) ]))

(* a projection onto exactly the bag's own attributes shares its input
   under the requested order; a name the schema lacks, or one named
   twice, still raises even when the list has the schema's length *)
let test_bag_project_own_attrs () =
  let same = Bag.project (Schema.attrs schema_r) sample_r in
  Alcotest.(check bool) "same order: equal" true (Bag.equal same sample_r);
  Alcotest.(check bool) "same order: shared" true (Bag.shares same sample_r);
  let order = [ "r3"; "r1"; "r4"; "r2" ] in
  let perm = Bag.project order sample_r in
  Alcotest.(check (list string)) "permuted: requested order" order
    (Schema.attrs (Bag.schema perm));
  Alcotest.(check bool) "permuted: shared" true (Bag.shares perm sample_r);
  Alcotest.(check bool) "permuted: same tuples" true
    (Bag.to_list perm = Bag.to_list sample_r);
  Alcotest.(check bool) "permuted: equal once reordered" true
    (Bag.equal (Bag.project (Schema.attrs schema_r) perm) sample_r);
  Alcotest.(check bool) "a narrower projection does not share" false
    (Bag.shares (Bag.project [ "r1"; "r2"; "r3" ] sample_r) sample_r);
  Alcotest.(check bool) "a copy is equal" true
    (Bag.equal (Bag.copy sample_r) sample_r);
  Alcotest.(check bool) "a copy does not share" false
    (Bag.shares (Bag.copy sample_r) sample_r);
  Alcotest.check_raises "unknown attribute"
    (Schema.Schema_error "project: unknown attribute \"zz\"") (fun () ->
      ignore (Bag.project [ "r1"; "r2"; "r3"; "zz" ] sample_r));
  Alcotest.check_raises "duplicate attribute"
    (Schema.Schema_error "duplicate attribute \"r1\"") (fun () ->
      ignore (Bag.project [ "r1"; "r1"; "r2"; "r3" ] sample_r))

let test_bag_union_monus () =
  let a = of_rows schema_s [ [ v_int 1; v_int 2; v_int 3 ] ] in
  let b = Bag.union a a in
  Alcotest.(check int) "union doubles" 2 (Bag.mult b (s_tuple 1 2 3));
  let m = Bag.monus b a in
  Alcotest.(check int) "monus subtracts" 1 (Bag.mult m (s_tuple 1 2 3))

let test_bag_set_ops () =
  let a = of_rows schema_s [ [ v_int 1; v_int 2; v_int 3 ]; [ v_int 4; v_int 5; v_int 6 ] ] in
  let b = of_rows schema_s [ [ v_int 1; v_int 2; v_int 3 ] ] in
  let d = Bag.set_diff a b in
  Alcotest.(check int) "diff size" 1 (Bag.cardinal d);
  Alcotest.(check bool) "diff member" true (Bag.mem d (s_tuple 4 5 6));
  Alcotest.(check bool) "is a set" true (Bag.cardinal d = Bag.support_cardinal d)

let test_bag_join_equi () =
  let joined =
    Bag.join ~on:join_cond (Bag.select cond_r4 sample_r)
      (Bag.select cond_s3 sample_s)
  in
  (* r2 values 10,20,10 match s1 values 10,20 *)
  Alcotest.(check int) "join size" 3 (Bag.cardinal joined);
  Alcotest.(check (list string))
    "join schema"
    [ "r1"; "r2"; "r3"; "r4"; "s1"; "s2"; "s3" ]
    (Schema.attrs (Bag.schema joined))

let test_bag_join_natural () =
  (* shared attribute name joins naturally *)
  let sa = Schema.make [ ("x", Value.TInt); ("y", Value.TInt) ] in
  let sb = Schema.make [ ("y", Value.TInt); ("z", Value.TInt) ] in
  let a = of_rows sa [ [ v_int 1; v_int 2 ]; [ v_int 3; v_int 4 ] ] in
  let b = of_rows sb [ [ v_int 2; v_int 9 ] ] in
  let j = Bag.join a b in
  Alcotest.(check int) "natural join" 1 (Bag.cardinal j);
  Alcotest.check tuple "joined tuple"
    (Tuple.of_list [ ("x", v_int 1); ("y", v_int 2); ("z", v_int 9) ])
    (List.hd (Bag.support j))

let test_bag_join_theta () =
  (* pure theta join without equalities: Example 5.1's a1^2 + a2 < b2^2 *)
  let sa = Schema.make [ ("a1", Value.TInt); ("a2", Value.TInt) ] in
  let sb = Schema.make [ ("b1", Value.TInt); ("b2", Value.TInt) ] in
  let a = of_rows sa [ [ v_int 1; v_int 2 ]; [ v_int 5; v_int 0 ] ] in
  let b = of_rows sb [ [ v_int 7; v_int 2 ] ] in
  let cond =
    Predicate.(
      lt
        (Add (Mul (attr "a1", attr "a1"), attr "a2"))
        (Mul (attr "b2", attr "b2")))
  in
  let j = Bag.join ~on:cond a b in
  (* 1+2=3 < 4 yes; 25+0 < 4 no *)
  Alcotest.(check int) "theta join" 1 (Bag.cardinal j)

let test_bag_join_multiplicity () =
  let sa = Schema.make [ ("x", Value.TInt) ] in
  let sb = Schema.make [ ("x", Value.TInt) ] in
  let a = Bag.add ~mult:2 (Bag.empty sa) (Tuple.of_list [ ("x", v_int 1) ]) in
  let b = Bag.add ~mult:3 (Bag.empty sb) (Tuple.of_list [ ("x", v_int 1) ]) in
  let j = Bag.join a b in
  Alcotest.(check int)
    "multiplicities multiply" 6
    (Bag.mult j (Tuple.of_list [ ("x", v_int 1) ]))

(* with no attribute in common, a join pairs every row with every row *)
let test_bag_join_disjoint () =
  let xs = of_rows (Schema.make [ ("x", Value.TInt) ]) [ [ v_int 1 ]; [ v_int 2 ] ] in
  let j = Bag.join xs sample_s in
  Alcotest.(check int)
    "cardinal" (2 * Bag.cardinal sample_s) (Bag.cardinal j);
  List.iter
    (fun s ->
      List.iter
        (fun x ->
          Alcotest.(check int)
            "each pair once" (Bag.mult sample_s s)
            (Bag.mult j (Tuple.of_list (("x", v_int x) :: Tuple.to_list s))))
        [ 1; 2 ])
    (Bag.support sample_s)

(* --- Expr / Eval --- *)

let env_rs name =
  match name with
  | "R" -> Some sample_r
  | "S" -> Some sample_s
  | _ -> None

let test_eval_example_2_1 () =
  let t = Eval.eval ~env:env_rs t_def in
  Alcotest.(check int) "T cardinality" 3 (Bag.cardinal t);
  Alcotest.(check (list string))
    "T schema"
    [ "r1"; "r3"; "s1"; "s2" ]
    (Schema.attrs (Bag.schema t));
  Alcotest.(check bool)
    "contains (1,7,10,55)" true
    (Bag.mem t
       (Tuple.of_list
          [ ("r1", v_int 1); ("r3", v_int 7); ("s1", v_int 10); ("s2", v_int 55) ]))

let test_eval_union_diff () =
  let sch = Schema.make [ ("x", Value.TInt) ] in
  let mk rows = of_rows sch (List.map (fun i -> [ v_int i ]) rows) in
  let env = function
    | "A" -> Some (mk [ 1; 2; 2 ])
    | "B" -> Some (mk [ 2; 3 ])
    | _ -> None
  in
  let u = Eval.eval ~env Expr.(union (base "A") (base "B")) in
  Alcotest.(check int) "bag union keeps dups" 5 (Bag.cardinal u);
  let d = Eval.eval ~env Expr.(diff (base "A") (base "B")) in
  Alcotest.(check int) "set difference" 1 (Bag.cardinal d);
  Alcotest.(check bool) "1 in diff" true (Bag.mem d (Tuple.of_list [ ("x", v_int 1) ]))

let test_eval_unbound () =
  Alcotest.check_raises "unbound" (Eval.Unbound_relation "Z") (fun () ->
      ignore (Eval.eval ~env:env_rs (Expr.base "Z")))

let test_expr_schema_errors () =
  (* union of incompatible schemas *)
  (try
     ignore
       (Expr.schema_of
          (function "R" -> schema_r | _ -> schema_s)
          Expr.(union (base "R") (base "S")));
     Alcotest.fail "expected Expr_error"
   with Expr.Expr_error _ -> ());
  (* select on unknown attribute *)
  try
    ignore
      (Expr.schema_of
         (fun _ -> schema_s)
         Expr.(select cond_r4 (base "S")));
    Alcotest.fail "expected Expr_error"
  with Expr.Expr_error _ -> ()

let test_expr_predicates () =
  Alcotest.(check bool) "spj" true (Expr.is_spj t_def);
  Alcotest.(check bool)
    "sp of single" true
    (Expr.is_select_project_of "R" Expr.(project [ "r1" ] (select cond_r4 (base "R"))));
  Alcotest.(check bool)
    "join not sp" false
    (Expr.is_select_project_of "R" t_def);
  Alcotest.(check bool)
    "setop shape" true
    Expr.(is_setop_of_sp (diff (project [ "s1" ] (base "A")) (base "B")));
  Alcotest.(check (list string)) "base names" [ "R"; "S" ] (Expr.base_names t_def)

(* --- Rename --- *)

let test_rename_eval () =
  let renamed =
    Eval.eval
      ~env:(function "S" -> Some sample_s | _ -> None)
      Expr.(rename [ ("s1", "id"); ("s2", "score") ] (base "S"))
  in
  Alcotest.(check (list string))
    "renamed schema"
    [ "id"; "score"; "s3" ]
    (Schema.attrs (Bag.schema renamed));
  Alcotest.(check (list string)) "key renamed" [ "id" ] (Schema.key (Bag.schema renamed));
  Alcotest.(check int) "cardinality preserved" (Bag.cardinal sample_s) (Bag.cardinal renamed);
  Alcotest.(check bool)
    "values carried over" true
    (Bag.mem renamed
       (Tuple.of_list
          [ ("id", v_int 10); ("score", v_int 55); ("s3", v_int 20) ]))

let test_rename_composes () =
  (* rename then select in the new namespace *)
  let e =
    Expr.(
      select
        Predicate.(lt (attr "score") (int 60))
        (rename [ ("s2", "score") ] (base "S")))
  in
  let out = Eval.eval ~env:(function "S" -> Some sample_s | _ -> None) e in
  Alcotest.(check int) "filtered in renamed namespace" 1 (Bag.cardinal out)

let test_rename_errors () =
  (try
     ignore
       (Expr.schema_of
          (fun _ -> schema_s)
          Expr.(rename [ ("nope", "x") ] (base "S")));
     Alcotest.fail "expected Expr_error"
   with Expr.Expr_error _ -> ());
  (* collision with a kept attribute *)
  try
    ignore
      (Expr.schema_of
         (fun _ -> schema_s)
         Expr.(rename [ ("s1", "s2") ] (base "S")));
    Alcotest.fail "expected Expr_error (collision)"
  with Expr.Expr_error _ -> ()

(* --- qcheck properties --- *)

let prop_project_preserves_cardinality =
  qtest "bag projection preserves total multiplicity" (bag_gen schema_s)
    (fun b -> Bag.cardinal (Bag.project [ "s2" ] b) = Bag.cardinal b)

let prop_union_cardinality =
  qtest "union cardinality adds"
    QCheck2.Gen.(pair (bag_gen schema_s) (bag_gen schema_s))
    (fun (a, b) -> Bag.cardinal (Bag.union a b) = Bag.cardinal a + Bag.cardinal b)

let prop_monus_inverse_of_union =
  qtest "monus undoes union"
    QCheck2.Gen.(pair (bag_gen schema_s) (bag_gen schema_s))
    (fun (a, b) -> Bag.equal (Bag.monus (Bag.union a b) b) a)

let prop_select_partition =
  qtest "select p + select not p partition the bag" (bag_gen schema_s)
    (fun b ->
      let p = cond_s3 in
      Bag.equal
        (Bag.union (Bag.select p b) (Bag.select (Predicate.Not p) b))
        b)

let prop_join_commutes =
  qtest "join support is commutative"
    QCheck2.Gen.(pair (bag_gen schema_r) (bag_gen schema_s))
    (fun (r, s) ->
      let j1 = Bag.join ~on:join_cond r s in
      let j2 = Bag.join ~on:join_cond s r in
      Bag.cardinal j1 = Bag.cardinal j2)

let prop_set_diff_set_semantics =
  qtest "set_diff yields sets disjoint from subtrahend"
    QCheck2.Gen.(pair (bag_gen schema_s) (bag_gen schema_s))
    (fun (a, b) ->
      let d = Bag.set_diff a b in
      Bag.cardinal d = Bag.support_cardinal d
      && List.for_all (fun t -> not (Bag.mem b t)) (Bag.support d))

(* Bag.select against the oracle's condition interpreter over a schema
   mixing Int, Float and string columns, Null in each: compiled
   selection must keep exactly the tuples [Oracle.eval_pred] keeps *)
let schema_x =
  Schema.make [ ("a", Value.TInt); ("b", Value.TFloat); ("c", Value.TStr) ]

let x_values = function
  | "a" -> Value.[ Null; Int 0; Int 1; Int 2 ]
  | "b" -> Value.[ Null; Float 0.; Float 1.; Float 1.5 ]
  | _ -> Value.[ Null; Str ""; Str "x"; Str "y" ]

let x_bag_gen =
  let open QCheck2.Gen in
  let column a = oneofl (x_values a) in
  let tuple =
    map3
      (fun a b c -> Tuple.of_list [ ("a", a); ("b", b); ("c", c) ])
      (column "a") (column "b") (column "c")
  in
  list_size (int_range 0 12) tuple >|= Bag.of_tuples schema_x

let pred_gen =
  let open QCheck2.Gen in
  let term =
    oneof
      [
        oneofl (List.map Predicate.attr [ "a"; "b"; "c" ]);
        map
          (fun v -> Predicate.Const v)
          (oneofl (x_values "a" @ x_values "b" @ x_values "c"));
      ]
  in
  let atom =
    oneof
      [
        map3
          (fun c l r -> Predicate.Cmp (c, l, r))
          (oneofl Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ])
          term term;
        oneofl Predicate.[ True; False ];
        map2 Predicate.one_of
          (oneofl [ "a"; "b"; "c" ])
          (list_size (int_range 0 4)
             (oneofl (x_values "a" @ x_values "b" @ x_values "c")));
      ]
  in
  int_range 0 3
  >>= fix (fun self n ->
          if n = 0 then atom
          else
            oneof
              [
                atom;
                map2 (fun p q -> Predicate.And (p, q)) (self (n - 1)) (self (n - 1));
                map2 (fun p q -> Predicate.Or (p, q)) (self (n - 1)) (self (n - 1));
                map (fun p -> Predicate.Not p) (self (n - 1));
              ])

let prop_select_matches_eval =
  qtest ~count:500 "select = filter by Predicate.eval"
    QCheck2.Gen.(pair pred_gen x_bag_gen)
    (fun (p, b) -> Bag.equal (Bag.select p b) (Bag.filter (Oracle.eval_pred p) b))

(* Key sets compile to one hash lookup per row; the lookup must keep
   exactly the rows the oracle keeps: Null never matches, Int 1 =
   Float 1., and past 2^53 an Int is not equal to the Float it rounds
   to (Int (2^53 + 1) <> Float 2^53). A set is built by
   [one_of] (an [In], one comparison, or [False] when empty), by [or_]
   of comparisons with the constant on either side, or as a raw
   right-deep [Or] chain; sometimes a disjunct on another attribute is
   mixed in, and sometimes the whole is negated. *)
let big = (1 lsl 53) + 1

let k_values = function
  | "a" -> Value.[ Null; Int 0; Int 1; Int 2; Int big ]
  | _ -> Value.[ Null; Float 0.; Float 1.; Float 1.5; Float 0x1p53 ]

let k_bag_gen =
  let open QCheck2.Gen in
  let tuple =
    map3
      (fun a b c -> Tuple.of_list [ ("a", a); ("b", b); ("c", c) ])
      (oneofl (k_values "a"))
      (oneofl (k_values "b"))
      (oneofl (x_values "c"))
  in
  list_size (int_range 0 12) tuple >|= Bag.of_tuples schema_x

let k_const =
  QCheck2.Gen.oneofl (k_values "a" @ k_values "b" @ Value.[ Str "x"; Int 3 ])

let key_set_gen =
  let open QCheck2.Gen in
  let eq x =
    map2
      (fun v flip ->
        let a = Predicate.attr x and c = Predicate.Const v in
        if flip then Predicate.eq c a else Predicate.eq a c)
      k_const bool
  in
  let* x = oneofl [ "a"; "b" ] in
  let chain =
    let* eqs = list_size (int_range 2 6) (eq x) in
    let* merged = bool in
    return
      (if merged then Predicate.disj eqs
       else
         List.fold_right (fun d acc -> Predicate.Or (d, acc)) (List.tl eqs) (List.hd eqs))
  in
  let* set =
    oneof [ map (Predicate.one_of x) (list_size (int_range 0 6) k_const); chain ]
  in
  let* stray = opt (eq (if x = "a" then "b" else "a")) in
  let* negate = bool in
  let p = match stray with Some d -> Predicate.or_ set d | None -> set in
  return (if negate then Predicate.Not p else p)

let prop_key_set_matches_eval =
  qtest ~count:500 "compiled key set = Predicate.eval"
    QCheck2.Gen.(pair key_set_gen k_bag_gen)
    (fun (p, b) ->
      let f = Predicate.compile p in
      List.for_all (fun t -> f t = Oracle.eval_pred p t) (Bag.support b)
      && Bag.equal (Bag.select p b) (Bag.filter (Oracle.eval_pred p) b))

(* [or_] is idempotent, and merges two key sets on one attribute into
   the key set of the union *)
let prop_or_idempotent =
  qtest ~count:500 "or_ p p = p"
    QCheck2.Gen.(oneof [ pred_gen; key_set_gen ])
    (fun p -> Predicate.equal (Predicate.or_ p p) p)

let prop_or_merges_key_sets =
  qtest ~count:500 "or_ of key sets = one_of of the union"
    QCheck2.Gen.(
      let key = oneofl (x_values "a" @ x_values "b" @ x_values "c") in
      triple (oneofl [ "a"; "b" ])
        (list_size (int_range 0 6) key)
        (list_size (int_range 0 6) key))
    (fun (a, xs, ys) ->
      Predicate.(equal (or_ (one_of a xs) (one_of a ys)) (one_of a (xs @ ys))))

(* printed conditions parse back to the same value; an [In] prints as
   its equality chain, string constants quoted (a quote doubled) and
   floats with the digits that restore them; a non-key condition
   rides along *)
let prop_key_set_prints_back =
  qtest ~count:500 "printed key set parses back"
    QCheck2.Gen.(
      triple (oneofl [ "a"; "b" ])
        (list_size (int_range 0 6)
           (oneofl
              Value.
                [
                  Int 0;
                  Int 1;
                  Int 2;
                  Int 7;
                  Float 1.5;
                  Float 0x1p53;
                  Float 0.1;
                  Float 3.;
                  Str "x";
                  Str "a b";
                  Str "it's";
                  Str "say \"hi\"";
                  Str "";
                ]))
        bool)
    (fun (a, vs, guarded) ->
      let p =
        let set = Predicate.one_of a vs in
        if guarded then
          Predicate.(And (set, lt (attr "c") (Const (Value.Str "o'k z"))))
        else set
      in
      Predicate.equal (Parser.predicate (Format.asprintf "%a" Predicate.pp p)) p)

(* [Value.compare] is a total order on mixed Int/Float values near
   2^53, where a float no longer holds every int, and at the int range's
   ends; equal values hash alike *)
let near_2_53 =
  let b = 1 lsl 53 and f = 0x1p53 in
  Value.
    [
      Int (b - 1); Int b; Int (b + 1); Int (b + 2); Int (b + 3);
      Int (-b - 1); Int (-b);
      Float (f -. 1.); Float f; Float (f +. 2.); Float (f +. 4.);
      Float (-.f); Float (-.f -. 2.); Float (0x1p52 +. 0.5);
      Int max_int; Int min_int; Float 0x1p62; Float (-0x1p62);
      Float Float.nan; Float Float.infinity;
    ]

let prop_compare_transitive =
  qtest ~count:1000 "compare is transitive near 2^53"
    QCheck2.Gen.(triple (oneofl near_2_53) (oneofl near_2_53) (oneofl near_2_53))
    (fun (x, y, z) ->
      let c = Value.compare in
      ((not (c x y <= 0 && c y z <= 0)) || c x z <= 0)
      && Int.compare (c x y) 0 = - Int.compare (c y x) 0
      && ((not (Value.equal x y)) || Value.hash x = Value.hash y))

let prop_select_true_shares =
  qtest "select True returns its input" x_bag_gen (fun b ->
      Bag.select Predicate.True b == b)

(* --- Allocation ---

   The per-tuple paths allocate only what they return: a probe of
   Counts' index, tuple equality, a schema fit and a fused stage's
   step loop build no closure (OCaml without flambda allocates one for
   every local [let rec] that captures a variable, on every call), and
   an arena slot is no record of its own. The counts are minor-heap
   words, the same on every host; [f] is built before the count
   starts, so its own closure is not counted. *)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_alloc_builder_add () =
  let bd = Counts.Builder.create ~size:1024 () in
  let tuples = Array.init 64 (fun i -> r_tuple i (2 * i) 7 100) in
  Array.iter (fun t -> ignore (Tuple.hash t : int)) tuples;
  Counts.Builder.add bd (r_tuple (-1) 0 0 0) 1;
  let least =
    Array.fold_left
      (fun acc t -> Float.min acc (minor_words_of (fun () -> Counts.Builder.add bd t 1)))
      Float.infinity tuples
  in
  Alcotest.(check int) "all added" 65 (Counts.size (Counts.Builder.seal bd));
  if least > 0. then Alcotest.failf "adding an absent tuple allocates %.0f words" least

let test_alloc_tuple_equal_fits () =
  let a = r_tuple 1 10 7 100 and b = r_tuple 1 10 7 100 in
  let shape = Tuple.shape schema_r in
  let eq = ref false and fit = ref false in
  let w_eq = minor_words_of (fun () -> eq := Tuple.equal a b) in
  let w_fits = minor_words_of (fun () -> fit := Tuple.fits shape a) in
  Alcotest.(check bool) "equal" true !eq;
  Alcotest.(check bool) "fits" true !fit;
  if w_eq > 0. || w_fits > 0. then
    Alcotest.failf "Tuple.equal allocates %.0f words, Tuple.fits %.0f" w_eq w_fits

let test_alloc_fused_filter () =
  let rows = 10_000 in
  let bag = Bag.of_tuples schema_r (List.init rows (fun i -> r_tuple i i 7 100)) in
  let plan =
    Plan.of_expr (Expr.select Predicate.(lt (attr "r3") (int 0)) (Expr.base "R"))
  in
  let env = function "R" -> Some bag | _ -> None in
  ignore (Plan.run plan ~env : Bag.t);
  let out = ref bag in
  let words = minor_words_of (fun () -> out := Plan.run plan ~env) in
  Alcotest.(check int) "every row rejected" 0 (Bag.cardinal !out);
  if words >= float_of_int rows then
    Alcotest.failf "a fused filter allocates %.0f words over %d rejected rows" words rows

let () =
  Alcotest.run "relalg"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "arith" `Quick test_value_arith;
          Alcotest.test_case "hash consistency" `Quick test_value_hash_consistency;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "project" `Quick test_schema_project;
          Alcotest.test_case "duplicate detection" `Quick test_schema_dup;
          Alcotest.test_case "join" `Quick test_schema_join;
          Alcotest.test_case "union compat" `Quick test_schema_union_compatible;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basic" `Quick test_tuple_basic;
          Alcotest.test_case "concat" `Quick test_tuple_concat;
          Alcotest.test_case "schema match" `Quick test_tuple_schema_match;
          Alcotest.test_case "maker" `Quick test_tuple_maker;
        ] );
      ( "predicate",
        [
          Alcotest.test_case "eval" `Quick test_predicate_eval;
          Alcotest.test_case "attrs" `Quick test_predicate_attrs;
          Alcotest.test_case "restrict_to" `Quick test_predicate_restrict;
          Alcotest.test_case "simplify" `Quick test_predicate_simplify;
          Alcotest.test_case "key sets" `Quick test_predicate_key_sets;
        ] );
      ( "bag",
        [
          Alcotest.test_case "multiplicity" `Quick test_bag_multiplicity;
          Alcotest.test_case "select/project" `Quick test_bag_select_project;
          Alcotest.test_case "project onto own attributes" `Quick
            test_bag_project_own_attrs;
          Alcotest.test_case "union/monus" `Quick test_bag_union_monus;
          Alcotest.test_case "set ops" `Quick test_bag_set_ops;
          Alcotest.test_case "equi join" `Quick test_bag_join_equi;
          Alcotest.test_case "natural join" `Quick test_bag_join_natural;
          Alcotest.test_case "theta join" `Quick test_bag_join_theta;
          Alcotest.test_case "join multiplicity" `Quick test_bag_join_multiplicity;
          Alcotest.test_case "disjoint join is a product" `Quick test_bag_join_disjoint;
        ] );
      ( "eval",
        [
          Alcotest.test_case "Example 2.1 view" `Quick test_eval_example_2_1;
          Alcotest.test_case "union/diff semantics" `Quick test_eval_union_diff;
          Alcotest.test_case "unbound relation" `Quick test_eval_unbound;
          Alcotest.test_case "schema errors" `Quick test_expr_schema_errors;
          Alcotest.test_case "shape predicates" `Quick test_expr_predicates;
        ] );
      ( "rename",
        [
          Alcotest.test_case "eval" `Quick test_rename_eval;
          Alcotest.test_case "composes with select" `Quick test_rename_composes;
          Alcotest.test_case "errors" `Quick test_rename_errors;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "builder add allocates nothing" `Quick
            test_alloc_builder_add;
          Alcotest.test_case "tuple equal and fits allocate nothing" `Quick
            test_alloc_tuple_equal_fits;
          Alcotest.test_case "fused filter allocates no word per row" `Quick
            test_alloc_fused_filter;
        ] );
      ( "properties",
        [
          prop_project_preserves_cardinality;
          prop_union_cardinality;
          prop_monus_inverse_of_union;
          prop_select_partition;
          prop_join_commutes;
          prop_set_diff_set_semantics;
          prop_select_matches_eval;
          prop_key_set_matches_eval;
          prop_or_idempotent;
          prop_or_merges_key_sets;
          prop_key_set_prints_back;
          prop_compare_transitive;
          prop_select_true_shares;
        ] );
    ]
