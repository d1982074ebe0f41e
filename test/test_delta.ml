(* Tests for the Heraclitus delta machinery (Sec. 6.2) and the
   incremental expression evaluation behind the Sec. 5.2 rules. *)

open Relalg
open Delta
open Tutil

(* --- basic construction and apply --- *)

let test_insert_delete_cancel () =
  let d = Rel_delta.insert (Rel_delta.empty schema_s) (s_tuple 1 2 3) in
  let d = Rel_delta.delete d (s_tuple 1 2 3) in
  Alcotest.(check bool)
    "insert then delete cancels (consistency condition)" true
    (Rel_delta.is_empty d)

let test_apply_basic () =
  let b = Bag.of_tuples schema_s [ s_tuple 1 2 3; s_tuple 4 5 6 ] in
  let d =
    Rel_delta.insert
      (Rel_delta.delete (Rel_delta.empty schema_s) (s_tuple 1 2 3))
      (s_tuple 7 8 9)
  in
  let b' = Rel_delta.apply b d in
  Alcotest.(check bool) "deleted gone" false (Bag.mem b' (s_tuple 1 2 3));
  Alcotest.(check bool) "inserted present" true (Bag.mem b' (s_tuple 7 8 9));
  Alcotest.(check int) "cardinality" 2 (Bag.cardinal b')

let test_apply_strict_redundant () =
  let b = Bag.of_tuples schema_s [ s_tuple 1 2 3 ] in
  let d = Rel_delta.delete (Rel_delta.empty schema_s) (s_tuple 7 8 9) in
  (* non-strict clamps silently *)
  Alcotest.(check int) "clamped" 1 (Bag.cardinal (Rel_delta.apply b d));
  (* strict detects the redundant deletion *)
  try
    ignore (Rel_delta.apply ~strict:true b d);
    Alcotest.fail "expected Delta_error"
  with Rel_delta.Delta_error _ -> ()

let test_of_diff () =
  let old_bag = Bag.of_tuples schema_s [ s_tuple 1 2 3; s_tuple 4 5 6 ] in
  let new_bag = Bag.of_tuples schema_s [ s_tuple 4 5 6; s_tuple 7 8 9 ] in
  let d = Rel_delta.of_diff ~old_bag ~new_bag in
  check_bag "of_diff reconstructs" new_bag (Rel_delta.apply old_bag d);
  Alcotest.(check int) "two atoms" 2 (Rel_delta.atom_count d)

let test_atom_count () =
  let d =
    Rel_delta.insert ~mult:3
      (Rel_delta.delete ~mult:2 (Rel_delta.empty schema_s) (s_tuple 1 1 1))
      (s_tuple 2 2 2)
  in
  Alcotest.(check int) "atoms weighted by multiplicity" 5 (Rel_delta.atom_count d)

(* --- smash / inverse laws (qcheck) --- *)

let bag_and_two_deltas =
  let open QCheck2.Gen in
  bag_gen schema_s >>= fun b ->
  delta_gen_for schema_s b >>= fun d1 ->
  let b1 = Rel_delta.apply b d1 in
  delta_gen_for schema_s b1 >|= fun d2 -> (b, d1, d2)

let prop_smash_law =
  qtest "apply db (d1 ! d2) = apply (apply db d1) d2" bag_and_two_deltas
    (fun (b, d1, d2) ->
      Bag.equal
        (Rel_delta.apply b (Rel_delta.smash d1 d2))
        (Rel_delta.apply (Rel_delta.apply b d1) d2))

let bag_and_delta =
  let open QCheck2.Gen in
  bag_gen schema_s >>= fun b ->
  delta_gen_for schema_s b >|= fun d -> (b, d)

let prop_inverse_law =
  qtest "apply (apply db d) (inverse d) = db" bag_and_delta (fun (b, d) ->
      Bag.equal (Rel_delta.apply (Rel_delta.apply b d) (Rel_delta.inverse d)) b)

let prop_inverse_of_smash =
  qtest "(d1 ! d2)^-1 = d2^-1 ! d1^-1" bag_and_two_deltas (fun (_, d1, d2) ->
      Rel_delta.equal
        (Rel_delta.inverse (Rel_delta.smash d1 d2))
        (Rel_delta.smash (Rel_delta.inverse d2) (Rel_delta.inverse d1)))

let prop_select_commutes =
  qtest "select commutes with apply" bag_and_delta (fun (b, d) ->
      let p = cond_s3 in
      Bag.equal
        (Bag.select p (Rel_delta.apply b d))
        (Rel_delta.apply (Bag.select p b) (Rel_delta.select p d)))

let prop_project_commutes =
  qtest "project commutes with apply" bag_and_delta (fun (b, d) ->
      let names = [ "s1"; "s2" ] in
      Bag.equal
        (Bag.project names (Rel_delta.apply b d))
        (Rel_delta.apply (Bag.project names b) (Rel_delta.project names d)))

let prop_rename_commutes =
  qtest "rename commutes with apply" bag_and_delta (fun (b, d) ->
      let mapping = [ ("s1", "id"); ("s3", "flag") ] in
      let rename_bag bag =
        Eval.eval
          ~env:(function "X" -> Some bag | _ -> None)
          (Expr.Rename (mapping, Expr.Base "X"))
      in
      Bag.equal
        (rename_bag (Rel_delta.apply b d))
        (Rel_delta.apply (rename_bag b) (Oracle.rename_delta mapping d)))

(* --- multi-relation deltas --- *)

let test_multi_delta_basic () =
  let dr = Rel_delta.insert (Rel_delta.empty schema_r) (r_tuple 1 2 3 4) in
  let ds = Rel_delta.delete (Rel_delta.empty schema_s) (s_tuple 1 2 3) in
  let m = Multi_delta.add (Multi_delta.singleton "R" dr) "S" ds in
  Alcotest.(check (list string)) "relations" [ "R"; "S" ] (Multi_delta.relations m);
  Alcotest.(check int) "atoms" 2 (Multi_delta.atom_count m);
  check_delta "find R" dr (Option.get (Multi_delta.find m "R"))

let test_multi_delta_smash_per_relation () =
  let d1 = Rel_delta.insert (Rel_delta.empty schema_s) (s_tuple 1 2 3) in
  let d2 = Rel_delta.delete (Rel_delta.empty schema_s) (s_tuple 1 2 3) in
  let m = Multi_delta.smash (Multi_delta.singleton "S" d1) (Multi_delta.singleton "S" d2) in
  Alcotest.(check bool) "cancelled" true (Multi_delta.is_empty m)

(* --- incremental evaluation --- *)

let apply_multi env (m : (string * Rel_delta.t) list) name =
  match (env name, List.assoc_opt name m) with
  | Some b, Some d -> Some (Rel_delta.apply b d)
  | Some b, None -> Some b
  | None, _ -> None

(* the central correctness property: incremental = recompute *)
let check_incremental expr env delta_list =
  let deltas name = List.assoc_opt name delta_list in
  let old_value = Eval.eval ~env expr in
  let d = Tutil.delta_of_expr ~env ~deltas expr in
  let incremental = Rel_delta.apply old_value d in
  let recomputed = Eval.eval ~env:(apply_multi env delta_list) expr in
  Bag.equal incremental recomputed

let test_inc_spj_single_child () =
  (* rule #1 of Example 2.1: change to R only *)
  let dr =
    Rel_delta.insert (Rel_delta.empty schema_r) (r_tuple 5 10 11 100)
  in
  Alcotest.(check bool)
    "incremental matches recompute" true
    (check_incremental t_def
       (function "R" -> Some sample_r | "S" -> Some sample_s | _ -> None)
       [ ("R", dr) ])

let test_inc_spj_both_children () =
  (* Example 6.1: both children change simultaneously; the naive
     (R |X| dS) u (dR |X| S) combination would miss dR |X| dS *)
  let dr =
    Rel_delta.insert (Rel_delta.empty schema_r) (r_tuple 5 77 11 100)
  in
  let ds = Rel_delta.insert (Rel_delta.empty schema_s) (s_tuple 77 1 2) in
  let env = function
    | "R" -> Some sample_r
    | "S" -> Some sample_s
    | _ -> None
  in
  Alcotest.(check bool)
    "cross term covered" true
    (check_incremental t_def env [ ("R", dr); ("S", ds) ]);
  (* and the new tuple really is the cross term *)
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "R" -> Some dr | "S" -> Some ds | _ -> None)
      t_def
  in
  let expected =
    Tuple.of_list
      [ ("r1", v_int 5); ("r3", v_int 11); ("s1", v_int 77); ("s2", v_int 1) ]
  in
  Alcotest.(check int) "cross tuple inserted" 1 (Rel_delta.signed_mult d expected)

let test_inc_deletion_propagates () =
  let dr = Rel_delta.delete (Rel_delta.empty schema_r) (r_tuple 1 10 7 100) in
  let env = function
    | "R" -> Some sample_r
    | "S" -> Some sample_s
    | _ -> None
  in
  let deltas = function "R" -> Some dr | _ -> None in
  let d = Tutil.delta_of_expr ~env ~deltas t_def in
  let gone =
    Tuple.of_list
      [ ("r1", v_int 1); ("r3", v_int 7); ("s1", v_int 10); ("s2", v_int 55) ]
  in
  Alcotest.(check int) "join tuple deleted" (-1) (Rel_delta.signed_mult d gone)

let test_inc_irrelevant_update () =
  (* update filtered out by the selection produces an empty delta *)
  let dr = Rel_delta.insert (Rel_delta.empty schema_r) (r_tuple 9 10 1 999) in
  let env = function
    | "R" -> Some sample_r
    | "S" -> Some sample_s
    | _ -> None
  in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "R" -> Some dr | _ -> None)
      t_def
  in
  Alcotest.(check bool) "filtered" true (Rel_delta.is_empty d)

let diff_schema = Schema.make [ ("x", Value.TInt) ]
let mk_x rows = of_rows diff_schema (List.map (fun i -> [ v_int i ]) rows)
let x_tuple i = Tuple.of_list [ ("x", v_int i) ]

let test_inc_diff_corrected_rule () =
  (* The paper's diff1 rule has a typo; the corrected rule: deleting a
     tuple from R1 removes it from T only when it is NOT in R2. *)
  let a = mk_x [ 1; 2 ] and b = mk_x [ 2 ] in
  let env = function "A" -> Some a | "B" -> Some b | _ -> None in
  let expr = Expr.diff (Expr.base "A") (Expr.base "B") in
  (* delete 2 from A: 2 was not in T (blocked by B), so no change *)
  let d_del2 = Rel_delta.delete (Rel_delta.empty diff_schema) (x_tuple 2) in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "A" -> Some d_del2 | _ -> None)
      expr
  in
  Alcotest.(check bool)
    "deleting a blocked tuple is a no-op (paper's published rule would \
     wrongly emit a deletion)"
    true (Rel_delta.is_empty d);
  (* delete 1 from A: 1 was in T, so it leaves *)
  let d_del1 = Rel_delta.delete (Rel_delta.empty diff_schema) (x_tuple 1) in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "A" -> Some d_del1 | _ -> None)
      expr
  in
  Alcotest.(check int) "unblocked tuple leaves" (-1) (Rel_delta.signed_mult d (x_tuple 1))

let test_inc_diff_rule2 () =
  (* rule diff2: inserting into R2 removes from T; deleting from R2
     reveals tuples of R1 *)
  let a = mk_x [ 1; 2 ] and b = mk_x [ 2 ] in
  let env = function "A" -> Some a | "B" -> Some b | _ -> None in
  let expr = Expr.diff (Expr.base "A") (Expr.base "B") in
  let ins1 = Rel_delta.insert (Rel_delta.empty diff_schema) (x_tuple 1) in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "B" -> Some ins1 | _ -> None)
      expr
  in
  Alcotest.(check int) "insert into B hides 1" (-1) (Rel_delta.signed_mult d (x_tuple 1));
  let del2 = Rel_delta.delete (Rel_delta.empty diff_schema) (x_tuple 2) in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "B" -> Some del2 | _ -> None)
      expr
  in
  Alcotest.(check int) "delete from B reveals 2" 1 (Rel_delta.signed_mult d (x_tuple 2))

let test_inc_diff_multiplicity_boundary () =
  (* bag child: set membership changes only when multiplicity crosses 0 *)
  let a = Bag.add ~mult:2 (Bag.empty diff_schema) (x_tuple 1) in
  let b = Bag.empty diff_schema in
  let env = function "A" -> Some a | "B" -> Some b | _ -> None in
  let expr = Expr.diff (Expr.base "A") (Expr.base "B") in
  let del_one = Rel_delta.delete (Rel_delta.empty diff_schema) (x_tuple 1) in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "A" -> Some del_one | _ -> None)
      expr
  in
  Alcotest.(check bool)
    "mult 2 -> 1 keeps membership" true (Rel_delta.is_empty d);
  let del_two = Rel_delta.delete ~mult:2 (Rel_delta.empty diff_schema) (x_tuple 1) in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "A" -> Some del_two | _ -> None)
      expr
  in
  Alcotest.(check int) "mult 2 -> 0 leaves" (-1) (Rel_delta.signed_mult d (x_tuple 1))

let test_inc_union () =
  let a = mk_x [ 1 ] and b = mk_x [ 1; 2 ] in
  let env = function "A" -> Some a | "B" -> Some b | _ -> None in
  let expr = Expr.union (Expr.base "A") (Expr.base "B") in
  let ins = Rel_delta.insert (Rel_delta.empty diff_schema) (x_tuple 1) in
  let d =
    Tutil.delta_of_expr ~env
      ~deltas:(function "A" -> Some ins | _ -> None)
      expr
  in
  Alcotest.(check int) "bag union adds multiplicity" 1 (Rel_delta.signed_mult d (x_tuple 1))

(* property: random deltas on both children of the Example 2.1 SPJ view *)
let rs_deltas_gen =
  let open QCheck2.Gen in
  bag_gen schema_r >>= fun r ->
  bag_gen schema_s >>= fun s ->
  delta_gen_for schema_r r >>= fun dr ->
  delta_gen_for schema_s s >|= fun ds -> (r, s, dr, ds)

let prop_inc_spj =
  qtest ~count:300 "SPJ incremental = recompute (random)" rs_deltas_gen
    (fun (r, s, dr, ds) ->
      check_incremental t_def
        (function "R" -> Some r | "S" -> Some s | _ -> None)
        [ ("R", dr); ("S", ds) ])

let xx_deltas_gen =
  let open QCheck2.Gen in
  bag_gen diff_schema >>= fun a ->
  bag_gen diff_schema >>= fun b ->
  delta_gen_for diff_schema a >>= fun da ->
  delta_gen_for diff_schema b >|= fun db -> (a, b, da, db)

let prop_inc_diff =
  qtest ~count:300 "difference incremental = recompute (random)" xx_deltas_gen
    (fun (a, b, da, db) ->
      check_incremental
        (Expr.diff (Expr.base "A") (Expr.base "B"))
        (function "A" -> Some a | "B" -> Some b | _ -> None)
        [ ("A", da); ("B", db) ])

let prop_inc_union =
  qtest ~count:300 "union incremental = recompute (random)" xx_deltas_gen
    (fun (a, b, da, db) ->
      check_incremental
        (Expr.union (Expr.base "A") (Expr.base "B"))
        (function "A" -> Some a | "B" -> Some b | _ -> None)
        [ ("A", da); ("B", db) ])

let prop_inc_nested =
  (* nested: difference over a join and a union *)
  let expr =
    Expr.(
      diff
        (project [ "s1" ] (select cond_s3 (base "A")))
        (project [ "s1" ] (base "B")))
  in
  qtest ~count:300 "nested setop incremental = recompute"
    (let open QCheck2.Gen in
     bag_gen schema_s >>= fun a ->
     bag_gen schema_s >>= fun b ->
     delta_gen_for schema_s a >>= fun da ->
     delta_gen_for schema_s b >|= fun db -> (a, b, da, db))
    (fun (a, b, da, db) ->
      check_incremental expr
        (function "A" -> Some a | "B" -> Some b | _ -> None)
        [ ("A", da); ("B", db) ])

(* --- random expressions over a shared attribute universe --------------- *)

(* three base relations over the same attributes {x, y, z}, so
   projection lists compose freely and union/difference operands can
   be made compatible by construction *)
let xyz_schema =
  Schema.make [ ("x", Value.TInt); ("y", Value.TInt); ("z", Value.TInt) ]

let xyz_bases = [ "A"; "B"; "C" ]

let gen_cond attrs =
  let open QCheck2.Gen in
  let attr_gen = oneofl attrs in
  let term =
    oneof
      [
        (attr_gen >|= fun a -> Predicate.Attr a);
        (small_int_gen >|= fun i -> Predicate.Const (Value.Int i));
      ]
  in
  let cmp =
    oneofl [ Predicate.Eq; Predicate.Ne; Predicate.Lt; Predicate.Le ]
  in
  map3 (fun op a b -> Predicate.Cmp (op, a, b)) cmp term term

(* returns (expr, output attrs) *)
let rec gen_expr depth =
  let open QCheck2.Gen in
  if depth = 0 then oneofl xyz_bases >|= fun b -> (Expr.Base b, [ "x"; "y"; "z" ])
  else
    let sub = gen_expr (depth - 1) in
    oneof
      [
        sub;
        ( sub >>= fun (e, attrs) ->
          gen_cond attrs >|= fun c -> (Expr.Select (c, e), attrs) );
        ( sub >>= fun (e, attrs) ->
          (* nonempty sublist *)
          oneofl attrs >>= fun keep1 ->
          sublist attrs >|= fun keeps ->
          let keep = List.sort_uniq String.compare (keep1 :: keeps) in
          (Expr.Project (keep, e), keep) );
        ( pair sub sub >|= fun ((e1, a1), (e2, a2)) ->
          let attrs = List.sort_uniq String.compare (a1 @ a2) in
          (Expr.Join (e1, Predicate.True, e2), attrs) );
        ( pair sub sub >>= fun ((e1, a1), (e2, a2)) ->
          let shared = List.filter (fun a -> List.mem a a2) a1 in
          if shared = [] then return (e1, a1)
            (* disjoint outputs: no compatible set operation *)
          else
            oneofl [ `U; `D ] >|= fun k ->
            let p1 = Expr.Project (shared, e1)
            and p2 = Expr.Project (shared, e2) in
            match k with
            | `U -> (Expr.Union (p1, p2), shared)
            | `D -> (Expr.Diff (p1, p2), shared) );
      ]

and sublist attrs =
  let open QCheck2.Gen in
  List.fold_left
    (fun acc a ->
      acc >>= fun l ->
      bool >|= fun keep -> if keep then a :: l else l)
    (return []) attrs

let xyz_env_gen =
  let open QCheck2.Gen in
  let bag = bag_gen ~max_size:8 xyz_schema in
  triple bag bag bag >>= fun (a, b, c) ->
  let d_for bag = delta_gen_for xyz_schema bag in
  triple (d_for a) (d_for b) (d_for c) >|= fun (da, db, dc) ->
  ([ ("A", a); ("B", b); ("C", c) ], [ ("A", da); ("B", db); ("C", dc) ])

let prop_inc_random_exprs =
  qtest ~count:500 "random expressions: incremental = recompute"
    QCheck2.Gen.(pair (gen_expr 3) xyz_env_gen)
    (fun ((expr, _attrs), (bags, deltas)) ->
      check_incremental expr
        (fun n -> List.assoc_opt n bags)
        deltas)

(* Example 2.2's rule #2: an S update reads R only on the join key *)
let test_value_restrictions_fig1 () =
  let schema = function "R" -> schema_r | _ -> schema_s in
  let ds =
    Rel_delta.delete
      (Rel_delta.insert (Rel_delta.empty schema_s) (s_tuple 20 1 2))
      (s_tuple 10 55 20)
  in
  let restrictions ?(changed = [ "S" ]) ?(known = [ ("S", ds) ]) expr =
    Inc_eval.value_restrictions
      (Inc_eval.compile_reads ~schema expr)
      ~changed:(fun n -> List.mem n changed)
      ~known:(fun n -> List.assoc_opt n known)
  in
  let pred = Alcotest.testable Predicate.pp Predicate.equal in
  let check what expected got =
    Alcotest.(check (list (pair string pred))) what expected got
  in
  let keys = Predicate.one_of "r2" Value.[ Int 10; Int 20 ] in
  check "R read on the keys of ΔS" [ ("R", keys) ] (restrictions t_def);
  check "ΔS not yet known" [ ("R", Predicate.True) ]
    (restrictions ~known:[] t_def);
  (* both sides changed: each old value meets the other's delta *)
  let dr = Rel_delta.insert (Rel_delta.empty schema_r) (r_tuple 5 30 1 100) in
  check "both sides changed"
    [ ("R", keys); ("S", Predicate.(eq (attr "s1") (int 30))) ]
    (restrictions ~changed:[ "R"; "S" ] ~known:[ ("R", dr); ("S", ds) ] t_def);
  let s_keys = Predicate.one_of "s1" Value.[ Int 10; Int 20 ] in
  check "two changed occurrences on the other side"
    [ ("R", Predicate.True); ("S", s_keys) ]
    (restrictions
       Expr.(
         join ~on:(Predicate.eq_attrs "r2" "s1") (base "R")
           (join (base "S") (project [ "s1" ] (base "S")))));
  let theta =
    Expr.(join ~on:Predicate.(lt (attr "r2") (attr "s1")) (base "R") (base "S"))
  in
  check "non-equi join" [ ("R", Predicate.True) ] (restrictions theta);
  let with_null =
    Rel_delta.insert ds
      (Tuple.of_list
         [ ("s1", Value.Null); ("s2", Value.Int 0); ("s3", Value.Int 0) ])
  in
  check "a Null key" [ ("R", Predicate.True) ]
    (restrictions ~known:[ ("S", with_null) ] t_def);
  (* a base read twice gets the disjunction of its reads *)
  let twice =
    Expr.(
      union
        (project [ "r1" ] (join ~on:(Predicate.eq_attrs "r2" "s1") (base "R") (base "S")))
        (project [ "r1" ] (join ~on:(Predicate.eq_attrs "r3" "s1") (base "R") (base "S"))))
  in
  check "two reads of R"
    [
      ("R", Predicate.Or (keys, Predicate.one_of "r3" Value.[ Int 10; Int 20 ]));
    ]
    (restrictions twice)

(* bases over {0,1}³, so natural joins on x, y, z match often and the
   deletions of a delta meet rows of the other bases *)
let tight_env_gen =
  let open QCheck2.Gen in
  let v = int_range 0 1 >|= fun i -> Value.Int i in
  let tuple =
    map3 (fun x y z -> Tuple.of_list [ ("x", x); ("y", y); ("z", z) ]) v v v
  in
  let bag = list_size (int_range 0 8) tuple >|= Bag.of_tuples xyz_schema in
  triple bag bag bag >>= fun (a, b, c) ->
  let d_for bag = delta_gen_for xyz_schema bag in
  triple (d_for a) (d_for b) (d_for c) >|= fun (da, db, dc) ->
  ([ ("A", a); ("B", b); ("C", c) ], [ ("A", da); ("B", db); ("C", dc) ])

(* restricting every read base to its condition leaves the delta of a
   random expression unchanged (joins here are natural on x, y, z) *)
let prop_restricted_reads =
  qtest ~count:1000 "restricted value reads: same delta"
    QCheck2.Gen.(triple (gen_expr 3) tight_env_gen (triple bool bool bool))
    (fun ((expr, _attrs), (bags, deltas), (ca, cb, cc)) ->
      let deltas =
        List.filter
          (fun (n, _) -> match n with "A" -> ca | "B" -> cb | _ -> cc)
          deltas
      in
      let env n = List.assoc_opt n bags in
      let delta n = List.assoc_opt n deltas in
      let restrictions =
        Inc_eval.value_restrictions
          (Inc_eval.compile_reads ~schema:(fun _ -> xyz_schema) expr)
          ~changed:(fun n -> List.mem_assoc n deltas)
          ~known:delta
      in
      let narrowed n =
        match (env n, List.assoc_opt n restrictions) with
        | Some b, Some c -> Some (Bag.select c b)
        | b, None -> b
        | None, Some _ -> None
      in
      Rel_delta.equal
        (Tutil.delta_of_expr ~env ~deltas:delta expr)
        (Tutil.delta_of_expr ~env:narrowed ~deltas:delta expr))

let () =
  Alcotest.run "delta"
    [
      ( "rel_delta",
        [
          Alcotest.test_case "insert/delete cancel" `Quick test_insert_delete_cancel;
          Alcotest.test_case "apply" `Quick test_apply_basic;
          Alcotest.test_case "strict redundancy" `Quick test_apply_strict_redundant;
          Alcotest.test_case "of_diff" `Quick test_of_diff;
          Alcotest.test_case "atom count" `Quick test_atom_count;
        ] );
      ( "delta laws",
        [
          prop_smash_law;
          prop_inverse_law;
          prop_inverse_of_smash;
          prop_select_commutes;
          prop_project_commutes;
          prop_rename_commutes;
        ] );
      ( "multi_delta",
        [
          Alcotest.test_case "basic" `Quick test_multi_delta_basic;
          Alcotest.test_case "smash per relation" `Quick test_multi_delta_smash_per_relation;
        ] );
      ( "incremental eval",
        [
          Alcotest.test_case "SPJ single child" `Quick test_inc_spj_single_child;
          Alcotest.test_case "Example 6.1 simultaneity" `Quick test_inc_spj_both_children;
          Alcotest.test_case "deletion propagates" `Quick test_inc_deletion_propagates;
          Alcotest.test_case "irrelevant update filtered" `Quick test_inc_irrelevant_update;
          Alcotest.test_case "difference: corrected diff1 rule" `Quick test_inc_diff_corrected_rule;
          Alcotest.test_case "difference: diff2 rule" `Quick test_inc_diff_rule2;
          Alcotest.test_case "difference: multiplicity boundary" `Quick test_inc_diff_multiplicity_boundary;
          Alcotest.test_case "union" `Quick test_inc_union;
          Alcotest.test_case "value restrictions" `Quick test_value_restrictions_fig1;
        ] );
      ( "incremental properties",
        [
          prop_inc_spj;
          prop_inc_diff;
          prop_inc_union;
          prop_inc_nested;
          prop_inc_random_exprs;
          prop_restricted_reads;
        ] );
    ]
