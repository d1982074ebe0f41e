(* Tests for the textual view-definition syntax. *)

open Relalg
open Tutil

let check_expr name src expected =
  Alcotest.(check bool)
    name true
    (Parser.expr src = expected)

let check_pred name src expected =
  Alcotest.(check bool)
    name true
    (Predicate.equal (Parser.predicate src) expected)

let test_base_and_project () =
  check_expr "bare relation" "R" (Expr.base "R");
  check_expr "projection" "project a, b (R)"
    Expr.(project [ "a"; "b" ] (base "R"));
  check_expr "nested parens" "((R))" (Expr.base "R")

let test_select () =
  check_pred "equality" "r4 = 100" Predicate.(eq (attr "r4") (int 100));
  check_expr "selection" "select r4 = 100 (R)"
    Expr.(select Predicate.(eq (attr "r4") (int 100)) (base "R"))

let test_example_2_1_roundtrip () =
  let parsed =
    Parser.expr
      "project r1, r3, s1, s2 (select r4 = 100 (R) join on r2 = s1 select s3 \
       < 50 (S))"
  in
  Alcotest.(check bool) "matches the Example 2.1 AST" true
    (parsed = t_def);
  (* and evaluates identically *)
  let env = function
    | "R" -> Some sample_r
    | "S" -> Some sample_s
    | _ -> None
  in
  check_bag "same evaluation" (Eval.eval ~env t_def) (Eval.eval ~env parsed)

let test_union_minus () =
  check_expr "union" "A union B" Expr.(union (base "A") (base "B"));
  check_expr "minus" "A minus B" Expr.(diff (base "A") (base "B"));
  check_expr "setops right-assoc via parens"
    "(project x (A)) minus (project x (B))"
    Expr.(diff (project [ "x" ] (base "A")) (project [ "x" ] (base "B")))

let test_join_variants () =
  check_expr "natural join" "A join B" Expr.(join (base "A") (base "B"));
  check_expr "chained joins" "A join B join C"
    Expr.(join (join (base "A") (base "B")) (base "C"));
  check_expr "theta join with arithmetic"
    "A join on a1 * a1 + a2 < b2 * b2 B"
    Expr.(
      join
        ~on:
          Predicate.(
            lt
              (Add (Mul (attr "a1", attr "a1"), attr "a2"))
              (Mul (attr "b2", attr "b2")))
        (base "A") (base "B"))

let test_predicate_connectives () =
  check_pred "and/or precedence" "a = 1 and b = 2 or c = 3"
    Predicate.(
      Or (And (eq (attr "a") (int 1), eq (attr "b") (int 2)), eq (attr "c") (int 3)));
  check_pred "not" "not a < 3" Predicate.(Not (lt (attr "a") (int 3)));
  check_pred "parenthesized predicate" "(a = 1 or b = 2) and c = 3"
    Predicate.(
      And (Or (eq (attr "a") (int 1), eq (attr "b") (int 2)), eq (attr "c") (int 3)));
  check_pred "true/false" "true and not false" Predicate.(And (True, Not False))

let test_literals () =
  check_pred "float" "x >= 2.5" Predicate.(ge (attr "x") (Const (Value.Float 2.5)));
  check_pred "string" "name = 'alice'" Predicate.(eq (attr "name") (Const (Value.Str "alice")));
  check_pred "negative" "x = -3"
    Predicate.(eq (attr "x") (Const (Value.Int (-3))));
  check_pred "negated attribute" "x = -y" Predicate.(eq (attr "x") (Neg (attr "y")));
  check_pred "negative float" "x < -1.5" Predicate.(lt (attr "x") (Const (Value.Float (-1.5))));
  check_pred "boolean constants" "b = true and c <> false"
    Predicate.(
      And
        ( eq (attr "b") (Const (Value.Bool true)),
          Cmp (Ne, attr "c", Const (Value.Bool false)) ));
  check_pred "boolean constant on the left" "true = b"
    Predicate.(eq (Const (Value.Bool true)) (attr "b"));
  check_pred "null" "x = null or y <> NULL"
    Predicate.(
      Or (eq (attr "x") (Const Value.Null), Cmp (Ne, attr "y", Const Value.Null)));
  check_pred "not-equal spellings" "x <> 3" Predicate.(Cmp (Ne, attr "x", int 3));
  check_pred "!= alias" "x != 3" Predicate.(Cmp (Ne, attr "x", int 3))

(* a comparison of two constants prints and parses back to itself:
   negative numbers are one constant, booleans and null are literals *)
let prop_constant_comparison_prints_back =
  let const =
    QCheck2.Gen.(
      oneof
        [
          return Value.Null;
          map (fun b -> Value.Bool b) bool;
          map (fun i -> Value.Int i) (int_range (-1_000_000) 1_000_000);
          map (fun i -> Value.Int i) (oneofl [ max_int; -max_int; 0 ]);
          map
            (fun (m, e) -> Value.Float (Float.ldexp (float_of_int m) e))
            (pair (int_range (-1_000_000) 1_000_000) (int_range (-30) 30));
          map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 6));
        ])
  in
  Tutil.qtest ~count:500 "constant comparison prints back"
    QCheck2.Gen.(
      triple
        (oneofl Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ])
        const const)
    (fun (op, a, b) ->
      let p = Predicate.Cmp (op, Const a, Const b) in
      Parser.predicate (Format.asprintf "%a" Predicate.pp p) = p)

let test_parenthesized_arith_comparison () =
  (* '(' opening an arithmetic term inside a comparison *)
  check_pred "arith parens" "(a + b) * 2 < 10"
    Predicate.(
      lt (Mul (Add (attr "a", attr "b"), Const (Value.Int 2))) (int 10))

let test_primed_identifiers () =
  check_expr "VDP node names parse" "R' join S'"
    Expr.(join (base "R'") (base "S'"))

let test_rename_syntax () =
  check_expr "rename" "rename wid to oid, client to cust (OrdersW)"
    Expr.(rename [ ("wid", "oid"); ("client", "cust") ] (base "OrdersW"));
  check_expr "rename under select"
    "select oid < 5 (rename wid to oid (W))"
    Expr.(
      select Predicate.(lt (attr "oid") (int 5))
        (rename [ ("wid", "oid") ] (base "W")))

let test_attr_list () =
  Alcotest.(check (list string))
    "attrs" [ "r1"; "r3"; "s1" ]
    (Parser.attrs "r1, r3, s1")

let expect_error name src =
  Alcotest.test_case name `Quick (fun () ->
      try
        ignore (Parser.expr src);
        Alcotest.fail "expected Parse_error"
      with Parser.Parse_error _ -> ())

let test_keywords_case_insensitive () =
  check_expr "upper-case keywords" "SELECT x = 1 (R) UNION S"
    Expr.(union (select Predicate.(eq (attr "x") (int 1)) (base "R")) (base "S"))

let () =
  Alcotest.run "parser"
    [
      ( "expressions",
        [
          Alcotest.test_case "base/project" `Quick test_base_and_project;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "Example 2.1 round-trip" `Quick test_example_2_1_roundtrip;
          Alcotest.test_case "union/minus" `Quick test_union_minus;
          Alcotest.test_case "join variants" `Quick test_join_variants;
          Alcotest.test_case "primed identifiers" `Quick test_primed_identifiers;
          Alcotest.test_case "case-insensitive keywords" `Quick test_keywords_case_insensitive;
          Alcotest.test_case "rename syntax" `Quick test_rename_syntax;
        ] );
      ( "predicates",
        [
          Alcotest.test_case "connectives" `Quick test_predicate_connectives;
          Alcotest.test_case "literals" `Quick test_literals;
          prop_constant_comparison_prints_back;
          Alcotest.test_case "parenthesized arithmetic" `Quick test_parenthesized_arith_comparison;
          Alcotest.test_case "attribute lists" `Quick test_attr_list;
        ] );
      ( "errors",
        [
          expect_error "unbalanced parens" "select x = 1 (R";
          expect_error "missing condition" "select (R)";
          expect_error "trailing input" "R S";
          expect_error "bad character" "R ? S";
          expect_error "unterminated string" "select x = 'oops (R)";
        ] );
    ]
