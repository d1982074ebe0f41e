(* Tests for View Decomposition Plans: structure (Def. 5.1), the
   builder, derived_from (Sec. 6.3), the rulebase (Sec. 5.2),
   annotations and the Sec. 5.3 advisor. *)

open Relalg
open Delta
open Vdp
open Tutil

(* --- hand-built Figure 1 VDP -------------------------------------- *)

let schema_r' =
  Schema.make ~key:[ "r1" ]
    [ ("r1", Value.TInt); ("r2", Value.TInt); ("r3", Value.TInt) ]

let schema_s' =
  Schema.make ~key:[ "s1" ] [ ("s1", Value.TInt); ("s2", Value.TInt) ]

let schema_t =
  Schema.make
    [ ("r1", Value.TInt); ("r3", Value.TInt); ("s1", Value.TInt); ("s2", Value.TInt) ]

let fig1_nodes =
  [
    { Graph.name = "R"; schema = schema_r; kind = Graph.Leaf { source = "db1" }; export = false };
    { Graph.name = "S"; schema = schema_s; kind = Graph.Leaf { source = "db2" }; export = false };
    {
      Graph.name = "R'";
      schema = schema_r';
      kind = Graph.Derived Expr.(project [ "r1"; "r2"; "r3" ] (select cond_r4 (base "R")));
      export = false;
    };
    {
      Graph.name = "S'";
      schema = schema_s';
      kind = Graph.Derived Expr.(project [ "s1"; "s2" ] (select cond_s3 (base "S")));
      export = false;
    };
    {
      Graph.name = "T";
      schema = schema_t;
      kind =
        Graph.Derived
          Expr.(project [ "r1"; "r3"; "s1"; "s2" ] (join ~on:join_cond (base "R'") (base "S'")));
      export = true;
    };
  ]

let fig1 = Graph.make fig1_nodes

let test_graph_structure () =
  Alcotest.(check (list string)) "children of T" [ "R'"; "S'" ] (Graph.children fig1 "T");
  Alcotest.(check (list string)) "parents of R'" [ "T" ] (Graph.parents fig1 "R'");
  Alcotest.(check (list string)) "sources" [ "db1"; "db2" ] (Graph.sources fig1);
  Alcotest.(check string) "source of R" "db1" (Graph.source_of_leaf fig1 "R");
  Alcotest.(check bool) "R is leaf" true (Graph.is_leaf fig1 "R");
  Alcotest.(check bool) "T not set node" false (Expr.contains_diff (Graph.def fig1 "T"));
  Alcotest.(check (list string))
    "leaf parents"
    [ "R'"; "S'" ]
    (List.sort String.compare (List.map (fun n -> n.Graph.name) (Graph.leaf_parents fig1)));
  Alcotest.(check (list string))
    "exports" [ "T" ]
    (List.map (fun n -> n.Graph.name) (Graph.exports fig1))

let test_graph_topo () =
  let order = Graph.topo_order fig1 in
  let pos x = Option.get (List.find_index (String.equal x) order) in
  Alcotest.(check int) "3 non-leaves" 3 (List.length order);
  Alcotest.(check bool) "R' before T" true (pos "R'" < pos "T");
  Alcotest.(check bool) "S' before T" true (pos "S'" < pos "T")

let test_graph_descendants () =
  Alcotest.(check (list string))
    "descendants of T"
    [ "R"; "R'"; "S"; "S'" ]
    (Graph.descendants fig1 "T");
  Alcotest.(check (list string)) "ancestors of R" [ "R'"; "T" ] (Graph.ancestors fig1 "R")

let test_graph_rejects_leaf_parent_join () =
  (* restriction (a): leaf-parent may not join *)
  let bad =
    [
      { Graph.name = "R"; schema = schema_r; kind = Graph.Leaf { source = "db1" }; export = false };
      { Graph.name = "S"; schema = schema_s; kind = Graph.Leaf { source = "db2" }; export = false };
      {
        Graph.name = "T";
        schema = Schema.join schema_r schema_s;
        kind = Graph.Derived Expr.(join ~on:join_cond (base "R") (base "S"));
        export = true;
      };
    ]
  in
  try
    ignore (Graph.make bad);
    Alcotest.fail "expected Vdp_error"
  with Graph.Vdp_error _ -> ()

let test_graph_rejects_join_under_diff () =
  (* restriction (c): children of a difference must be select/project *)
  let sch = Schema.make [ ("x", Value.TInt) ] in
  let bad =
    [
      { Graph.name = "A"; schema = sch; kind = Graph.Leaf { source = "d" }; export = false };
      { Graph.name = "A'"; schema = sch; kind = Graph.Derived (Expr.base "A"); export = false };
      { Graph.name = "B"; schema = Schema.make [ ("y", Value.TInt) ]; kind = Graph.Leaf { source = "d" }; export = false };
      { Graph.name = "B'"; schema = Schema.make [ ("y", Value.TInt) ]; kind = Graph.Derived (Expr.base "B"); export = false };
      {
        Graph.name = "T";
        schema = Schema.join sch (Schema.make [ ("y", Value.TInt) ]);
        kind =
          Graph.Derived
            Expr.(diff (join (base "A'") (base "B'")) (join (base "A'") (base "B'")));
        export = true;
      };
    ]
  in
  try
    ignore (Graph.make bad);
    Alcotest.fail "expected Vdp_error"
  with Graph.Vdp_error _ -> ()

let test_graph_rejects_cycle () =
  let sch = Schema.make [ ("x", Value.TInt) ] in
  let bad =
    [
      { Graph.name = "A"; schema = sch; kind = Graph.Derived (Expr.base "B"); export = true };
      { Graph.name = "B"; schema = sch; kind = Graph.Derived (Expr.base "A"); export = true };
    ]
  in
  try
    ignore (Graph.make bad);
    Alcotest.fail "expected Vdp_error"
  with Graph.Vdp_error _ -> ()

let test_graph_rejects_unexported_maximal () =
  let sch = Schema.make [ ("x", Value.TInt) ] in
  let bad =
    [
      { Graph.name = "A"; schema = sch; kind = Graph.Leaf { source = "d" }; export = false };
      { Graph.name = "A'"; schema = sch; kind = Graph.Derived (Expr.base "A"); export = false };
    ]
  in
  try
    ignore (Graph.make bad);
    Alcotest.fail "expected Vdp_error"
  with Graph.Vdp_error _ -> ()

let test_graph_rejects_schema_mismatch () =
  let sch = Schema.make [ ("x", Value.TInt) ] in
  let bad =
    [
      { Graph.name = "A"; schema = sch; kind = Graph.Leaf { source = "d" }; export = false };
      {
        Graph.name = "A'";
        schema = Schema.make [ ("y", Value.TInt) ];
        kind = Graph.Derived (Expr.base "A");
        export = true;
      };
    ]
  in
  try
    ignore (Graph.make bad);
    Alcotest.fail "expected Vdp_error"
  with Graph.Vdp_error _ -> ()

(* --- builder ------------------------------------------------------- *)

let source_env name =
  match name with "R" -> Some "db1" | "S" -> Some "db2" | _ -> None

let schema_env name =
  match name with "R" -> Some schema_r | "S" -> Some schema_s | _ -> None

let build_fig1 () =
  let b = Builder.create ~source_of:source_env ~schema_of:schema_env () in
  Builder.add_export b ~name:"T" t_def;
  Builder.build b

let test_builder_fig1_structure () =
  let vdp = build_fig1 () in
  Alcotest.(check (list string))
    "nodes"
    [ "R"; "R'"; "S"; "S'"; "T" ]
    (List.sort compare (List.map (fun n -> n.Graph.name) (Graph.nodes vdp)));
  Alcotest.(check (list string)) "T children" [ "R'"; "S'" ] (Graph.children vdp "T")

let test_builder_leaf_parent_projection () =
  (* the paper's R' keeps r1,r2,r3 and drops the selection attribute r4 *)
  let vdp = build_fig1 () in
  let r' = Graph.node vdp "R'" in
  Alcotest.(check (list string))
    "R' attrs (Figure 1)"
    [ "r1"; "r2"; "r3" ]
    (Schema.attrs r'.Graph.schema);
  let s' = Graph.node vdp "S'" in
  Alcotest.(check (list string))
    "S' attrs (Figure 1)"
    [ "s1"; "s2" ]
    (Schema.attrs s'.Graph.schema);
  (* keys survive the projection *)
  Alcotest.(check (list string)) "R' key" [ "r1" ] (Schema.key r'.Graph.schema)

let test_builder_equivalence () =
  (* the built VDP computes the same view as direct evaluation *)
  let vdp = build_fig1 () in
  let rec node_value name =
    match (Graph.node vdp name).Graph.kind with
    | Graph.Leaf _ -> (
      match name with "R" -> sample_r | "S" -> sample_s | _ -> assert false)
    | Graph.Derived e -> Eval.eval ~env:(fun n -> Some (node_value n)) e
  in
  let via_vdp = node_value "T" in
  let direct =
    Eval.eval
      ~env:(function "R" -> Some sample_r | "S" -> Some sample_s | _ -> None)
      t_def
  in
  check_bag "VDP evaluation = direct evaluation" direct via_vdp

(* Example 5.1 / Figure 4: two exports, non-equi join, difference *)
let schema_a =
  Schema.make ~key:[ "a1" ] [ ("a1", Value.TInt); ("a2", Value.TInt) ]

let schema_b =
  Schema.make ~key:[ "b1" ] [ ("b1", Value.TInt); ("b2", Value.TInt) ]

let schema_c =
  Schema.make ~key:[ "c1" ] [ ("c1", Value.TInt); ("a1", Value.TInt) ]

let schema_d =
  Schema.make ~key:[ "d1" ] [ ("d1", Value.TInt); ("b1", Value.TInt) ]

let ex51_sources name =
  match name with
  | "A" -> Some "dbA"
  | "B" -> Some "dbB"
  | "C" -> Some "dbC"
  | "D" -> Some "dbD"
  | _ -> None

let ex51_schemas name =
  match name with
  | "A" -> Some schema_a
  | "B" -> Some schema_b
  | "C" -> Some schema_c
  | "D" -> Some schema_d
  | _ -> None

let e_cond =
  Predicate.(
    lt (Add (Mul (attr "a1", attr "a1"), attr "a2")) (Mul (attr "b2", attr "b2")))

let build_ex51 () =
  let b = Builder.create ~source_of:ex51_sources ~schema_of:ex51_schemas () in
  Builder.add_export b ~name:"E"
    Expr.(project [ "a1"; "a2"; "b1" ] (join ~on:e_cond (base "A") (base "B")));
  Builder.add_node b ~name:"F"
    Expr.(project [ "a1"; "b1" ] (join ~on:(Predicate.eq_attrs "c1" "d1") (base "C") (base "D")));
  Builder.add_export b ~name:"G"
    Expr.(diff (project [ "a1"; "b1" ] (base "E")) (base "F"));
  Builder.build b

let test_builder_ex51 () =
  let vdp = build_ex51 () in
  Alcotest.(check (list string))
    "G children" [ "E"; "F" ] (Graph.children vdp "G");
  Alcotest.(check bool) "G is set node" true (Expr.contains_diff (Graph.def vdp "G"));
  Alcotest.(check bool) "E exported" true (Graph.node vdp "E").Graph.export;
  Alcotest.(check bool) "F not exported" false (Graph.node vdp "F").Graph.export;
  (* E is referenced by G, so E has a parent *)
  Alcotest.(check (list string)) "E parents" [ "G" ] (Graph.parents vdp "E");
  (* F's children are the leaf-parents of C and D *)
  Alcotest.(check (list string)) "F children" [ "C'"; "D'" ] (Graph.children vdp "F")

let test_builder_shared_leaf_parents () =
  (* two views over the same source relation with the same condition
     share a leaf-parent; a different condition forks a second one *)
  let b = Builder.create ~source_of:source_env ~schema_of:schema_env () in
  Builder.add_export b ~name:"V1" Expr.(project [ "r1" ] (select cond_r4 (base "R")));
  Builder.add_export b ~name:"V2" Expr.(project [ "r2" ] (select cond_r4 (base "R")));
  Builder.add_export b ~name:"V3"
    Expr.(project [ "r3" ] (select Predicate.(lt (attr "r4") (int 5)) (base "R")));
  let vdp = Builder.build b in
  let lps =
    List.sort String.compare (List.map (fun n -> n.Graph.name) (Graph.leaf_parents vdp))
  in
  Alcotest.(check (list string)) "two leaf parents" [ "R'"; "R'2" ] lps;
  (* shared one holds the union of both views' needs *)
  Alcotest.(check (list string))
    "shared R' attrs"
    [ "r1"; "r2" ]
    (Schema.attrs (Graph.node vdp "R'").Graph.schema)

let test_builder_unknown_relation () =
  let b = Builder.create ~source_of:source_env ~schema_of:schema_env () in
  try
    Builder.add_export b ~name:"V" (Expr.base "NOPE");
    Alcotest.fail "expected Builder_error"
  with Builder.Builder_error _ -> ()

(* --- derived_from --------------------------------------------------- *)

let test_derived_from_spj () =
  (* query pi_{r3,s1} sigma_{r3<100} T (Example 2.3) *)
  let cond = Predicate.(lt (attr "r3") (int 100)) in
  let result =
    Derived_from.reads (Derived_from.rule fig1 "T") ~attrs:[ "r3"; "s1" ] ~cond
  in
  (match List.assoc_opt "R'" (List.map (fun (n, b, g) -> (n, (b, g))) result) with
  | Some (b, g) ->
    (* needs r3 (queried), r2 (join condition), and the condition r3<100 *)
    Alcotest.(check (list string)) "B for R'" [ "r2"; "r3" ] (List.sort String.compare b);
    Alcotest.(check bool) "condition pushed to R'" true (Predicate.equal g cond)
  | None -> Alcotest.fail "R' missing");
  match List.assoc_opt "S'" (List.map (fun (n, b, g) -> (n, (b, g))) result) with
  | Some (b, g) ->
    Alcotest.(check (list string)) "B for S'" [ "s1" ] (List.sort String.compare b);
    Alcotest.(check bool) "no S' condition" true (Predicate.equal g Predicate.True)
  | None -> Alcotest.fail "S' missing"

let test_derived_from_diff_includes_output () =
  (* case (4): under a difference both children need the output attrs *)
  let vdp = build_ex51 () in
  let result =
    Derived_from.reads (Derived_from.rule vdp "G") ~attrs:[ "a1" ]
      ~cond:Predicate.True
  in
  List.iter
    (fun (_, b, _) ->
      Alcotest.(check (list string))
        "children need all output attrs"
        [ "a1"; "b1" ]
        (List.sort String.compare b))
    result;
  Alcotest.(check int) "both children listed" 2 (List.length result)

let test_needed_attrs_of_children () =
  let needs = Derived_from.needed_attrs_of_children fig1 "T" in
  Alcotest.(check (list string))
    "R' contribution"
    [ "r1"; "r2"; "r3" ]
    (List.sort String.compare (List.assoc "R'" needs))

(* --- rules ----------------------------------------------------------- *)

let fig1_env populated name =
  match List.assoc_opt name populated with Some b -> Some b | None -> None

let populated_fig1 () =
  let r' =
    Eval.eval
      ~env:(function "R" -> Some sample_r | _ -> None)
      (Graph.def fig1 "R'")
  in
  let s' =
    Eval.eval
      ~env:(function "S" -> Some sample_s | _ -> None)
      (Graph.def fig1 "S'")
  in
  let t =
    Eval.eval
      ~env:(function "R'" -> Some r' | "S'" -> Some s' | _ -> None)
      (Graph.def fig1 "T")
  in
  [ ("R'", r'); ("S'", s'); ("T", t) ]

(* the rules of a Figure 1 node's in-edges fired for the given child
   deltas, as the IUP fires them: one delta of the node's definition *)
let fire_node ~env ~node deltas =
  Tutil.delta_of_expr ~env
    ~deltas:(fun n -> List.assoc_opt n deltas)
    (Graph.def fig1 node)

let test_rule_example_2_1 () =
  (* rule #1: on changes to R', dT = dR' |X| S' *)
  let populated = populated_fig1 () in
  let env = fig1_env populated in
  let dr' =
    Rel_delta.insert
      (Rel_delta.empty schema_r')
      (Tuple.of_list [ ("r1", v_int 50); ("r2", v_int 10); ("r3", v_int 1) ])
  in
  let dt = fire_node ~env ~node:"T" [ ("R'", dr') ] in
  let expected_tuple =
    Tuple.of_list
      [ ("r1", v_int 50); ("r3", v_int 1); ("s1", v_int 10); ("s2", v_int 55) ]
  in
  Alcotest.(check int) "rule #1 output" 1 (Rel_delta.signed_mult dt expected_tuple);
  (* manual check against the textbook formula dR' |X| S' *)
  let manual =
    Rel_delta.project [ "r1"; "r3"; "s1"; "s2" ]
      (Rel_delta.join_bag ~on:join_cond dr' (List.assoc "S'" populated))
  in
  check_delta "matches dR' |X| S'" manual dt

let test_rule_fire_node_simultaneous () =
  (* both children deltas at once (Example 6.1) equals recompute *)
  let populated = populated_fig1 () in
  let env = fig1_env populated in
  let dr' =
    Rel_delta.insert
      (Rel_delta.empty schema_r')
      (Tuple.of_list [ ("r1", v_int 50); ("r2", v_int 99); ("r3", v_int 1) ])
  in
  let ds' =
    Rel_delta.insert
      (Rel_delta.empty schema_s')
      (Tuple.of_list [ ("s1", v_int 99); ("s2", v_int 2) ])
  in
  let dt = fire_node ~env ~node:"T" [ ("R'", dr'); ("S'", ds') ] in
  let new_env name =
    match name with
    | "R'" -> Some (Rel_delta.apply (List.assoc "R'" populated) dr')
    | "S'" -> Some (Rel_delta.apply (List.assoc "S'" populated) ds')
    | n -> fig1_env populated n
  in
  let recomputed = Eval.eval ~env:new_env (Graph.def fig1 "T") in
  check_bag "fire_node = recompute" recomputed
    (Rel_delta.apply (List.assoc "T" populated) dt)

let contains_substring s sub =
  let rec go i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || go (i + 1))
  in
  go 0

let test_rule_describe () =
  let text = Rules.describe fig1 in
  Alcotest.(check bool)
    "mentions rule for edge (T, R')" true
    (contains_substring text "on Δ(R')");
  Alcotest.(check bool)
    "mentions rule for edge (T, S')" true
    (contains_substring text "on Δ(S')")

(* --- annotation ------------------------------------------------------ *)

let test_annotation_basics () =
  let ann =
    Annotation.of_list fig1
      [ ("T", [ ("r1", Annotation.M); ("r3", Annotation.V); ("s1", Annotation.M); ("s2", Annotation.V) ]) ]
  in
  Alcotest.(check (list string))
    "materialized attrs" [ "r1"; "s1" ]
    (Annotation.materialized_attrs ann "T");
  Alcotest.(check (list string))
    "virtual attrs" [ "r3"; "s2" ]
    (Annotation.virtual_attrs ann "T");
  (* unlisted nodes default to fully materialized *)
  Alcotest.(check bool) "R' fully mat" true (Annotation.virtual_attrs ann "R'" = [])

let test_annotation_errors () =
  (try
     ignore (Annotation.of_list fig1 [ ("T", [ ("nope", Annotation.M) ]) ]);
     Alcotest.fail "expected Annotation_error"
   with Annotation.Annotation_error _ -> ());
  try
    ignore (Annotation.of_list fig1 [ ("R", [ ("r1", Annotation.M) ]) ]);
    Alcotest.fail "expected Annotation_error (leaf)"
  with Annotation.Annotation_error _ -> ()

(* --- advisor ---------------------------------------------------------- *)

let test_advisor_example_2_2 () =
  (* frequent updates to R, rare updates to S: R' goes virtual, S'
     stays materialized *)
  let profile =
    {
      Advisor.update_rate = (function "R" -> 100.0 | _ -> 0.1);
      attr_access = (fun _ _ -> 1.0);
    }
  in
  let ann, _why = Advisor.advise fig1 profile in
  Alcotest.(check bool) "R' virtual" true (Annotation.materialized_attrs ann "R'" = []);
  Alcotest.(check bool) "S' materialized" true (Annotation.virtual_attrs ann "S'" = []);
  Alcotest.(check bool) "T materialized" true (Annotation.virtual_attrs ann "T" = [])

let test_advisor_example_5_1 () =
  (* B updates frequently; queries mostly touch a1,b1 of E. The paper's
     suggested annotation: B' and F virtual, E hybrid [a1^m,a2^v,b1^m],
     others materialized. *)
  let vdp = build_ex51 () in
  let profile =
    {
      Advisor.update_rate = (function "B" -> 50.0 | _ -> 1.0);
      attr_access =
        (fun node attr ->
          match (node, attr) with
          | "E", "a2" -> 0.01 (* rarely accessed *)
          | "G", _ -> 1.0
          | _ -> 0.9);
    }
  in
  let ann, _why = Advisor.advise vdp profile in
  Alcotest.(check bool) "B' virtual" true (Annotation.materialized_attrs ann "B'" = []);
  Alcotest.(check bool) "F virtual" true (Annotation.materialized_attrs ann "F" = []);
  Alcotest.(check bool) "A' materialized" true (Annotation.virtual_attrs ann "A'" = []);
  Alcotest.(check bool) "C' materialized" true (Annotation.virtual_attrs ann "C'" = []);
  Alcotest.(check (list string))
    "E hybrid [a1^m, a2^v, b1^m]"
    [ "a1"; "b1" ]
    (Annotation.materialized_attrs ann "E");
  Alcotest.(check bool) "G materialized" true (Annotation.virtual_attrs ann "G" = [])

let test_cost_expensive_join () =
  let vdp = build_ex51 () in
  Alcotest.(check bool) "E expensive" true (Advisor.is_expensive_join vdp "E");
  Alcotest.(check bool) "F cheap (equi)" false (Advisor.is_expensive_join vdp "F");
  Alcotest.(check bool) "T cheap" false (Advisor.is_expensive_join fig1 "T")

(* --- restrict_def ------------------------------------------------------ *)

let test_restrict_def_equivalence () =
  (* narrowing internal projections to what a request needs must not
     change the result of the request *)
  let vdp = build_ex51 () in
  let values =
    (* fully populate every node bottom-up from sample leaf data *)
    let rng = Workload.Datagen.state 31 in
    let leaf_bags =
      List.map
        (fun (rel, schema) ->
          (rel, Workload.Datagen.bag rng schema (Workload.Scenario.ex51_update_specs rel) ~size:20))
        [ ("A", schema_a); ("B", schema_b); ("C", schema_c); ("D", schema_d) ]
    in
    let tbl = Hashtbl.create 16 in
    List.iter (fun (n, b) -> Hashtbl.replace tbl n b) leaf_bags;
    List.iter
      (fun node ->
        let v =
          Eval.eval ~env:(Hashtbl.find_opt tbl) (Graph.def vdp node)
        in
        Hashtbl.replace tbl node v)
      (Graph.topo_order vdp);
    tbl
  in
  let env = Hashtbl.find_opt values in
  List.iter
    (fun (node, attrs, cond) ->
      let original =
        Bag.project attrs
          (Bag.select cond (Eval.eval ~env (Graph.def vdp node)))
      in
      let restricted =
        Bag.project attrs
          (Bag.select cond
             (Eval.eval ~env (Derived_from.restrict (Derived_from.rule vdp node) ~attrs ~cond)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "restrict_def(%s, {%s}) equivalent" node
           (String.concat "," attrs))
        true
        (Bag.equal original restricted))
    [
      ("E", [ "a1" ], Predicate.True);
      ("E", [ "a1"; "b1" ], Predicate.(lt (attr "a1") (int 10)));
      ("F", [ "b1" ], Predicate.True);
      ("G", [ "a1" ], Predicate.True);
      ("G", [ "a1"; "b1" ], Predicate.(Cmp (Gt, attr "b1", int 3)));
    ]

(* --- dot rendering ------------------------------------------------------ *)

let test_dot_render () =
  let ann = Annotation.of_list fig1 [ ("T", [ ("r3", Annotation.V) ]) ] in
  let dot = Dot.render ~annotation:ann fig1 in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %S" fragment)
        true
        (contains_substring dot fragment))
    [
      "digraph vdp";
      "cluster_src_0";
      "\"R\" [shape=box";
      "doublecircle";
      "r3ᵛ";
      "\"R'\" -> \"T\"";
    ];
  (* without an annotation, no marks appear *)
  let plain = Dot.render fig1 in
  Alcotest.(check bool) "no marks" false (contains_substring plain "ᵛ")

let () =
  Alcotest.run "vdp"
    [
      ( "graph",
        [
          Alcotest.test_case "structure" `Quick test_graph_structure;
          Alcotest.test_case "topological order" `Quick test_graph_topo;
          Alcotest.test_case "descendants/ancestors" `Quick test_graph_descendants;
          Alcotest.test_case "rejects joining leaf-parent" `Quick test_graph_rejects_leaf_parent_join;
          Alcotest.test_case "rejects join under diff" `Quick test_graph_rejects_join_under_diff;
          Alcotest.test_case "rejects cycle" `Quick test_graph_rejects_cycle;
          Alcotest.test_case "rejects unexported maximal" `Quick test_graph_rejects_unexported_maximal;
          Alcotest.test_case "rejects schema mismatch" `Quick test_graph_rejects_schema_mismatch;
        ] );
      ( "builder",
        [
          Alcotest.test_case "Figure 1 structure" `Quick test_builder_fig1_structure;
          Alcotest.test_case "leaf-parent projection" `Quick test_builder_leaf_parent_projection;
          Alcotest.test_case "evaluation equivalence" `Quick test_builder_equivalence;
          Alcotest.test_case "Example 5.1 / Figure 4" `Quick test_builder_ex51;
          Alcotest.test_case "shared leaf-parents" `Quick test_builder_shared_leaf_parents;
          Alcotest.test_case "unknown relation" `Quick test_builder_unknown_relation;
        ] );
      ( "restrict_def",
        [ Alcotest.test_case "request equivalence" `Quick test_restrict_def_equivalence ] );
      ( "dot",
        [ Alcotest.test_case "rendering" `Quick test_dot_render ] );
      ( "derived_from",
        [
          Alcotest.test_case "SPJ case" `Quick test_derived_from_spj;
          Alcotest.test_case "difference includes output attrs" `Quick test_derived_from_diff_includes_output;
          Alcotest.test_case "needed_attrs_of_children" `Quick test_needed_attrs_of_children;
        ] );
      ( "rules",
        [
          Alcotest.test_case "Example 2.1 rule #1" `Quick test_rule_example_2_1;
          Alcotest.test_case "simultaneous deltas (Example 6.1)" `Quick test_rule_fire_node_simultaneous;
          Alcotest.test_case "rulebase description" `Quick test_rule_describe;
        ] );
      ( "annotation",
        [
          Alcotest.test_case "basics" `Quick test_annotation_basics;
          Alcotest.test_case "errors" `Quick test_annotation_errors;
        ] );
      ( "advisor/cost",
        [
          Alcotest.test_case "Example 2.2 rates" `Quick test_advisor_example_2_2;
          Alcotest.test_case "Example 5.1 annotation" `Quick test_advisor_example_5_1;
          Alcotest.test_case "expensive join detection" `Quick test_cost_expensive_join;
        ] );
    ]
