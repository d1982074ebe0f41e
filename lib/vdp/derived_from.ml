open Relalg
module Sset = Set.Make (String)

(* All attributes appearing in select or join conditions within a
   definition expression. *)
let rec condition_attrs = function
  | Expr.Base _ -> Sset.empty
  | Expr.Select (p, e) ->
    Sset.union (Sset.of_list (Predicate.attrs p)) (condition_attrs e)
  | Expr.Project (_, e) | Expr.Rename (_, e) -> condition_attrs e
  | Expr.Join (a, p, b) ->
    Sset.union
      (Sset.of_list (Predicate.attrs p))
      (Sset.union (condition_attrs a) (condition_attrs b))
  | Expr.Union (a, b) | Expr.Diff (a, b) ->
    Sset.union (condition_attrs a) (condition_attrs b)

(* Natural-join equality on shared attribute names is implicit in the
   Join constructor; shared attributes are condition attributes too. *)
let rec implicit_join_attrs env = function
  | Expr.Base _ -> Sset.empty
  | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) ->
    implicit_join_attrs env e
  | Expr.Join (a, _, b) ->
    let sa = Expr.schema_of env a and sb = Expr.schema_of env b in
    let shared =
      List.filter (fun n -> Schema.mem sb n) (Schema.attrs sa)
    in
    Sset.union (Sset.of_list shared)
      (Sset.union (implicit_join_attrs env a) (implicit_join_attrs env b))
  | Expr.Union (a, b) | Expr.Diff (a, b) ->
    Sset.union (implicit_join_attrs env a) (implicit_join_attrs env b)

let derived_from vdp ~node ~attrs ~cond =
  let n = Graph.node vdp node in
  let def =
    match n.Graph.kind with
    | Graph.Derived e -> e
    | Graph.Leaf _ -> raise (Graph.Vdp_error (node ^ " is a leaf"))
  in
  List.iter
    (fun a -> ignore (Schema.ty_of_attr n.Graph.schema a))
    attrs;
  let env = Graph.schema_env vdp in
  let cond_attrs =
    Sset.union (condition_attrs def) (implicit_join_attrs env def)
  in
  let extra =
    (* case (4): difference nodes additionally need the output
       attributes of both children to decide membership *)
    if Expr.contains_diff def then Sset.of_list (Schema.attrs n.Graph.schema)
    else Sset.empty
  in
  let wanted = Sset.union (Sset.of_list attrs) (Sset.union cond_attrs extra) in
  List.filter_map
    (fun child ->
      let child_schema = Graph.schema_env vdp child in
      let child_attrs = Schema.attrs child_schema in
      let b = List.filter (fun a -> Sset.mem a wanted) child_attrs in
      if b = [] then None
      else
        let g = Predicate.restrict_to cond child_attrs in
        Some (child, b, g))
    (Graph.children vdp node)

let restrict_def vdp ~node ~attrs ~cond =
  let n = Graph.node vdp node in
  let def =
    match n.Graph.kind with
    | Graph.Derived e -> e
    | Graph.Leaf _ -> raise (Graph.Vdp_error (node ^ " is a leaf"))
  in
  let env = Graph.schema_env vdp in
  let extra =
    if Expr.contains_diff def then Sset.of_list (Schema.attrs n.Graph.schema)
    else Sset.empty
  in
  let wanted =
    List.fold_left
      (fun acc s -> Sset.union acc s)
      (Sset.of_list attrs)
      [
        Sset.of_list (Predicate.attrs cond);
        condition_attrs def;
        implicit_join_attrs env def;
        extra;
      ]
  in
  (* union/difference operands must stay union-compatible whatever
     width their children are served at, so they get explicit
     projections onto their (narrowed) output schema *)
  let setop_operand e =
    let out = Schema.attrs (Expr.schema_of env e) in
    List.filter (fun a -> Sset.mem a wanted) out
  in
  let rec narrow = function
    | Expr.Base _ as e -> e
    | Expr.Select (p, e) -> Expr.Select (p, narrow e)
    (* renaming only occurs in leaf-parent definitions, which are
       never narrowed (they are polled whole); keep it untouched *)
    | Expr.Rename (m, e) -> Expr.Rename (m, narrow e)
    | Expr.Project (l, e) ->
      Expr.Project (List.filter (fun a -> Sset.mem a wanted) l, narrow e)
    | Expr.Join (a, p, b) -> Expr.Join (narrow a, p, narrow b)
    | Expr.Union (a, b) ->
      Expr.Union
        (Expr.Project (setop_operand a, narrow a),
         Expr.Project (setop_operand b, narrow b))
    | Expr.Diff (a, b) ->
      Expr.Diff
        (Expr.Project (setop_operand a, narrow a),
         Expr.Project (setop_operand b, narrow b))
  in
  narrow def

let needed_attrs_of_children vdp node =
  let schema = (Graph.node vdp node).Graph.schema in
  List.map
    (fun (child, b, _) -> (child, b))
    (derived_from vdp ~node ~attrs:(Schema.attrs schema) ~cond:Predicate.True)

type step = {
  s_node : string;
  s_reads : (string * string list) list;
  s_rules : Delta.Inc_eval.reads;
}

let update_steps vdp ann =
  let relevant = Hashtbl.create 16 in
  let rec mark name =
    if not (Graph.is_leaf vdp name || Hashtbl.mem relevant name) then begin
      Hashtbl.add relevant name ();
      List.iter mark (Graph.children vdp name)
    end
  in
  List.iter mark (Annotation.materialized_nodes ann);
  List.filter_map
    (fun node ->
      if
        Hashtbl.mem relevant node
        && not (List.exists (Graph.is_leaf vdp) (Graph.children vdp node))
      then
        Some
          {
            s_node = node;
            s_reads = needed_attrs_of_children vdp node;
            s_rules =
              Delta.Inc_eval.compile_reads ~schema:(Graph.schema_env vdp)
                (Graph.def vdp node);
          }
      else None)
    (Graph.topo_order vdp)

let step_reads step ~changed ~known =
  List.filter_map
    (fun (child, cond) ->
      Option.map
        (fun b -> (child, b, cond))
        (List.assoc_opt child step.s_reads))
    (Delta.Inc_eval.value_restrictions step.s_rules ~changed ~known)

let step_restrictable vdp step =
  List.filter
    (fun (child, _) -> List.mem_assoc child step.s_reads)
    (Delta.Inc_eval.restrictable ~schema:(Graph.schema_env vdp)
       (Graph.def vdp step.s_node))
