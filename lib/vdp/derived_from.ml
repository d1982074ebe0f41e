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

(* The attributes a definition needs whatever the request: those of
   its select and join conditions, the shared names of its natural
   joins, and (case (4)) under a difference its whole output. *)
let static_wanted vdp (n : Graph.node) def =
  let env = Graph.schema_env vdp in
  let extra =
    if Expr.contains_diff def then Sset.of_list (Schema.attrs n.Graph.schema)
    else Sset.empty
  in
  Sset.union (condition_attrs def)
    (Sset.union (implicit_join_attrs env def) extra)

let derived vdp name =
  let n = Graph.node vdp name in
  match n.Graph.kind with
  | Graph.Derived e -> (n, e)
  | Graph.Leaf _ -> raise (Graph.Vdp_error (name ^ " is a leaf"))

(* [def] as a function of the wanted attributes: every projection list
   narrowed to them, and union/difference operands, which must stay
   union-compatible whatever width their children are served at,
   given explicit projections onto their narrowed output schema. The
   operands' output schemas are computed here, once. *)
let narrower env def =
  let setop_operand e =
    let out = Schema.attrs (Expr.schema_of env e) in
    fun wanted -> List.filter wanted out
  in
  let rec go = function
    | Expr.Base _ as e -> fun _ -> e
    | Expr.Select (p, e) ->
      let e = go e in
      fun wanted -> Expr.Select (p, e wanted)
    (* renaming only occurs in leaf-parent definitions, which are
       never narrowed (they are polled whole); keep it untouched *)
    | Expr.Rename (m, e) ->
      let e = go e in
      fun wanted -> Expr.Rename (m, e wanted)
    | Expr.Project (l, e) ->
      let e = go e in
      fun wanted -> Expr.Project (List.filter wanted l, e wanted)
    | Expr.Join (a, p, b) ->
      let a = go a and b = go b in
      fun wanted -> Expr.Join (a wanted, p, b wanted)
    | Expr.Union (a, b) ->
      let oa = setop_operand a and ob = setop_operand b in
      let a = go a and b = go b in
      fun wanted ->
        Expr.Union
          (Expr.Project (oa wanted, a wanted), Expr.Project (ob wanted, b wanted))
    | Expr.Diff (a, b) ->
      let oa = setop_operand a and ob = setop_operand b in
      let a = go a and b = go b in
      fun wanted ->
        Expr.Diff
          (Expr.Project (oa wanted, a wanted), Expr.Project (ob wanted, b wanted))
  in
  go def

type rule = {
  ru_wanted : string list;
  ru_reads : (string * string list) list;
  ru_narrow : (string -> bool) -> Expr.t;
}

let rule vdp name =
  let n, def = derived vdp name in
  let env = Graph.schema_env vdp in
  {
    ru_wanted = Sset.elements (static_wanted vdp n def);
    ru_reads =
      List.filter_map
        (fun child ->
          if Graph.is_leaf vdp child then None
          else Some (child, Schema.attrs (env child)))
        (Graph.children vdp name);
    ru_narrow = narrower env def;
  }

(* per child, B = (attrs ∩ attr(S)) ∪ D_S and g = cond restricted to
   attr(S); only B's request half and g are computed per call *)
let reads rule ~attrs ~cond =
  List.filter_map
    (fun (child, child_attrs) ->
      match
        List.filter
          (fun a -> List.mem a attrs || List.mem a rule.ru_wanted)
          child_attrs
      with
      | [] -> None
      | b ->
        Some
          ( child,
            b,
            if cond == Predicate.True then cond
            else Predicate.restrict_to cond child_attrs ))
    rule.ru_reads

let restrict rule ~attrs ~cond =
  let cond_attrs = Predicate.attrs cond in
  rule.ru_narrow (fun a ->
      List.mem a attrs || List.mem a cond_attrs || List.mem a rule.ru_wanted)

let needed_attrs_of_children vdp node =
  let n, def = derived vdp node in
  let wanted =
    Sset.union (static_wanted vdp n def) (Sset.of_list (Schema.attrs n.Graph.schema))
  in
  List.filter_map
    (fun child ->
      match
        List.filter
          (fun a -> Sset.mem a wanted)
          (Schema.attrs (Graph.schema_env vdp child))
      with
      | [] -> None
      | b -> Some (child, b))
    (Graph.children vdp node)

type step = {
  s_node : string;
  s_reads : (string * string list) list;
  s_uncovered : string list;
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
        let reads = needed_attrs_of_children vdp node in
        Some
          {
            s_node = node;
            s_reads = reads;
            s_uncovered =
              List.filter_map
                (fun (child, b) ->
                  let mat = Annotation.materialized_attrs ann child in
                  if List.for_all (fun a -> List.mem a mat) b then None
                  else Some child)
                reads;
            s_rules =
              Delta.Inc_eval.compile_reads ~schema:(Graph.schema_env vdp)
                (Graph.def vdp node);
          }
      else None)
    (Graph.topo_order vdp)

let step_reads ?only step ~changed ~known =
  List.filter_map
    (fun (child, cond) ->
      Option.map
        (fun b -> (child, b, cond))
        (List.assoc_opt child step.s_reads))
    (Delta.Inc_eval.value_restrictions ?only step.s_rules ~changed ~known)

let step_restrictable vdp step =
  List.filter
    (fun (child, _) -> List.mem_assoc child step.s_reads)
    (Delta.Inc_eval.restrictable ~schema:(Graph.schema_env vdp)
       (Graph.def vdp step.s_node))
