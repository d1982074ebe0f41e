open Relalg

type profile = {
  update_rate : string -> float;
  attr_access : string -> string -> float;
}

let uniform_profile =
  { update_rate = (fun _ -> 1.0); attr_access = (fun _ _ -> 0.5) }

let has_equi_component env a p b =
  let sa = Expr.schema_of env a and sb = Expr.schema_of env b in
  let shared = List.exists (fun n -> Schema.mem sb n) (Schema.attrs sa) in
  shared || Predicate.equi_pairs p <> []

let is_expensive_join vdp name =
  match (Graph.node vdp name).Graph.kind with
  | Graph.Leaf _ -> false
  | Graph.Derived e ->
    let env = Graph.schema_env vdp in
    let rec scan = function
      | Expr.Base _ -> false
      | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) -> scan e
      | Expr.Join (a, p, b) ->
        (not (has_equi_component env a p b)) || scan a || scan b
      | Expr.Union (a, b) | Expr.Diff (a, b) -> scan a || scan b
    in
    scan e

let advise ?(access_threshold = 0.25) vdp profile =
  let explanations = ref [] in
  let explain fmt =
    Format.kasprintf (fun s -> explanations := s :: !explanations) fmt
  in
  let rec node_update_rate name =
    if Graph.is_leaf vdp name then profile.update_rate name
    else
      List.fold_left
        (fun acc c -> acc +. node_update_rate c)
        0.0 (Graph.children vdp name)
  in
  let is_leaf_parent name =
    List.exists
      (fun n -> String.equal n.Graph.name name)
      (Graph.leaf_parents vdp)
  in
  let is_export name = (Graph.node vdp name).Graph.export in
  (* sibling demand on node [name]: the total update rate flowing
     through the other children of its parents — each such update
     fires a rule that reads [name]'s relation *)
  let sibling_demand name =
    List.fold_left
      (fun acc parent ->
        List.fold_left
          (fun acc sib ->
            if String.equal sib name then acc else acc +. node_update_rate sib)
          acc
          (Graph.children vdp parent))
      0.0 (Graph.parents vdp name)
  in
  (* attributes of [name] read by parents' definitions (conditions or
     surviving output): these support update propagation and should be
     materialized on export nodes feeding other nodes (Example 5.1's
     a1, b1 of E) *)
  let attrs_needed_by_parents name =
    List.concat_map
      (fun parent ->
        List.concat_map
          (fun (child, attrs) ->
            if String.equal child name then attrs else [])
          (Derived_from.needed_attrs_of_children vdp parent))
      (Graph.parents vdp name)
  in
  let decide node =
    let name = node.Graph.name in
    let schema = node.Graph.schema in
    let attrs = Schema.attrs schema in
    let key = Schema.key schema in
    if is_export name then begin
      let needed_by_parents = attrs_needed_by_parents name in
      let expensive = is_expensive_join vdp name in
      let marks =
        List.map
          (fun a ->
            let freq = profile.attr_access name a in
            if List.mem a key && (expensive || needed_by_parents <> []) then
              (a, Annotation.M)
            else if List.mem a needed_by_parents then (a, Annotation.M)
            else if freq >= access_threshold then (a, Annotation.M)
            else (a, Annotation.V))
          attrs
      in
      let virtuals =
        List.filter_map
          (fun (a, m) -> if m = Annotation.V then Some a else None)
          marks
      in
      if virtuals <> [] then
        explain
          "export %s: attributes %s left virtual (access below %.2f); key \
           and propagation attributes materialized"
          name
          (String.concat "," virtuals)
          access_threshold;
      (name, marks)
    end
    else if is_leaf_parent name then begin
      let own = node_update_rate name in
      let demand = sibling_demand name in
      if demand >= own then (name, List.map (fun a -> (a, Annotation.M)) attrs)
      else begin
        explain
          "leaf-parent %s: virtual (own update rate %.2f exceeds sibling \
           demand %.2f — Example 2.2 rule)"
          name own demand;
        (name, List.map (fun a -> (a, Annotation.V)) attrs)
      end
    end
    else begin
      (* intermediate node *)
      if is_expensive_join vdp name then begin
        explain
          "intermediate %s: expensive join — materializing key attributes %s"
          name (String.concat "," key);
        ( name,
          List.map
            (fun a ->
              if List.mem a key then (a, Annotation.M) else (a, Annotation.V))
            attrs )
      end
      else begin
        explain
          "intermediate %s: cheap to evaluate from its children — kept \
           virtual (Example 5.1's F rule)"
          name;
        (name, List.map (fun a -> (a, Annotation.V)) attrs)
      end
    end
  in
  let per_node = List.map decide (Graph.non_leaves vdp) in
  (Annotation.of_list vdp per_node, List.rev !explanations)
