open Relalg

type profile = {
  leaf_cardinality : string -> int;
  update_rate : string -> float;
  query_rate : string -> float;
  attr_access : string -> string -> float;
  selectivity : Predicate.t -> float;
}

let default_selectivity p =
  let rec sel = function
    | Predicate.True -> 1.0
    | Predicate.False -> 0.0
    | Predicate.Cmp (Predicate.Eq, _, _) -> 0.1
    | Predicate.Cmp (_, _, _) -> 0.33
    | Predicate.And (a, b) -> sel a *. sel b
    | Predicate.Or (a, b) -> min 1.0 (sel a +. sel b)
    | Predicate.Not a -> max 0.05 (1.0 -. sel a)
  in
  sel p

let uniform_profile ?(cardinality = 1000) ?(update_rate = 1.0)
    ?(query_rate = 1.0) ?(attr_access = 0.5) () =
  {
    leaf_cardinality = (fun _ -> cardinality);
    update_rate = (fun _ -> update_rate);
    query_rate = (fun _ -> query_rate);
    attr_access = (fun _ _ -> attr_access);
    selectivity = default_selectivity;
  }

let measured_profile ?(selectivity = default_selectivity)
    ?(default_cardinality = 100) ~window ~leaf_cards ~leaf_update_atoms
    ~node_queries ~attr_accesses () =
  let w = Float.max window 1e-9 in
  let count tbl k =
    match List.assoc_opt k tbl with Some n -> n | None -> 0
  in
  {
    leaf_cardinality =
      (fun l ->
        match List.assoc_opt l leaf_cards with
        | Some c -> max 1 c
        | None -> default_cardinality);
    update_rate = (fun l -> float_of_int (count leaf_update_atoms l) /. w);
    query_rate = (fun n -> float_of_int (count node_queries n) /. w);
    attr_access =
      (fun n a ->
        match count node_queries n with
        | 0 -> 0.0
        | q -> float_of_int (count attr_accesses (n, a)) /. float_of_int q);
    selectivity;
  }

(* remote polling of a leaf costs this much more than local work *)
let remote_factor = 5.0
let remote_latency = 100.0

let has_equi_component env a p b =
  let sa = Expr.schema_of env a and sb = Expr.schema_of env b in
  let shared = List.exists (fun n -> Schema.mem sb n) (Schema.attrs sa) in
  shared || Predicate.equi_pairs p <> []

let cardinality vdp profile =
  let memo = Hashtbl.create 16 in
  let env = Graph.schema_env vdp in
  let rec node_card name =
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
      let c =
        match (Graph.node vdp name).Graph.kind with
        | Graph.Leaf _ -> float_of_int (profile.leaf_cardinality name)
        | Graph.Derived e -> expr_card e
      in
      Hashtbl.replace memo name c;
      c
  and expr_card = function
    | Expr.Base n -> node_card n
    | Expr.Select (p, e) -> profile.selectivity p *. expr_card e
    | Expr.Project (_, e) | Expr.Rename (_, e) -> expr_card e
    | Expr.Join (a, p, b) ->
      let ca = expr_card a and cb = expr_card b in
      if has_equi_component env a p b then Float.max ca cb
      else ca *. cb *. profile.selectivity p
    | Expr.Union (a, b) -> expr_card a +. expr_card b
    | Expr.Diff (a, _) -> expr_card a
  in
  fun name -> int_of_float (Float.max 1.0 (node_card name))

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

type estimate = { space_bytes : int; update_cost : float; query_cost : float }

let estimate ?(batch = 1.0) vdp ann profile =
  let batch = Float.max 1.0 batch in
  let card = cardinality vdp profile in
  (* cost to access (a projection of) a node's current relation *)
  let rec access_cost name =
    if Graph.is_leaf vdp name then
      remote_latency
      +. (remote_factor *. float_of_int (profile.leaf_cardinality name))
    else if Annotation.is_fully_materialized ann name then 1.0
    else if Annotation.materialized_attrs ann name <> [] then
      (* hybrid: the materialized key lets virtual attrs be fetched
         from children with indexed probes (Example 2.3) *)
      1.0
      +. List.fold_left
           (fun acc c -> acc +. (0.1 *. access_cost c))
           0.0 (Graph.children vdp name)
    else
      (* fully virtual: evaluate from children *)
      List.fold_left
        (fun acc c -> acc +. access_cost c)
        (float_of_int (card name))
        (Graph.children vdp name)
  in
  (* per-leaf update rate propagated upward *)
  let rec node_update_rate name =
    if Graph.is_leaf vdp name then profile.update_rate name
    else
      List.fold_left
        (fun acc c -> acc +. node_update_rate c)
        0.0 (Graph.children vdp name)
  in
  let space_bytes =
    List.fold_left
      (fun acc node ->
        let name = node.Graph.name in
        match node.Graph.kind with
        | Graph.Leaf _ -> acc
        | Graph.Derived _ ->
          acc
          + card name * List.length (Annotation.materialized_attrs ann name) * 8)
      0 (Graph.nodes vdp)
  in
  let update_cost =
    List.fold_left
      (fun acc node ->
        let name = node.Graph.name in
        match node.Graph.kind with
        | Graph.Leaf _ -> acc
        | Graph.Derived _ when Annotation.materialized_attrs ann name = [] ->
          acc
        | Graph.Derived _ ->
          (* each update arriving through child c pays for accessing
             the sibling relations; group-commit batching amortizes
             that sibling access (one VAP round per batch, not per
             transaction) over the realized mean batch size, while the
             per-update constant remains *)
          let children = Graph.children vdp name in
          List.fold_left
            (fun acc c ->
              let rate = node_update_rate c in
              let sibling_cost =
                List.fold_left
                  (fun acc s ->
                    if String.equal s c then acc else acc +. access_cost s)
                  0.0 children
              in
              acc +. (rate *. (1.0 +. (sibling_cost /. batch))))
            acc children)
      0.0 (Graph.nodes vdp)
  in
  let query_cost =
    List.fold_left
      (fun acc node ->
        let name = node.Graph.name in
        let q = profile.query_rate name in
        if q <= 0.0 then acc
        else
          let attr_cost =
            List.fold_left
              (fun acc a ->
                let freq = profile.attr_access name a in
                let unit_cost =
                  match Annotation.mark ann ~node:name ~attr:a with
                  | Annotation.M -> 1.0
                  | Annotation.V ->
                    List.fold_left
                      (fun acc c -> acc +. access_cost c)
                      1.0 (Graph.children vdp name)
                in
                acc +. (freq *. unit_cost))
              0.0
              (Schema.attrs node.Graph.schema)
          in
          acc +. (q *. attr_cost))
      0.0 (Graph.exports vdp)
  in
  { space_bytes; update_cost; query_cost }

let total e = e.update_cost +. e.query_cost
