open Relalg
module Smap = Map.Make (String)

type node_kind = Leaf of { source : string } | Derived of Expr.t

type node = {
  name : string;
  schema : Schema.t;
  kind : node_kind;
  export : bool;
}

type t = {
  by_name : node Smap.t;
  order : string list; (* topological, children before parents, non-leaves *)
  parent_map : string list Smap.t;
  source_names : string list;
      (* distinct, sorted: read on every query and update, so computed
         once *)
}

exception Vdp_error of string

let err fmt = Format.kasprintf (fun s -> raise (Vdp_error s)) fmt

let node_opt t name = Smap.find_opt name t.by_name

let node t name =
  match node_opt t name with
  | Some n -> n
  | None -> err "no node %S in VDP" name

let nodes t = List.map snd (Smap.bindings t.by_name)
let def t name =
  match (node t name).kind with
  | Derived e -> e
  | Leaf _ -> err "node %S is a leaf and has no definition" name

let children t name =
  match (node t name).kind with
  | Leaf _ -> []
  | Derived e -> Expr.base_names e

let parents t name =
  match Smap.find_opt name t.parent_map with Some ps -> ps | None -> []

let edges t =
  Smap.fold
    (fun name n acc ->
      match n.kind with
      | Leaf _ -> acc
      | Derived e ->
        List.fold_left (fun acc c -> (name, c) :: acc) acc (Expr.base_names e))
    t.by_name []

let is_leaf t name =
  match (node t name).kind with Leaf _ -> true | Derived _ -> false

let leaves t = List.filter (fun n -> match n.kind with Leaf _ -> true | _ -> false) (nodes t)
let non_leaves t =
  List.filter (fun n -> match n.kind with Derived _ -> true | _ -> false) (nodes t)

let leaf_parents t =
  List.filter
    (fun n ->
      match n.kind with
      | Leaf _ -> false
      | Derived e -> List.exists (is_leaf t) (Expr.base_names e))
    (nodes t)

let exports t = List.filter (fun n -> n.export) (nodes t)

let source_of_leaf t name =
  match (node t name).kind with
  | Leaf { source } -> source
  | Derived _ -> err "node %S is not a leaf" name

let topo_order t = t.order

let descendants t name =
  let visited = Hashtbl.create 16 in
  let rec visit n =
    List.iter
      (fun c ->
        if not (Hashtbl.mem visited c) then begin
          Hashtbl.add visited c ();
          visit c
        end)
      (children t n)
  in
  visit name;
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) visited [])

let ancestors t name =
  let visited = Hashtbl.create 16 in
  let rec visit n =
    List.iter
      (fun p ->
        if not (Hashtbl.mem visited p) then begin
          Hashtbl.add visited p ();
          visit p
        end)
      (parents t n)
  in
  visit name;
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) visited [])

let schema_env t name = (node t name).schema

let rec expanded_def t name =
  match (node t name).kind with
  | Leaf _ -> Expr.base name
  | Derived e ->
    Expr.rewrite_bases
      (fun child ->
        match (node t child).kind with
        | Leaf _ -> Expr.base child
        | Derived _ -> expanded_def t child)
      e

let sources t = t.source_names

let leaves_of_source t source =
  List.filter_map
    (fun n ->
      match n.kind with
      | Leaf { source = s } when String.equal s source -> Some n.name
      | _ -> None)
    (nodes t)

(* --- validation ------------------------------------------------------ *)

let check_structure by_name =
  let find name =
    match Smap.find_opt name by_name with
    | Some n -> n
    | None -> err "definition refers to unknown node %S" name
  in
  let leaf name = match (find name).kind with Leaf _ -> true | _ -> false in
  Smap.iter
    (fun name n ->
      match n.kind with
      | Leaf _ -> ()
      | Derived e ->
        let child_names = Expr.base_names e in
        if child_names = [] then err "node %S has an empty definition" name;
        let has_leaf_child = List.exists leaf child_names in
        if has_leaf_child then begin
          (* restriction (a): leaf-parents select/project a single leaf *)
          (match child_names with
          | [ c ] ->
            if not (Expr.is_select_project_of c e) then
              err
                "leaf-parent %S must be a select/project of its single leaf \
                 child (restriction (a)); got %s"
                name (Expr.to_string e)
          | _ ->
            err "leaf-parent %S must have exactly one (leaf) child" name);
          if not (List.for_all leaf child_names) then
            err "node %S mixes leaf and non-leaf children" name
        end
        else if not (Expr.is_spj e || Expr.is_setop_of_sp e) then
          err
            "definition of %S is neither SPJ (restriction (b)) nor a \
             union/difference of select/project chains (restriction (c)): %s"
            name (Expr.to_string e);
        (* schema consistency *)
        let env c = (find c).schema in
        let derived =
          try Expr.schema_of env e
          with Expr.Expr_error msg ->
            err "definition of %S is ill-formed: %s" name msg
        in
        if
          not
            (List.equal String.equal (Schema.attrs derived)
               (Schema.attrs n.schema))
        then
          err "node %S declares schema %s but its definition yields %s" name
            (Schema.to_string n.schema)
            (Schema.to_string derived))
    by_name

let compute_topo by_name =
  (* Kahn over non-leaf nodes; leaves have no incoming constraint. *)
  let non_leaf name =
    match (Smap.find name by_name).kind with
    | Derived _ -> true
    | Leaf _ -> false
  in
  let children name =
    match (Smap.find name by_name).kind with
    | Leaf _ -> []
    | Derived e -> List.filter non_leaf (Expr.base_names e)
  in
  let names = List.filter non_leaf (List.map fst (Smap.bindings by_name)) in
  let temp = Hashtbl.create 16 and perm = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    if Hashtbl.mem perm name then ()
    else if Hashtbl.mem temp name then err "VDP contains a cycle through %S" name
    else begin
      Hashtbl.add temp name ();
      List.iter visit (children name);
      Hashtbl.remove temp name;
      Hashtbl.add perm name ();
      order := name :: !order
    end
  in
  List.iter visit names;
  List.rev !order

let make node_list =
  let by_name =
    List.fold_left
      (fun acc n ->
        if Smap.mem n.name acc then err "duplicate node name %S" n.name
        else Smap.add n.name n acc)
      Smap.empty node_list
  in
  check_structure by_name;
  let order = compute_topo by_name in
  let parent_map =
    Smap.fold
      (fun name n acc ->
        match n.kind with
        | Leaf _ -> acc
        | Derived e ->
          List.fold_left
            (fun acc c ->
              Smap.update c
                (function
                  | None -> Some [ name ]
                  | Some ps -> if List.mem name ps then Some ps else Some (name :: ps))
                acc)
            acc (Expr.base_names e))
      by_name Smap.empty
  in
  let source_names =
    List.sort_uniq String.compare
      (Smap.fold
         (fun _ n acc ->
           match n.kind with Leaf { source } -> source :: acc | _ -> acc)
         by_name [])
  in
  let t = { by_name; order; parent_map; source_names } in
  (* maximal nodes must be exported *)
  Smap.iter
    (fun name n ->
      match n.kind with
      | Derived _ when parents t name = [] && not n.export ->
        err "maximal node %S must be an export node" name
      | _ -> ())
    by_name;
  (* leaves may only feed leaf-parents: guaranteed by restriction (a)
     checks (a node with a leaf child is a leaf-parent). *)
  t

let pp fmt t =
  let pp_node fmt n =
    match n.kind with
    | Leaf { source } ->
      Format.fprintf fmt "[%s] %a  @@%s" n.name Schema.pp n.schema source
    | Derived e ->
      Format.fprintf fmt "%s%s %a  :=  %a"
        (if n.export then "((" ^ n.name ^ "))" else "(" ^ n.name ^ ")")
        "" Schema.pp n.schema Expr.pp e
  in
  let order_names = t.order in
  let leaves_first =
    List.filter_map
      (fun n -> match n.kind with Leaf _ -> Some n.name | _ -> None)
      (nodes t)
  in
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt name ->
         pp_node fmt (node t name)))
    (leaves_first @ order_names)
