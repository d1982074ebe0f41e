open Relalg
module Smap = Map.Make (String)

type mark = M | V

type node_ann = { order : string list; marks : mark Smap.t }

type t = node_ann Smap.t

exception Annotation_error of string

let err fmt = Format.kasprintf (fun s -> raise (Annotation_error s)) fmt

let constant vdp m =
  List.fold_left
    (fun acc node ->
      let order = Schema.attrs node.Graph.schema in
      let marks =
        List.fold_left (fun am a -> Smap.add a m am) Smap.empty order
      in
      Smap.add node.Graph.name { order; marks } acc)
    Smap.empty (Graph.non_leaves vdp)

let fully_materialized vdp = constant vdp M
let fully_virtual vdp = constant vdp V

let with_node t vdp name mark_list =
  let node = Graph.node vdp name in
  (match node.Graph.kind with
  | Graph.Leaf _ -> err "leaf %S cannot be annotated" name
  | Graph.Derived _ -> ());
  let schema = node.Graph.schema in
  List.iter
    (fun (a, _) ->
      if not (Schema.mem schema a) then err "node %S has no attribute %S" name a)
    mark_list;
  let order = Schema.attrs schema in
  let marks =
    List.fold_left
      (fun am attr ->
        let m =
          match List.assoc_opt attr mark_list with Some m -> m | None -> M
        in
        Smap.add attr m am)
      Smap.empty order
  in
  Smap.add name { order; marks } t

let of_list vdp per_node =
  List.fold_left
    (fun acc (name, mark_list) -> with_node acc vdp name mark_list)
    (fully_materialized vdp) per_node

let node_ann t name =
  match Smap.find_opt name t with
  | Some na -> na
  | None -> err "node %S is not annotated" name

let mark t ~node ~attr =
  let na = node_ann t node in
  match Smap.find_opt attr na.marks with
  | Some m -> m
  | None -> err "attribute %S of node %S is not annotated" attr node

let attrs_with t name m =
  let na = node_ann t name in
  List.filter (fun a -> Smap.find a na.marks = m) na.order

let materialized_attrs t name = attrs_with t name M
let virtual_attrs t name = attrs_with t name V

let materialized_nodes t =
  List.filter_map
    (fun (name, _) ->
      if materialized_attrs t name <> [] then Some name else None)
    (Smap.bindings t)

let equal a b =
  Smap.equal
    (fun x y ->
      List.equal String.equal x.order y.order && Smap.equal ( = ) x.marks y.marks)
    a b

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt (name, na) ->
         Format.fprintf fmt "%s[%a]" name
           (Format.pp_print_list
              ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
              (fun fmt a ->
                Format.fprintf fmt "%s^%s" a
                  (match Smap.find a na.marks with M -> "m" | V -> "v")))
           na.order))
    (Smap.bindings t)

let to_string t = Format.asprintf "%a" pp t
