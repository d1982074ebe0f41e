open Relalg
open Delta
open Vdp

(* The IUP issues a VAP request exactly when a fired propagation rule
   reads the *value* of a child whose needed attributes are not all
   materialized (Iup's preparation phase). This module runs the same
   request logic statically, under the worst case "every child
   changed", and turns every would-be request into an auxiliary-view
   promotion instead: materialize the missing attributes (plus the
   child's key, so delta application and the join-index probes keep
   their identity) and the update transaction never leaves the store. *)

type report = {
  sm_node : string;
  sm_self : bool;
  sm_aux : (string * string list) list;
  sm_blocked : string list;
}

(* nodes whose delta the IUP computes under [ann]: materialized nodes
   and every non-leaf node feeding one (the downward closure mirrors
   Med.relevant_nodes, but over a hypothetical annotation) *)
let relevant vdp ann =
  let tbl : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec mark name =
    if (not (Graph.is_leaf vdp name)) && not (Hashtbl.mem tbl name) then begin
      Hashtbl.add tbl name ();
      List.iter mark (Graph.children vdp name)
    end
  in
  List.iter mark (Annotation.materialized_nodes ann);
  tbl

let is_leaf_parent vdp =
  let lps = List.map (fun n -> n.Graph.name) (Graph.leaf_parents vdp) in
  fun name -> List.mem name lps

(* the would-be VAP requests of one propagation step through [node],
   assuming every child carries a delta: (child, needed attrs) pairs
   whose attributes the annotation does not cover *)
let uncovered_reads vdp ann node =
  let needs =
    Inc_eval.value_bases ~changed:(fun _ -> true) (Graph.def vdp node)
  in
  let b_of = Derived_from.needed_attrs_of_children vdp node in
  List.filter_map
    (fun child ->
      match List.assoc_opt child b_of with
      | None -> None
      | Some b ->
        if Graph.is_leaf vdp child then None
        else
          let mat = Annotation.materialized_attrs ann child in
          let missing = List.filter (fun a -> not (List.mem a mat)) b in
          if missing = [] then None
          else
            let key =
              Schema.key (Graph.node vdp child).Graph.schema
              |> List.filter (fun a ->
                     (not (List.mem a mat)) && not (List.mem a missing))
            in
            Some (child, missing @ key))
    needs

let sources_of vdp node =
  List.sort_uniq String.compare
    (List.filter_map
       (fun d ->
         if Graph.is_leaf vdp d then Some (Graph.source_of_leaf vdp d)
         else None)
       (Graph.descendants vdp node))

let merge_aux acc (node, attrs) =
  let prev = match List.assoc_opt node acc with Some a -> a | None -> [] in
  let merged =
    prev @ List.filter (fun a -> not (List.mem a prev)) attrs
  in
  (node, merged) :: List.remove_assoc node acc

let analyze vdp ann ~announces =
  let lp = is_leaf_parent vdp in
  let rel = relevant vdp ann in
  List.map
    (fun root ->
      let blocked =
        List.filter_map
          (fun s ->
            if announces s then None
            else Some (Printf.sprintf "source %s never announces" s))
          (sources_of vdp root)
      in
      (* every relevant node at or below [root] whose delta step reads
         values: their uncovered reads are the polls this node would
         cost per update transaction *)
      let scope =
        root
        :: List.filter
             (fun d -> Hashtbl.mem rel d && not (Graph.is_leaf vdp d))
             (Graph.descendants vdp root)
      in
      let aux =
        List.fold_left
          (fun acc n ->
            if lp n then acc
            else List.fold_left merge_aux acc (uncovered_reads vdp ann n))
          [] scope
      in
      let aux =
        List.sort (fun (a, _) (b, _) -> String.compare a b)
          (List.map
             (fun (n, attrs) ->
               let order = Schema.attrs (Graph.node vdp n).Graph.schema in
               (n, List.filter (fun a -> List.mem a attrs) order))
             aux)
      in
      {
        sm_node = root;
        sm_self = aux = [] && blocked = [];
        sm_aux = aux;
        sm_blocked = blocked;
      })
    (Annotation.materialized_nodes ann)

let target vdp ann ~announces =
  List.fold_left
    (fun acc r ->
      if r.sm_blocked <> [] then acc
      else
        List.fold_left
          (fun acc (node, attrs) ->
            let mat = Annotation.materialized_attrs acc node in
            let marks =
              List.map
                (fun a ->
                  if List.mem a mat || List.mem a attrs then
                    (a, Annotation.M)
                  else (a, Annotation.V))
                (Schema.attrs (Graph.node vdp node).Graph.schema)
            in
            Annotation.with_node acc vdp node marks)
          acc r.sm_aux)
    ann (analyze vdp ann ~announces)
