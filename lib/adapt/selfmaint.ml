open Relalg
open Vdp

(* The IUP issues a VAP request exactly when a fired propagation rule
   reads the *value* of a child whose needed attributes are not all
   materialized (Iup's preparation phase). This module runs the same
   derivation ([Derived_from.update_steps] and [step_reads]) statically,
   under the worst case "every child changed", and turns every
   would-be request into an auxiliary-view promotion instead:
   materialize the missing attributes (plus the child's key, so delta
   application and the join-index probes keep their identity) and the
   update transaction never leaves the store. *)

type report = {
  sm_node : string;
  sm_self : bool;
  sm_aux : (string * string list) list;
  sm_blocked : string list;
}

(* the would-be VAP requests of one update step, assuming every child
   carries a delta: (child, attrs) pairs whose needed attributes the
   annotation does not cover *)
let uncovered_reads vdp ann step =
  List.filter_map
    (fun (child, b, _) ->
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
    (Derived_from.step_reads step
       ~changed:(fun _ -> true)
       ~known:(fun _ -> None))

let sources_of vdp nodes =
  List.sort_uniq String.compare
    (List.filter_map
       (fun d ->
         if Graph.is_leaf vdp d then Some (Graph.source_of_leaf vdp d)
         else None)
       nodes)

let merge_aux acc (node, attrs) =
  let prev = match List.assoc_opt node acc with Some a -> a | None -> [] in
  let merged =
    prev @ List.filter (fun a -> not (List.mem a prev)) attrs
  in
  (node, merged) :: List.remove_assoc node acc

let analyze vdp ann ~announces =
  let steps = Derived_from.update_steps vdp ann in
  List.map
    (fun root ->
      let below = Graph.descendants vdp root in
      let blocked =
        List.filter_map
          (fun s ->
            if announces s then None
            else Some (Printf.sprintf "source %s never announces" s))
          (sources_of vdp below)
      in
      (* every update step at or below [root]: their uncovered reads
         are the polls this node would cost per update transaction *)
      let aux =
        List.fold_left
          (fun acc step ->
            let n = step.Derived_from.s_node in
            if String.equal n root || List.mem n below then
              List.fold_left merge_aux acc (uncovered_reads vdp ann step)
            else acc)
          [] steps
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
