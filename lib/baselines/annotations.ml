open Vdp

let warehouse vdp =
  let per_node =
    List.filter_map
      (fun node ->
        match node.Graph.kind with
        | Graph.Leaf _ -> None
        | Graph.Derived _ ->
          let mark = if node.Graph.export then Annotation.M else Annotation.V in
          Some
            ( node.Graph.name,
              List.map
                (fun a -> (a, mark))
                (Relalg.Schema.attrs node.Graph.schema) ))
      (Graph.nodes vdp)
  in
  Annotation.of_list vdp per_node
