open Relalg

let describe_edge vdp ~node ~child =
  let def = Graph.def vdp node in
  let marked =
    Expr.rewrite_bases
      (fun n -> if String.equal n child then Expr.base ("Δ" ^ n) else Expr.base n)
      def
  in
  Format.asprintf "on Δ(%s): Δ(%s) = %a" child node Expr.pp marked

let describe vdp =
  let lines =
    List.concat_map
      (fun node ->
        List.map
          (fun child -> describe_edge vdp ~node ~child)
          (Graph.children vdp node))
      (Graph.topo_order vdp)
  in
  String.concat "\n" lines
