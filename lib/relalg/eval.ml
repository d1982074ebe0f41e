exception Unbound_relation = Plan.Unbound_relation

let tuple_ops = Plan.tuple_ops
let reset_tuple_ops = Plan.reset_tuple_ops
let charge_tuple_ops = Plan.charge_tuple_ops

let rename_tuple mapping = Tuple.renamer mapping

(* The interpretive evaluator: walks the AST on every call, resolving
   operators as it goes. Kept as the differential-test oracle for the
   plan compiler; production paths go through {!eval} below. *)
let rec eval_interp ~env expr =
  match expr with
  | Expr.Base name -> (
    match env name with
    | Some bag -> bag
    | None -> raise (Unbound_relation name))
  | Expr.Select (p, e) ->
    let bag = eval_interp ~env e in
    charge_tuple_ops (Bag.support_cardinal bag);
    Bag.select p bag
  | Expr.Project (names, e) ->
    let bag = eval_interp ~env e in
    charge_tuple_ops (Bag.support_cardinal bag);
    Bag.project names bag
  | Expr.Rename (mapping, e) ->
    let bag = eval_interp ~env e in
    charge_tuple_ops (Bag.support_cardinal bag);
    let schema =
      Expr.schema_of (fun _ -> Bag.schema bag) (Expr.Rename (mapping, Expr.Base "_"))
    in
    Bag.map_tuples schema (rename_tuple mapping) bag
  | Expr.Join (a, p, b) ->
    let ba = eval_interp ~env a and bb = eval_interp ~env b in
    let result = Bag.join ~on:p ba bb in
    (* hash join: linear in inputs plus output; theta-only joins are
       charged quadratically by [Bag.join] going through every pair,
       approximated here by the product bound *)
    let shared =
      List.exists (fun n -> Schema.mem (Bag.schema bb) n)
        (Schema.attrs (Bag.schema ba))
    in
    let cost =
      if shared || Predicate.equi_pairs p <> [] then
        Bag.support_cardinal ba + Bag.support_cardinal bb
        + Bag.support_cardinal result
      else Bag.support_cardinal ba * Bag.support_cardinal bb
    in
    charge_tuple_ops cost;
    result
  | Expr.Union (a, b) ->
    let ba = eval_interp ~env a and bb = eval_interp ~env b in
    charge_tuple_ops (Bag.support_cardinal ba + Bag.support_cardinal bb);
    Bag.union ba bb
  | Expr.Diff (a, b) ->
    let ba = eval_interp ~env a and bb = eval_interp ~env b in
    charge_tuple_ops (Bag.support_cardinal ba + Bag.support_cardinal bb);
    Bag.set_diff ba bb

(* production evaluation: compiled operator pipelines (compile-once
   memo keyed by the expression), fused stages, slot-compiled
   predicates — see {!Plan} *)
let eval ~env expr = Plan.eval ~env expr
