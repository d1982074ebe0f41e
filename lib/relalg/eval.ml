exception Unbound_relation = Plan.Unbound_relation

let tuple_ops = Plan.tuple_ops
let reset_tuple_ops = Plan.reset_tuple_ops
let charge_tuple_ops = Plan.charge_tuple_ops

(* production evaluation: compiled operator pipelines (compiled per
   call; no memo), fused stages, slot-compiled predicates — see
   {!Plan} *)
let eval ~env expr = Plan.run (Plan.of_expr expr) ~env
