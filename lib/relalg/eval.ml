exception Unbound_relation = Plan.Unbound_relation

let tuple_ops = Plan.tuple_ops
let reset_tuple_ops = Plan.reset_tuple_ops
let charge_tuple_ops = Plan.charge_tuple_ops

(* production evaluation: compiled operator pipelines (compile-once
   memo keyed by the expression), fused stages, slot-compiled
   predicates — see {!Plan} *)
let eval ~env expr = Plan.eval ~env expr
