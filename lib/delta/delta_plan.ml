open Relalg

(* Compiled incremental propagation rules: the delta counterpart of
   {!Relalg.Plan}. Each edge/definition expression is compiled, against
   the schemas of its bases, into a delta pipeline: predicates compiled
   to slot closures, unary select/project/rename chains fused into a
   single signed pass over the child delta ({!Rel_delta.transform})
   with their output schema fixed, and every term of an n-ary join rule
   fixed per changed input — its probe order, the conjuncts each step
   tests (compiled), the prepared index joins of its probe-able inputs,
   the leftover test and the canonical output schema. The value plans
   of the old values a join or difference reads are compiled with it,
   so a delta plan owns everything it runs and a run does only
   delta-sized work; nothing is remembered across [of_expr] calls (the
   mediator keeps each node's plan). Rule structure (Example 6.1
   three-part join, membership-candidate difference) matches the
   interpretive rule engine the tests check the plans against. *)

type index =
  name:string ->
  left:Schema.t ->
  on:Predicate.t ->
  test:(Tuple.t -> bool) option ->
  filter:(Tuple.t -> bool) option ->
  (Rel_delta.t -> Rel_delta.t) option

type prog =
  | Source of string * Schema.t
  | Fused of fused
  | Join of njoin
  | Union of prog * prog
  | Diff of diff

and fused = {
  f_sub : prog;
  f_schema : Schema.t; (* output schema *)
  f_pass : Tuple.t -> Tuple.t option; (* the steps, innermost-first *)
}

and njoin = {
  inputs : prog array; (* original left-to-right order *)
  olds : Plan.t array; (* old-value-side reads *)
  canonical : Schema.t; (* the inputs' schemas joined in order *)
  leftover : (Tuple.t -> bool) option;
      (* conjuncts outside even the canonical schema *)
  terms : probe array array; (* per changed input, its probe steps *)
}

(* one step of a term: join the accumulated delta with input [p_input] *)
and probe = {
  p_input : int;
  p_on : Predicate.t; (* the conjuncts the merged schema covers *)
  p_test : (Tuple.t -> bool) option; (* [p_on] compiled; None = True *)
  p_indexed : (string * (Rel_delta.t -> Rel_delta.t)) option;
      (* the base and its prepared index join *)
}

and diff = {
  d_left : prog;
  d_right : prog;
  a_old : Plan.t; (* both old values are read when either side moves *)
  b_old : Plan.t;
}

type t = prog

let chain_schema s steps =
  List.fold_left
    (fun s step ->
      match step with
      | Plan.Filter _ -> s
      | Plan.Gather (names, _) -> Schema.project s names
      | Plan.Remap (m, _) ->
        Expr.schema_of (fun _ -> s) (Expr.Rename (m, Expr.Base "_")))
    s steps

(* A unary chain fuses into one per-atom pass; [charge] counts one
   tuple op per step executed. Fusing is value-correct for signed
   deltas: a filter decision depends only on the tuple value, so atoms
   whose projection images coincide pass or fail together, and
   accumulating signed multiplicities once at the end of the chain
   equals accumulating after every projection. *)
let fuse ~charge steps =
  let steps = Array.of_list steps in
  let n = Array.length steps in
  let rec go i t =
    if i >= n then Some t
    else begin
      if charge then Eval.charge_tuple_ops 1;
      match Array.unsafe_get steps i with
      | Plan.Filter f -> if f t then go (i + 1) t else None
      | Plan.Gather (_, g) -> go (i + 1) (g t)
      | Plan.Remap (_, r) -> go (i + 1) (r t)
    end
  in
  fun t -> go 0 t

let unary schema expr =
  let steps, sub = Plan.peel [] expr in
  (match sub with
  | Expr.Base _ -> ()
  | _ -> invalid_arg "Delta_plan.unary: not a select/project/rename chain");
  let out = chain_schema schema steps in
  let pass = fuse ~charge:false steps in
  fun d -> Rel_delta.transform out pass d

(* a union's delta is its left operand's smashed with the right's; a
   difference's is over its left operand's schema *)
let rec schema_of = function
  | Source (_, s) -> s
  | Fused f -> f.f_schema
  | Join j -> j.canonical
  | Union (a, _) -> schema_of a
  | Diff d -> schema_of d.d_left

let covered attrs c =
  List.for_all (fun a -> List.mem a attrs) (Predicate.attrs c)

(* The n-ary telescoped join rule — Example 6.1 generalized:
     Δ(e1 ⋈ … ⋈ en) = Σ_i new_1 ⋈ … ⋈ new_{i-1} ⋈ Δi ⋈ old_{i+1} ⋈ … ⋈ old_n
   Each term binds its delta FIRST and then probes the remaining inputs
   greedily (key-sharing, index-probeable inputs preferred), so a term's
   cost tracks the delta's size, not the stored bags'. The order depends
   only on the inputs' schemas, so it is fixed here, per changed input,
   with each step's conjuncts and prepared index join. *)
let compile_terms ?index ~on ~conjs inputs schemas =
  let n = Array.length inputs in
  (* an input whose old value can be index-probed in place: a bare
     base, or selections over one (pushed down as a probe filter) *)
  let probe_target k =
    match inputs.(k) with
    | Expr.Base name -> Some (name, None)
    | e -> (
      let steps, sub = Plan.peel [] e in
      match sub with
      | Expr.Base name
        when List.for_all
               (function Plan.Filter _ -> true | _ -> false)
               steps ->
        let fs =
          Array.of_list
            (List.rev_map
               (function Plan.Filter f -> f | _ -> assert false)
               steps)
        in
        Some (name, Some (fun t -> Array.for_all (fun f -> f t) fs))
      | _ -> None)
  in
  let targets = Array.init n probe_target in
  let term i =
    let rec order acc_schema remaining =
      match remaining with
      | [] -> []
      | k0 :: rest ->
        let score k =
          let lk, _ = Bag.join_keys acc_schema schemas.(k) on in
          ( (if lk <> [] then 0 else 1),
            (if targets.(k) <> None then 0 else 1),
            k )
        in
        let best =
          List.fold_left (fun b k -> if score k < score b then k else b) k0 rest
        in
        let merged = Schema.join acc_schema schemas.(best) in
        let p_on =
          Predicate.conj (List.filter (covered (Schema.attrs merged)) conjs)
        in
        let p_test =
          if Predicate.equal p_on Predicate.True then None
          else Some (Predicate.compile p_on)
        in
        let p_indexed =
          match (index, targets.(best)) with
          | Some index, Some (name, filter) ->
            Option.map
              (fun join -> (name, join))
              (index ~name ~left:acc_schema ~on:p_on ~test:p_test ~filter)
          | _ -> None
        in
        { p_input = best; p_on; p_test; p_indexed }
        :: order merged (List.filter (fun k -> k <> best) remaining)
    in
    Array.of_list
      (order schemas.(i) (List.filter (fun k -> k <> i) (List.init n Fun.id)))
  in
  Array.init n term

let of_expr ?index ~schema expr =
  let rec compile expr =
    match expr with
    | Expr.Base n -> Source (n, schema n)
    | Expr.Select _ | Expr.Project _ | Expr.Rename _ ->
      let steps, sub = Plan.peel [] expr in
      let sub = compile sub in
      Fused
        {
          f_sub = sub;
          f_schema = chain_schema (schema_of sub) steps;
          f_pass = fuse ~charge:true steps;
        }
    | Expr.Join _ ->
      let inputs, conj_list = Plan.flatten_join expr in
      let conjs =
        List.filter (fun p -> not (Predicate.equal p Predicate.True)) conj_list
      in
      let on = Predicate.conj conjs in
      let inputs = Array.of_list inputs in
      let progs = Array.map compile inputs in
      let schemas = Array.map schema_of progs in
      let canonical =
        Array.fold_left Schema.join schemas.(0)
          (Array.sub schemas 1 (Array.length schemas - 1))
      in
      (* conjuncts outside even the full output schema still evaluate
         on the output, raising as the interpreter would *)
      let leftovers =
        List.filter (fun c -> not (covered (Schema.attrs canonical) c)) conjs
      in
      Join
        {
          inputs = progs;
          olds = Array.map Plan.of_expr inputs;
          canonical;
          leftover =
            (if leftovers = [] then None
             else Some (Predicate.compile (Predicate.conj leftovers)));
          terms = compile_terms ?index ~on ~conjs inputs schemas;
        }
    | Expr.Union (a, b) -> Union (compile a, compile b)
    | Expr.Diff (a, b) ->
      Diff
        {
          d_left = compile a;
          d_right = compile b;
          a_old = Plan.of_expr a;
          b_old = Plan.of_expr b;
        }
  in
  compile expr

let run ?(shadowed = fun _ -> false) ~env ~deltas p =
  let rec exec prog =
    match prog with
    | Source (name, s) -> (
      match deltas name with
      | Some d ->
        let ds = Rel_delta.schema d in
        if not (ds == s || Schema.union_compatible ds s) then
          invalid_arg
            (Printf.sprintf "Delta_plan.run: delta of %s is over %s, not %s"
               name (Schema.to_string ds) (Schema.to_string s));
        d
      | None -> (
        match env name with
        | Some _ -> Rel_delta.empty s
        | None -> raise (Eval.Unbound_relation name)))
    | Fused f -> Rel_delta.transform f.f_schema f.f_pass (exec f.f_sub)
    | Join j -> exec_njoin j
    | Union (a, b) ->
      let da = exec a in
      let db = exec b in
      Eval.charge_tuple_ops
        (Rel_delta.support_cardinal da + Rel_delta.support_cardinal db);
      Rel_delta.smash da db
    | Diff d -> exec_diff d
  (* New-value sides never materialize: acc ⋈ new_j distributes into
     acc ⋈ old_j ⊎ acc ⋈ Δj (join is bilinear over signed bags). Old
     values are evaluated at most once per input per transaction. Which
     inputs changed, and whether a temporary shadows a probed table,
     are the only choices made per run. *)
  and exec_njoin j =
    let n = Array.length j.inputs in
    let ds = Array.map exec j.inputs in
    if Array.for_all Rel_delta.is_empty ds then Rel_delta.empty j.canonical
    else begin
      let olds = Array.make n None in
      let old_of k =
        match olds.(k) with
        | Some b -> b
        | None ->
          let b = Plan.run j.olds.(k) ~env in
          olds.(k) <- Some b;
          b
      in
      let join_old acc p =
        match p.p_indexed with
        | Some (base, join) when not (shadowed base) -> join acc
        | _ -> Rel_delta.join_bag ~on:p.p_on ?test:p.p_test acc (old_of p.p_input)
      in
      let charged = ref 0 in
      let terms = ref [] in
      for i = 0 to n - 1 do
        if not (Rel_delta.is_empty ds.(i)) then begin
          let acc = ref ds.(i) in
          charged := !charged + Rel_delta.support_cardinal !acc;
          Array.iter
            (fun p ->
              let k = p.p_input in
              let part_old = join_old !acc p in
              acc :=
                (if k < i && not (Rel_delta.is_empty ds.(k)) then
                   Rel_delta.smash part_old
                     (Rel_delta.join ~on:p.p_on ?test:p.p_test !acc ds.(k))
                 else part_old);
              charged := !charged + Rel_delta.support_cardinal !acc)
            j.terms.(i);
          let term =
            match j.leftover with
            | None -> !acc
            | Some f ->
              Rel_delta.transform (Rel_delta.schema !acc)
                (fun t -> if f t then Some t else None)
                !acc
          in
          terms := Rel_delta.relabel j.canonical term :: !terms
        end
      done;
      Eval.charge_tuple_ops !charged;
      match !terms with
      | [] -> Rel_delta.empty j.canonical
      | t0 :: rest -> List.fold_left Rel_delta.smash t0 rest
    end
  and exec_diff d =
      let da = exec d.d_left in
      let db = exec d.d_right in
      if Rel_delta.is_empty da && Rel_delta.is_empty db then
        Rel_delta.empty (Rel_delta.schema da)
      else begin
        let old_a = Plan.run d.a_old ~env
        and old_b = Plan.run d.b_old ~env in
        let schema = Bag.schema old_a in
        (* Only tuples whose bag multiplicity changed in a child can
           change set membership in the output; post-state membership
           is decidable from the old bag and the signed delta. *)
        let mem_after bag dl t =
          Bag.mult bag t + Rel_delta.signed_mult dl t > 0
        in
        let candidates =
          Rel_delta.fold
            (fun t _ acc -> Tuple.Set.add t acc)
            da
            (Rel_delta.fold
               (fun t _ acc -> Tuple.Set.add t acc)
               db Tuple.Set.empty)
        in
        Eval.charge_tuple_ops (Tuple.Set.cardinal candidates);
        Tuple.Set.fold
          (fun t acc ->
            let before = Bag.mem old_a t && not (Bag.mem old_b t) in
            let after = mem_after old_a da t && not (mem_after old_b db t) in
            match (before, after) with
            | false, true -> Rel_delta.insert acc t
            | true, false -> Rel_delta.delete acc t
            | true, true | false, false -> acc)
          candidates (Rel_delta.empty schema)
      end
  in
  exec p
