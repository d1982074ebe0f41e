open Relalg

(* Compiled incremental propagation rules: the delta counterpart of
   {!Relalg.Plan}. Each edge/definition expression is compiled into a
   delta pipeline — predicates compiled to slot closures, unary
   select/project/rename chains fused into a single signed pass over
   the child delta ({!Rel_delta.transform}), join rules precompiled
   with their residual tests — and executed on every update
   transaction. The value plans of the old values a join or difference
   reads are compiled with it, so a delta plan owns everything it runs;
   nothing is remembered across [of_expr] calls (the mediator keeps
   each node's plan). Rule structure (Example 6.1 three-part join,
   membership-candidate difference) matches the interpretive rule
   engine the tests check the plans against. *)

type prog =
  | Source of string
  | Fused of Plan.step array * prog (* steps innermost-first *)
  | Join of njoin
  | Union of prog * prog
  | Diff of diff

and njoin = {
  on : Predicate.t; (* conjunction over the collapsed join chain *)
  conjs : Predicate.t list;
  inputs : (prog * Plan.t) array; (* compiled + old-value-side reads *)
}

and diff = {
  d_left : prog;
  d_right : prog;
  a_old : Plan.t; (* both old values are read when either side moves *)
  b_old : Plan.t;
}

type t = prog

(* A unary chain fuses into one pass ({!Plan.peel}). Fusing is
   value-correct for signed deltas: a filter decision depends only on
   the tuple value, so atoms whose projection images coincide pass or
   fail together and accumulating signed multiplicities once at the
   end of the chain equals accumulating after every projection. *)
let rec compile_prog expr =
  match expr with
  | Expr.Base n -> Source n
  | Expr.Select _ | Expr.Project _ | Expr.Rename _ ->
    let steps, sub = Plan.peel [] expr in
    Fused (Array.of_list steps, compile_prog sub)
  | Expr.Join _ ->
    let inputs, conj_list = Plan.flatten_join expr in
    let conjs =
      List.filter (fun p -> not (Predicate.equal p Predicate.True)) conj_list
    in
    Join
      {
        on = Predicate.conj conjs;
        conjs;
        inputs =
          Array.of_list
            (List.map (fun e -> (compile_prog e, Plan.of_expr e)) inputs);
      }
  | Expr.Union (a, b) -> Union (compile_prog a, compile_prog b)
  | Expr.Diff (a, b) ->
    Diff
      {
        d_left = compile_prog a;
        d_right = compile_prog b;
        a_old = Plan.of_expr a;
        b_old = Plan.of_expr b;
      }

let run ?indexed_join ~env ~deltas p =
  let rec exec prog =
    match prog with
    | Source name -> (
      match deltas name with
      | Some d -> d
      | None -> (
        match env name with
        | Some bag -> Rel_delta.empty (Bag.schema bag)
        | None -> raise (Eval.Unbound_relation name)))
    | Fused (steps, sub) ->
      let d = exec sub in
      let n = Array.length steps in
      let schema =
        Array.fold_left
          (fun s step ->
            match step with
            | Plan.Filter _ -> s
            | Plan.Gather (names, _) -> Schema.project s names
            | Plan.Remap (m, _) ->
              Expr.schema_of (fun _ -> s) (Expr.Rename (m, Expr.Base "_")))
          (Rel_delta.schema d) steps
      in
      let ops = ref 0 in
      let rec go i t =
        if i >= n then Some t
        else begin
          incr ops;
          match Array.unsafe_get steps i with
          | Plan.Filter f -> if f t then go (i + 1) t else None
          | Plan.Gather (_, g) -> go (i + 1) (g t)
          | Plan.Remap (_, r) -> go (i + 1) (r t)
        end
      in
      let out = Rel_delta.transform schema (go 0) d in
      Eval.charge_tuple_ops !ops;
      out
    | Join j -> exec_njoin j
    | Union (a, b) ->
      let da = exec a in
      let db = exec b in
      Eval.charge_tuple_ops
        (Rel_delta.support_cardinal da + Rel_delta.support_cardinal db);
      Rel_delta.smash da db
    | Diff d -> exec_diff d
  (* the n-ary telescoped join rule — Example 6.1 generalized:
       Δ(e1 ⋈ … ⋈ en) = Σ_i new_1 ⋈ … ⋈ new_{i-1} ⋈ Δi ⋈ old_{i+1} ⋈ … ⋈ old_n
     Each term binds its delta FIRST and then probes the remaining
     inputs greedily (key-sharing, index-probeable inputs preferred),
     so a term's cost tracks the delta's size, not the stored bags'.
     New-value sides never materialize: acc ⋈ new_j distributes into
     acc ⋈ old_j ⊎ acc ⋈ Δj (join is bilinear over signed bags). Old
     values are evaluated at most once per input per transaction. *)
  and exec_njoin j =
    let n = Array.length j.inputs in
    let ds = Array.map (fun (p, _) -> exec p) j.inputs in
    (* schema from the (possibly empty) child deltas, NOT from env
       values: a virtual child whose delta filtered out entirely has
       no stored value and no temporary (see the interpreter); the
       canonical schema folds the inputs in original order, the order
       every term is normalized back to *)
    let canonical =
      let s = ref (Rel_delta.schema ds.(0)) in
      for k = 1 to n - 1 do
        s := Schema.join !s (Rel_delta.schema ds.(k))
      done;
      !s
    in
    if Array.for_all Rel_delta.is_empty ds then Rel_delta.empty canonical
    else begin
      let canon_attrs = Schema.attrs canonical in
      (* conjuncts outside even the full output schema still evaluate
         on the output, raising as the interpreter would *)
      let leftovers =
        List.filter
          (fun c ->
            not
              (List.for_all
                 (fun a -> List.mem a canon_attrs)
                 (Predicate.attrs c)))
          j.conjs
      in
      let leftover_test =
        if leftovers = [] then None
        else Some (Predicate.compile (Predicate.conj leftovers))
      in
      let olds = Array.make n None in
      let old_of k =
        match olds.(k) with
        | Some b -> b
        | None ->
          let b = Plan.run (snd j.inputs.(k)) ~env in
          olds.(k) <- Some b;
          b
      in
      (* an input whose old value can be index-probed in place: a bare
         base, or selections over one (pushed down as a probe filter) *)
      let probe_target k =
        let rec filters_only acc = function
          | [] -> Some acc
          | Plan.Filter f :: rest -> filters_only (f :: acc) rest
          | (Plan.Gather _ | Plan.Remap _) :: _ -> None
        in
        match fst j.inputs.(k) with
        | Source name -> Some (name, None)
        | Fused (steps, Source name) -> (
          match filters_only [] (Array.to_list steps) with
          | Some fs ->
            let fs = Array.of_list fs in
            Some (name, Some (fun t -> Array.for_all (fun f -> f t) fs))
          | None -> None)
        | _ -> None
      in
      let join_old acc k pj test =
        let generic () = Rel_delta.join_bag ~on:pj ?test acc (old_of k) in
        match (indexed_join, probe_target k) with
        | Some probe, Some (name, filter) -> (
          match probe ~name ~on:pj ?test ?filter acc with
          | Some part -> part
          | None -> generic ())
        | _ -> generic ()
      in
      let charged = ref 0 in
      let terms = ref [] in
      for i = 0 to n - 1 do
        if not (Rel_delta.is_empty ds.(i)) then begin
          let remaining = ref (List.filter (fun k -> k <> i) (List.init n Fun.id)) in
          let acc = ref ds.(i) in
          charged := !charged + Rel_delta.support_cardinal !acc;
          while !remaining <> [] do
            let acc_schema = Rel_delta.schema !acc in
            let score k =
              let lk, _ =
                Bag.join_keys acc_schema (Rel_delta.schema ds.(k)) j.on
              in
              ( (if lk <> [] then 0 else 1),
                (if probe_target k <> None then 0 else 1),
                k )
            in
            let best =
              List.fold_left
                (fun b k -> if score k < score b then k else b)
                (List.hd !remaining) (List.tl !remaining)
            in
            remaining := List.filter (fun k -> k <> best) !remaining;
            let merged = Schema.join acc_schema (Rel_delta.schema ds.(best)) in
            let mattrs = Schema.attrs merged in
            let pj =
              Predicate.conj
                (List.filter
                   (fun c ->
                     List.for_all
                       (fun a -> List.mem a mattrs)
                       (Predicate.attrs c))
                   j.conjs)
            in
            let test =
              if Predicate.equal pj Predicate.True then None
              else Some (Predicate.compile pj)
            in
            let part_old = join_old !acc best pj test in
            acc :=
              (if best < i && not (Rel_delta.is_empty ds.(best)) then
                 Rel_delta.smash part_old
                   (Rel_delta.join ~on:pj ?test !acc ds.(best))
               else part_old);
            charged := !charged + Rel_delta.support_cardinal !acc
          done;
          let term = !acc in
          let term =
            match leftover_test with
            | None -> term
            | Some f ->
              Rel_delta.transform (Rel_delta.schema term)
                (fun t -> if f t then Some t else None)
                term
          in
          terms := Rel_delta.transform canonical (fun t -> Some t) term :: !terms
        end
      done;
      Eval.charge_tuple_ops !charged;
      match !terms with
      | [] -> Rel_delta.empty canonical
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

let of_expr = compile_prog
