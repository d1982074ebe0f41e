(* Interpretive oracles for the compiled evaluators: a condition
   evaluator, a value evaluator and a delta rule engine that walk the
   AST on every call, and the VAP closure that derives [derived_from]
   from the VDP on every call. The differential tests check the
   compiled forms ({!Relalg.Predicate.compile}, {!Relalg.Plan},
   {!Delta.Delta_plan}, the closure rules of {!Vdp.Derived_from})
   against them, value for value; no program links this library. *)

open Relalg
open Delta

(* The reference semantics of a condition on a tuple. Comparisons
   involving [Null] are false (so [Not] of one is true); an [In] holds
   when the attribute equals one of its values. *)
let eval_pred p tuple =
  let open Predicate in
  let rec term = function
    | Const v -> v
    | Attr a -> Tuple.get tuple a
    | Neg t -> Value.neg (term t)
    | Add (a, b) -> Value.add (term a) (term b)
    | Sub (a, b) -> Value.sub (term a) (term b)
    | Mul (a, b) -> Value.mul (term a) (term b)
    | Div (a, b) -> Value.div (term a) (term b)
  in
  let cmp op a b =
    match (a, b) with
    | Value.Null, _ | _, Value.Null -> false
    | _ -> (
      let c = Value.compare a b in
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)
  in
  let rec go = function
    | True -> true
    | False -> false
    | Cmp (op, a, b) -> cmp op (term a) (term b)
    | And (a, b) -> go a && go b
    | Or (a, b) -> go a || go b
    | Not a -> not (go a)
    | In (a, vs) ->
      let x = Tuple.get tuple a in
      List.exists (cmp Eq x) vs
  in
  go p

(* The interpretive evaluator: walks the AST on every call, resolving
   operators as it goes. Value-identical to {!Eval.eval}. *)
let rec eval_interp ~env expr =
  match expr with
  | Expr.Base name -> (
    match env name with
    | Some bag -> bag
    | None -> raise (Eval.Unbound_relation name))
  | Expr.Select (p, e) ->
    let bag = eval_interp ~env e in
    Eval.charge_tuple_ops (Bag.support_cardinal bag);
    Bag.select p bag
  | Expr.Project (names, e) ->
    let bag = eval_interp ~env e in
    Eval.charge_tuple_ops (Bag.support_cardinal bag);
    Bag.project names bag
  | Expr.Rename (mapping, e) ->
    let bag = eval_interp ~env e in
    Eval.charge_tuple_ops (Bag.support_cardinal bag);
    let schema =
      Expr.schema_of (fun _ -> Bag.schema bag) (Expr.Rename (mapping, Expr.Base "_"))
    in
    let rename = Tuple.renamer mapping in
    Bag.fold (fun t m out -> Bag.add ~mult:m out (rename t)) bag (Bag.empty schema)
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
    Eval.charge_tuple_ops cost;
    result
  | Expr.Union (a, b) ->
    let ba = eval_interp ~env a and bb = eval_interp ~env b in
    Eval.charge_tuple_ops (Bag.support_cardinal ba + Bag.support_cardinal bb);
    Bag.union ba bb
  | Expr.Diff (a, b) ->
    let ba = eval_interp ~env a and bb = eval_interp ~env b in
    Eval.charge_tuple_ops (Bag.support_cardinal ba + Bag.support_cardinal bb);
    Bag.set_diff ba bb

(* a delta's atoms renamed ([(old, new)] pairs) *)
let rename_delta mapping d =
  let schema =
    Expr.schema_of
      (fun _ -> Rel_delta.schema d)
      (Expr.Rename (mapping, Expr.Base "_"))
  in
  let rename_tuple = Tuple.renamer mapping in
  Rel_delta.transform schema (fun t -> Some (rename_tuple t)) d

(* A leaf delta through a leaf-parent's select/project/rename
   definition, one operator at a time (deltas commute with select,
   project and rename, Sec. 6.2): the interpretive form of the
   mediator's compiled leaf-parent filters. *)
let rec filter_delta expr d =
  match expr with
  | Expr.Base _ -> d
  | Expr.Select (p, e) -> Rel_delta.select p (filter_delta e d)
  | Expr.Project (a, e) -> Rel_delta.project a (filter_delta e d)
  | Expr.Rename (m, e) -> rename_delta m (filter_delta e d)
  | Expr.Join _ | Expr.Union _ | Expr.Diff _ ->
    invalid_arg "Oracle.filter_delta: not a select/project/rename chain"

(* pre-update value of a subexpression *)
let eval_old ~env e = Eval.eval ~env e

(* [d ⋈ b] as two bag joins: the insertions' and the deletions' *)
let join_bag ~on d bag =
  let ins = Bag.join ~on (Rel_delta.insertions d) bag
  and del = Bag.join ~on (Rel_delta.deletions d) bag in
  Rel_delta.empty (Bag.schema ins)
  |> Bag.fold (fun t m acc -> Rel_delta.insert ~mult:m acc t) ins
  |> Bag.fold (fun t m acc -> Rel_delta.delete ~mult:m acc t) del

(* The interpretive rule engine: walks the expression on every
   transaction. Value-identical to {!Delta_plan.run}. *)
let rec delta_of_expr_interp ?indexed_join ~env ~deltas expr =
  let delta_of_expr = delta_of_expr_interp ?indexed_join in
  (* [d ⋈ base]: probe the base's persistent index when the caller
     provides one, otherwise hash-join against its pre-update value *)
  let join_side ~on d side =
    let generic () = join_bag ~on d (eval_old ~env side) in
    match indexed_join, side with
    | Some probe, Expr.Base name -> (
      match probe ~name ~on ?filter:None d with
      | Some part -> part
      | None -> generic ())
    | _ -> generic ()
  in
  match expr with
  | Expr.Base name -> (
    match deltas name with
    | Some d -> d
    | None -> (
      match env name with
      | Some bag -> Rel_delta.empty (Bag.schema bag)
      | None -> raise (Eval.Unbound_relation name)))
  | Expr.Select (p, e) ->
    let d = delta_of_expr ~env ~deltas e in
    Eval.charge_tuple_ops (Rel_delta.support_cardinal d);
    Rel_delta.select p d
  | Expr.Project (names, e) ->
    let d = delta_of_expr ~env ~deltas e in
    Eval.charge_tuple_ops (Rel_delta.support_cardinal d);
    Rel_delta.project names d
  | Expr.Rename (mapping, e) ->
    let d = delta_of_expr ~env ~deltas e in
    Eval.charge_tuple_ops (Rel_delta.support_cardinal d);
    rename_delta mapping d
  | Expr.Join (a, p, b) ->
    let da = delta_of_expr ~env ~deltas a in
    let db = delta_of_expr ~env ~deltas b in
    (* evaluate only the sides a fired rule actually reads: when one
       side is unchanged, the other side's old value suffices *)
    (* schema from the (possibly empty) child deltas, NOT from env
       values: a virtual child whose delta filtered out entirely has no
       stored value and no temporary, so an env schema lookup here
       would fail on a no-op delta *)
    (* every branch normalizes to the canonical left-then-right
       schema: the probe-the-other-side rules naturally build their
       result in firing order, which must not leak into the output *)
    let canonical =
      Schema.join (Rel_delta.schema da) (Rel_delta.schema db)
    in
    let canon d = Rel_delta.transform canonical (fun t -> Some t) d in
    if Rel_delta.is_empty da && Rel_delta.is_empty db then
      Rel_delta.empty canonical
    else if Rel_delta.is_empty db then begin
      let part = join_side ~on:p da b in
      Eval.charge_tuple_ops
        (Rel_delta.support_cardinal da + Rel_delta.support_cardinal part);
      canon part
    end
    else if Rel_delta.is_empty da then begin
      (* the natural join is symmetric, so the delta may probe [a] *)
      let part = join_side ~on:p db a in
      Eval.charge_tuple_ops
        (Rel_delta.support_cardinal db + Rel_delta.support_cardinal part);
      canon part
    end
    else begin
      (* Example 6.1, without materializing B_new:
         Δ(A ⋈ B) = ΔA ⋈ B_old + ΔA ⋈ ΔB + A_old ⋈ ΔB. *)
      let part1 = join_side ~on:p da b in
      let part2 = join_side ~on:p db a in
      let cross = Rel_delta.join ~on:p da db in
      Eval.charge_tuple_ops
        (Rel_delta.support_cardinal da + Rel_delta.support_cardinal db
        + Rel_delta.support_cardinal part1
        + Rel_delta.support_cardinal part2
        + Rel_delta.support_cardinal cross);
      canon (Rel_delta.smash (Rel_delta.smash part1 part2) cross)
    end
  | Expr.Union (a, b) ->
    let da = delta_of_expr ~env ~deltas a in
    let db = delta_of_expr ~env ~deltas b in
    Eval.charge_tuple_ops
      (Rel_delta.support_cardinal da + Rel_delta.support_cardinal db);
    Rel_delta.smash da db
  | Expr.Diff (a, b) ->
    let da = delta_of_expr ~env ~deltas a in
    let db = delta_of_expr ~env ~deltas b in
    if Rel_delta.is_empty da && Rel_delta.is_empty db then
      Rel_delta.empty (Rel_delta.schema da)
    else begin
      let old_a = eval_old ~env a and old_b = eval_old ~env b in
      let schema = Bag.schema old_a in
      (* Only tuples whose bag multiplicity changed in a child can
         change set membership in the output, and post-state
         membership is decidable from the old bag and the signed
         delta — no new state is materialized. Deltas clamp at zero
         on application, so membership after is [old + signed > 0]. *)
      let mem_after bag d t = Bag.mult bag t + Rel_delta.signed_mult d t > 0 in
      let candidates =
        Rel_delta.fold
          (fun t _ acc -> Tuple.Set.add t acc)
          da
          (Rel_delta.fold (fun t _ acc -> Tuple.Set.add t acc) db
             Tuple.Set.empty)
      in
      Eval.charge_tuple_ops (Tuple.Set.cardinal candidates);
      Tuple.Set.fold
        (fun t acc ->
          let before = Bag.mem old_a t && not (Bag.mem old_b t) in
          let after = mem_after old_a da t && not (mem_after old_b db t) in
          match before, after with
          | false, true -> Rel_delta.insert acc t
          | true, false -> Rel_delta.delete acc t
          | true, true | false, false -> acc)
        candidates (Rel_delta.empty schema)
    end

(* --- the VAP closure (Sec. 6.3), re-derived per call ------------------- *)

module Sset = Set.Make (String)

let rec condition_attrs = function
  | Expr.Base _ -> Sset.empty
  | Expr.Select (p, e) ->
    Sset.union (Sset.of_list (Predicate.attrs p)) (condition_attrs e)
  | Expr.Project (_, e) | Expr.Rename (_, e) -> condition_attrs e
  | Expr.Join (a, p, b) ->
    Sset.union
      (Sset.of_list (Predicate.attrs p))
      (Sset.union (condition_attrs a) (condition_attrs b))
  | Expr.Union (a, b) | Expr.Diff (a, b) ->
    Sset.union (condition_attrs a) (condition_attrs b)

let rec implicit_join_attrs env = function
  | Expr.Base _ -> Sset.empty
  | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) ->
    implicit_join_attrs env e
  | Expr.Join (a, _, b) ->
    let sa = Expr.schema_of env a and sb = Expr.schema_of env b in
    let shared = List.filter (fun n -> Schema.mem sb n) (Schema.attrs sa) in
    Sset.union (Sset.of_list shared)
      (Sset.union (implicit_join_attrs env a) (implicit_join_attrs env b))
  | Expr.Union (a, b) | Expr.Diff (a, b) ->
    Sset.union (implicit_join_attrs env a) (implicit_join_attrs env b)

(* [derived_from vdp ~node ~attrs ~cond]: per child S of the node's
   definition, [(S, B, g)] with B = (attrs ∩ attr(S)) ∪ D_S — D_S the
   condition and natural-join attributes of the definition, plus the
   whole output under a difference — and g = cond restricted to
   attr(S); children contributing no attributes omitted *)
let derived_from vdp ~node ~attrs ~cond =
  let n = Vdp.Graph.node vdp node in
  let def = Vdp.Graph.def vdp node in
  let env = Vdp.Graph.schema_env vdp in
  let extra =
    if Expr.contains_diff def then Sset.of_list (Schema.attrs n.Vdp.Graph.schema)
    else Sset.empty
  in
  let wanted =
    Sset.union (Sset.of_list attrs)
      (Sset.union
         (Sset.union (condition_attrs def) (implicit_join_attrs env def))
         extra)
  in
  List.filter_map
    (fun child ->
      let child_attrs = Schema.attrs (env child) in
      match List.filter (fun a -> Sset.mem a wanted) child_attrs with
      | [] -> None
      | b -> Some (child, b, Predicate.restrict_to cond child_attrs))
    (Vdp.Graph.children vdp node)

(* The closure of [(node, attrs, cond)] requests under [derived_from],
   given which [(node, attrs)] reads the store covers: requests on one
   node merged into [(B ∪ A', f ∨ g)]; a non-leaf child joins when the
   store does not cover its read or it already has a request; iterated
   parents-before-children to fixpoint. Returned parents before
   children. *)
let closure vdp ~covered requests =
  let table = Hashtbl.create 8 in
  let merge (node, attrs, cond) =
    let attrs =
      attrs
      @ List.filter (fun a -> not (List.mem a attrs)) (Predicate.attrs cond)
    in
    match Hashtbl.find_opt table node with
    | None -> Hashtbl.replace table node (attrs, cond)
    | Some (have, c) ->
      Hashtbl.replace table node
        ( have @ List.filter (fun a -> not (List.mem a have)) attrs,
          Predicate.or_ c cond )
  in
  List.iter merge requests;
  let order = List.rev (Vdp.Graph.topo_order vdp) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun node ->
        match Hashtbl.find_opt table node with
        | None -> ()
        | Some (attrs, cond) ->
          List.iter
            (fun (child, b, g) ->
              if
                (not (Vdp.Graph.is_leaf vdp child))
                && ((not (covered child b)) || Hashtbl.mem table child)
              then begin
                let before = Hashtbl.find_opt table child in
                merge (child, b, g);
                if Stdlib.compare (Hashtbl.find_opt table child) before <> 0
                then changed := true
              end)
            (derived_from vdp ~node ~attrs ~cond))
      order
  done;
  List.filter_map
    (fun node ->
      Option.map (fun (attrs, cond) -> (node, attrs, cond)) (Hashtbl.find_opt table node))
    order
