open Relalg

let rec affected ~changed = function
  | Expr.Base n -> changed n
  | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) ->
    affected ~changed e
  | Expr.Join (a, _, b) | Expr.Union (a, b) | Expr.Diff (a, b) ->
    affected ~changed a || affected ~changed b

let unrestricted e = List.map (fun n -> (n, Predicate.True)) (Expr.base_names e)

(* every base whose value the rules read, once per read: [join_read c p
   r] pairs the bases of a join operand [r], whose value the rule joins
   with the delta of the changed operand [c]; every other read is
   unrestricted. When both operands changed, each old value meets only
   the other's delta, while computing the operands' own deltas reads
   their bases again. *)
let reads ~changed ~join_read expr =
  let rec go = function
    | Expr.Base _ -> []
    | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) -> go e
    | Expr.Join (a, p, b) -> (
      match (affected ~changed a, affected ~changed b) with
      | false, false -> []
      | true, false -> go a @ join_read a p b
      | false, true -> join_read b p a @ go b
      | true, true -> join_read b p a @ join_read a p b @ go a @ go b)
    | Expr.Union (a, b) -> go a @ go b
    | Expr.Diff (a, b) ->
      if affected ~changed a || affected ~changed b then
        unrestricted a @ unrestricted b
      else []
  in
  go expr

(* the base columns that output column [a] of [e] copies, followed
   through select/project/rename and into each join side carrying it
   (a shared natural-join column holds one value on both sides) *)
let rec origins ~schema e a =
  match e with
  | Expr.Base n -> [ (n, a) ]
  | Expr.Select (_, e) -> origins ~schema e a
  | Expr.Project (l, e) -> if List.mem a l then origins ~schema e a else []
  | Expr.Rename (m, e) -> (
    match List.find_opt (fun (_, n) -> String.equal n a) m with
    | Some (o, _) -> origins ~schema e o
    | None -> if List.mem_assoc a m then [] else origins ~schema e a)
  | Expr.Join (l, _, r) ->
    let side e =
      if Schema.mem (Expr.schema_of schema e) a then origins ~schema e a
      else []
    in
    side l @ side r
  | Expr.Union _ | Expr.Diff _ -> []

(* sorted distinct values of column [col] over the inserts and deletes
   of [d]; None when one is Null, which the hash joins key like any
   other value while a comparison never matches it *)
let column_keys d col =
  let vs =
    List.sort_uniq Value.compare
      (Rel_delta.fold (fun t _ acc -> Tuple.get t col :: acc) d [])
  in
  if List.mem Value.Null vs then None else Some vs

(* the (x, d) pairs of [c ⋈_p r] equal on every joined pair of rows, x
   a column of [r] and d of [c]: the shared natural-join columns and
   both orientations of the equi pairs *)
let join_pairs ~schema c p r =
  let sc = Expr.schema_of schema c and sr = Expr.schema_of schema r in
  List.map (fun a -> (a, a)) (List.filter (Schema.mem sc) (Schema.attrs sr))
  @ List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) (Predicate.equi_pairs p)
  |> List.filter (fun (x, d) -> Schema.mem sr x && Schema.mem sc d)

(* the column of base [n] a restriction of [r]'s column [x] names: the
   one column of [n] that [x] copies, when [n] occurs once in [r] *)
let restricted_column ~schema r n x =
  let once =
    List.length (List.filter (String.equal n) (Expr.base_occurrences r)) = 1
  in
  match List.filter (fun (b, _) -> String.equal b n) (origins ~schema r x) with
  | [ (_, x') ] when once -> Some x'
  | _ -> None

(* [c ⋈_p r] with [c] changed joins Δc with [r]'s value. When [c] holds
   exactly one changed base occurrence D whose delta is [known], every
   tuple of Δc copies its D columns from one tuple of ΔD, so an equi
   pair (x, d) that follows x to base X of [r] and d to D confines the
   rows of X the rule can join to x ∈ keys(ΔD.d). *)
let keyed_read ~schema ~changed ~known c p r =
  match List.filter changed (Expr.base_occurrences c) with
  | [ dn ] when known dn <> None ->
    let dd = Option.get (known dn) in
    let pairs = join_pairs ~schema c p r in
    let keyed n (x, d) =
      match
        ( restricted_column ~schema r n x,
          List.filter (fun (b, _) -> String.equal b dn) (origins ~schema c d) )
      with
      | Some x', (_, d') :: _ ->
        Option.map (Predicate.one_of x') (column_keys dd d')
      | _ -> None
    in
    List.map
      (fun n ->
        match List.find_map (keyed n) pairs with
        | Some cond -> (n, cond)
        | None -> (n, Predicate.True))
      (Expr.base_names r)
  | _ -> unrestricted r

(* every (base, column) some [keyed_read] of [expr] can restrict, for
   any changed bases and known deltas: the join reads of [reads], in
   both orientations *)
let restrictable ~schema expr =
  let rec go = function
    | Expr.Base _ | Expr.Diff _ -> []
    | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) -> go e
    | Expr.Join (a, p, b) ->
      let side c r =
        List.concat_map
          (fun (x, _) ->
            List.filter_map
              (fun n -> Option.map (fun x' -> (n, x')) (restricted_column ~schema r n x))
              (Expr.base_names r))
          (join_pairs ~schema c p r)
      in
      side a b @ side b a @ go a @ go b
    | Expr.Union (a, b) -> go a @ go b
  in
  List.sort_uniq compare (go expr)

let value_restrictions ~schema ~changed ~known expr =
  reads ~changed ~join_read:(keyed_read ~schema ~changed ~known) expr
  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.fold_left
       (fun acc (n, c) ->
         match acc with
         | (m, c0) :: rest when String.equal m n ->
           (m, Predicate.or_ c0 c) :: rest
         | _ -> (n, c) :: acc)
       []
  |> List.rev
