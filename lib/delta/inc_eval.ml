open Relalg

let unrestricted e = List.map (fun n -> (n, Predicate.True)) (Expr.base_names e)

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
   exactly one changed base occurrence D whose delta is known, every
   tuple of Δc copies its D columns from one tuple of ΔD, so an equi
   pair (x, d) that follows x to base X of [r] and d to D confines the
   rows of X the rule can join to x ∈ keys(ΔD.d). Everything but the
   changed occurrence and the keys is fixed by the schemas: per base D
   of [c] and base X of [r], the candidate (x', d') column pairs in
   pair order (the first whose ΔD column holds no Null wins). *)
type keyed = {
  k_occurrences : string list; (* of [c] *)
  k_candidates : (string * (string * (string * string) list) list) list;
      (* per base D of [c]: per base X of [r], its (x', d') pairs *)
  k_unrestricted : (string * Predicate.t) list; (* every read of [r] *)
}

let keyed_read ~schema c p r =
  let pairs = join_pairs ~schema c p r in
  let candidates dn n =
    List.filter_map
      (fun (x, d) ->
        match
          ( restricted_column ~schema r n x,
            List.filter (fun (b, _) -> String.equal b dn) (origins ~schema c d) )
        with
        | Some x', (_, d') :: _ -> Some (x', d')
        | _ -> None)
      pairs
  in
  let occurrences = Expr.base_occurrences c in
  {
    k_occurrences = occurrences;
    k_candidates =
      List.map
        (fun dn -> (dn, List.map (fun n -> (n, candidates dn n)) (Expr.base_names r)))
        (List.sort_uniq String.compare occurrences);
    k_unrestricted = unrestricted r;
  }

(* a base [wanted] rejects gets no key set: the caller drops its read *)
let keyed_reads k ~changed ~known ~wanted =
  match List.filter changed k.k_occurrences with
  | [ dn ] -> (
    match known dn with
    | Some dd ->
      List.map
        (fun (n, cands) ->
          ( n,
            if not (wanted n) then Predicate.True
            else
              match
                List.find_map
                  (fun (x', d') -> Option.map (Predicate.one_of x') (column_keys dd d'))
                  cands
              with
              | Some cond -> cond
              | None -> Predicate.True ))
        (List.assoc dn k.k_candidates)
    | None -> k.k_unrestricted)
  | _ -> k.k_unrestricted

(* [reads] with everything the schemas fix compiled: each operand's base
   occurrences (whether it is affected) and each join orientation's
   keyed read *)
type reads =
  | Nothing
  | Join_reads of {
      a : reads;
      a_bases : string list;
      b : reads;
      b_bases : string list;
      a_reads_b : keyed; (* [a] changed, [b]'s value read *)
      b_reads_a : keyed;
    }
  | Union_reads of reads * reads
  | Diff_reads of { bases : string list; both : (string * Predicate.t) list }

let rec compile_reads ~schema = function
  | Expr.Base _ -> Nothing
  | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) ->
    compile_reads ~schema e
  | Expr.Join (a, p, b) ->
    Join_reads
      {
        a = compile_reads ~schema a;
        a_bases = Expr.base_occurrences a;
        b = compile_reads ~schema b;
        b_bases = Expr.base_occurrences b;
        a_reads_b = keyed_read ~schema a p b;
        b_reads_a = keyed_read ~schema b p a;
      }
  | Expr.Union (a, b) -> Union_reads (compile_reads ~schema a, compile_reads ~schema b)
  | Expr.Diff (a, b) ->
    Diff_reads
      {
        bases = Expr.base_occurrences a @ Expr.base_occurrences b;
        both = unrestricted a @ unrestricted b;
      }

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

(* every base whose value the rules read, once per read: [keyed k]
   restricts the bases of a join operand whose value the rule joins with
   the delta of the changed other operand; every other read is
   unrestricted. When both operands changed, each old value meets only
   the other's delta, while computing the operands' own deltas reads
   their bases again. *)
let reads ~changed ~keyed rules =
  let affected = List.exists changed in
  let rec go = function
    | Nothing -> []
    | Join_reads j -> (
      match (affected j.a_bases, affected j.b_bases) with
      | false, false -> []
      | true, false -> go j.a @ keyed j.a_reads_b
      | false, true -> keyed j.b_reads_a @ go j.b
      | true, true -> keyed j.b_reads_a @ keyed j.a_reads_b @ go j.a @ go j.b)
    | Union_reads (a, b) -> go a @ go b
    | Diff_reads d -> if affected d.bases then d.both else []
  in
  go rules

let value_restrictions ?only rules ~changed ~known =
  let wanted n = match only with None -> true | Some l -> List.mem n l in
  reads ~changed ~keyed:(fun k -> keyed_reads k ~changed ~known ~wanted) rules
  |> List.filter (fun (n, _) -> wanted n)
  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.fold_left
       (fun acc (n, c) ->
         match acc with
         | (m, c0) :: rest when String.equal m n ->
           (m, Predicate.or_ c0 c) :: rest
         | _ -> (n, c) :: acc)
       []
  |> List.rev
