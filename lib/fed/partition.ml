open Relalg
open Delta

let owner ~shards v =
  if shards <= 0 then invalid_arg "Partition.owner: shards must be positive";
  Value.hash v mod shards

let owner_of_tuple ~shards ~key tuple = owner ~shards (Tuple.get tuple key)

let split_bag ~shards ~key bag =
  let parts = Array.init shards (fun _ -> Bag.empty (Bag.schema bag)) in
  Bag.iter
    (fun tuple mult ->
      let i = owner_of_tuple ~shards ~key tuple in
      parts.(i) <- Bag.add parts.(i) ~mult tuple)
    bag;
  parts

let split_rel_delta ~shards ~key d =
  let schema = Rel_delta.schema d in
  let parts = Array.init shards (fun _ -> Rel_delta.empty schema) in
  Rel_delta.fold
    (fun tuple signed acc ->
      let i = owner_of_tuple ~shards ~key tuple in
      (if signed > 0 then
         parts.(i) <- Rel_delta.insert parts.(i) ~mult:signed tuple
       else if signed < 0 then
         parts.(i) <- Rel_delta.delete parts.(i) ~mult:(-signed) tuple);
      acc)
    d ();
  parts

let split_delta ~shards ~key md =
  let parts = Array.make shards Multi_delta.empty in
  List.iter
    (fun (rel, d) ->
      Array.iteri
        (fun i part ->
          if not (Rel_delta.is_empty part) then
            parts.(i) <- Multi_delta.add parts.(i) rel part)
        (split_rel_delta ~shards ~key d))
    (Multi_delta.bindings md);
  parts

type target = All_shards | Some_shards of int list

(* Which key values can satisfy the condition? [None] = unbounded.
   Sound over-approximation: a conjunction is at least as restrictive
   as either side (intersect when both bound the key), a disjunction
   needs both branches bounded. Anything else gives up. *)
let rec key_values ~key (p : Predicate.t) =
  match p with
  | Predicate.False -> Some []
  | Predicate.Cmp (Predicate.Eq, Predicate.Attr a, Predicate.Const v)
  | Predicate.Cmp (Predicate.Eq, Predicate.Const v, Predicate.Attr a)
    when String.equal a key ->
    Some [ v ]
  | Predicate.In (a, vs) when String.equal a key -> Some vs
  | Predicate.And (p, q) -> (
    match (key_values ~key p, key_values ~key q) with
    | Some vs, Some ws ->
      Some (List.filter (fun v -> List.exists (Value.equal v) ws) vs)
    | Some vs, None | None, Some vs -> Some vs
    | None, None -> None)
  | Predicate.Or (p, q) -> (
    match (key_values ~key p, key_values ~key q) with
    | Some vs, Some ws ->
      Some (vs @ List.filter (fun w -> not (List.exists (Value.equal w) vs)) ws)
    | _ -> None)
  | Predicate.True
  | Predicate.Cmp _
  | Predicate.In _
  | Predicate.Not _ ->
    None

let targets ~shards ~key cond =
  match key_values ~key cond with
  | None -> All_shards
  | Some vs ->
    Some_shards (List.sort_uniq Int.compare (List.map (owner ~shards) vs))
