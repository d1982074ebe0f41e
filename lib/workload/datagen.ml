open Relalg

let state seed = Random.State.make [| seed; 0x5317; seed * 7919 |]

type column_spec = { c_attr : string; c_min : int; c_max : int }

let draw rng spec =
  Value.Int (spec.c_min + Random.State.int rng (spec.c_max - spec.c_min + 1))

let tuple rng specs =
  Tuple.of_list (List.map (fun s -> (s.c_attr, draw rng s)) specs)

let keyed_tuple rng schema specs ~key_seed =
  let key = Schema.key schema in
  Tuple.of_list
    (List.map
       (fun s ->
         if List.mem s.c_attr key then (s.c_attr, Value.Int key_seed)
         else (s.c_attr, draw rng s))
       specs)

let bag rng schema specs ~size =
  let rec build acc i =
    if i >= size then acc
    else
      let t =
        if Schema.has_key schema then keyed_tuple rng schema specs ~key_seed:i
        else tuple rng specs
      in
      build (Bag.add acc t) (i + 1)
  in
  build (Bag.empty schema) 0

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))
