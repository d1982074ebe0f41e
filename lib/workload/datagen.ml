open Relalg

let state seed = Random.State.make [| seed; 0x5317; seed * 7919 |]

type column_spec = { c_attr : string; c_min : int; c_max : int }

let draw rng spec =
  Value.Int (spec.c_min + Random.State.int rng (spec.c_max - spec.c_min + 1))

(* one row over [make] (a {!Tuple.maker} of the specs' attributes):
   with a [key_seed], the [key] columns take it; every other column is
   drawn, in [specs] order *)
let row make rng key specs ~key_seed =
  make
    (List.map
       (fun s ->
         match key_seed with
         | Some k when List.mem s.c_attr key -> Value.Int k
         | _ -> draw rng s)
       specs)

let maker specs = Tuple.maker (List.map (fun s -> s.c_attr) specs)
let tuple rng specs = row (maker specs) rng [] specs ~key_seed:None

let keyed_tuple rng schema specs ~key_seed =
  row (maker specs) rng (Schema.key schema) specs ~key_seed:(Some key_seed)

let bag rng schema specs ~size =
  let make = maker specs and key = Schema.key schema in
  let key_seed i = if Schema.has_key schema then Some i else None in
  let rec build acc i =
    if i >= size then acc
    else build (Bag.add acc (row make rng key specs ~key_seed:(key_seed i))) (i + 1)
  in
  build (Bag.empty schema) 0

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))
