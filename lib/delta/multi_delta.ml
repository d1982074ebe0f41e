module Smap = Map.Make (String)

type t = Rel_delta.t Smap.t

let empty = Smap.empty

let is_empty t = Smap.for_all (fun _ d -> Rel_delta.is_empty d) t

let singleton name rd = Smap.singleton name rd

let add t name rd =
  Smap.update name
    (function None -> Some rd | Some d -> Some (Rel_delta.smash d rd))
    t

let find t name = Smap.find_opt name t
let relations t = List.map fst (Smap.bindings t)
let bindings t = Smap.bindings t

let smash a b = Smap.fold (fun name rd acc -> add acc name rd) b a

let atom_count t =
  Smap.fold (fun _ d acc -> acc + Rel_delta.atom_count d) t 0
