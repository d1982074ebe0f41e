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

let inverse t = Smap.map Rel_delta.inverse t

let atom_count t =
  Smap.fold (fun _ d acc -> acc + Rel_delta.atom_count d) t 0

let equal a b = Smap.equal Rel_delta.equal a b

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt (name, d) ->
         Format.fprintf fmt "%s: %a" name Rel_delta.pp d))
    (Smap.bindings t)

let to_string t = Format.asprintf "%a" pp t
