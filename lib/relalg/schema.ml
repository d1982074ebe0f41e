type t = { attrs : (string * Value.ty) list; key : string list }

exception Schema_error of string

let err fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

(* a projection checks its attribute list on every call, so a short
   list is scanned in place; only a list with a duplicate, or a long
   one, is sorted, and the error names the least duplicate *)
let rec short_distinct n = function
  | [] -> true
  | a :: rest ->
    n < 16 && (not (List.mem a rest)) && short_distinct (n + 1) rest

let check_distinct names =
  if not (short_distinct 0 names) then begin
    let sorted = List.sort String.compare names in
    let rec dup = function
      | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
      | _ -> None
    in
    match dup sorted with
    | Some a -> err "duplicate attribute %S" a
    | None -> ()
  end

let make ?(key = []) attrs =
  check_distinct (List.map fst attrs);
  List.iter
    (fun k ->
      if not (List.mem_assoc k attrs) then err "key attribute %S not in schema" k)
    key;
  check_distinct key;
  { attrs; key }

let attrs s = List.map fst s.attrs
let typed_attrs s = s.attrs
let key s = s.key
let has_key s = s.key <> []
let mem s name = List.mem_assoc name s.attrs

let arity s = List.length s.attrs

let project s names =
  let attrs =
    List.map
      (fun n ->
        match List.assoc n s.attrs with
        | ty -> (n, ty)
        | exception Not_found -> err "project: unknown attribute %S" n)
      names
  in
  check_distinct names;
  let key = if List.for_all (fun k -> List.mem k names) s.key then s.key else [] in
  { attrs; key }

let join a b =
  let merged =
    a.attrs
    @ List.filter
        (fun (n, ty) ->
          match List.assoc_opt n a.attrs with
          | None -> true
          | Some ty' ->
            if ty = ty' then false
            else err "join: attribute %S has conflicting types" n)
        b.attrs
  in
  let key =
    if a.key <> [] && b.key <> [] then
      a.key @ List.filter (fun k -> not (List.mem k a.key)) b.key
    else []
  in
  { attrs = merged; key }

let union_compatible a b =
  List.length a.attrs = List.length b.attrs
  && List.for_all2
       (fun (n, ty) (n', ty') -> String.equal n n' && ty = ty')
       a.attrs b.attrs

let equal a b =
  union_compatible a b && List.equal String.equal a.key b.key

let restrict_key s key =
  List.iter
    (fun k -> if not (mem s k) then err "restrict_key: unknown attribute %S" k)
    key;
  { s with key }

let pp fmt s =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt (n, ty) ->
         if List.mem n s.key then Format.fprintf fmt "%s*:%a" n Value.pp_ty ty
         else Format.fprintf fmt "%s:%a" n Value.pp_ty ty))
    s.attrs

let to_string s = Format.asprintf "%a" pp s
