type t =
  | Base of string
  | Select of Predicate.t * t
  | Project of string list * t
  | Rename of (string * string) list * t
  | Join of t * Predicate.t * t
  | Union of t * t
  | Diff of t * t

exception Expr_error of string

let err fmt = Format.kasprintf (fun s -> raise (Expr_error s)) fmt

(* each (old, new) pair must rename an existing attribute, sources
   must be distinct, and targets must not collide with kept names *)
let check_rename_mapping schema mapping =
  let olds = List.map fst mapping in
  List.iter
    (fun a ->
      if not (Schema.mem schema a) then
        err "rename: unknown attribute %S" a)
    olds;
  if List.length (List.sort_uniq String.compare olds) <> List.length olds then
    err "rename: duplicate source attribute";
  ()

let base name = Base name
let select p e = Select (p, e)
let project names e = Project (names, e)
let rename mapping e = Rename (mapping, e)
let join ?(on = Predicate.True) a b = Join (a, on, b)
let union a b = Union (a, b)
let diff a b = Diff (a, b)

let rec base_occurrences = function
  | Base n -> [ n ]
  | Select (_, e) | Project (_, e) | Rename (_, e) -> base_occurrences e
  | Join (a, _, b) | Union (a, b) | Diff (a, b) ->
    base_occurrences a @ base_occurrences b

let base_names e =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    (base_occurrences e)

let rec schema_of env = function
  | Base n -> env n
  | Select (p, e) ->
    let s = schema_of env e in
    List.iter
      (fun a ->
        if not (Schema.mem s a) then
          err "select condition mentions unknown attribute %S" a)
      (Predicate.attrs p);
    s
  | Project (names, e) -> Schema.project (schema_of env e) names
  | Rename (mapping, e) ->
    let s = schema_of env e in
    let fresh = List.map snd mapping in
    check_rename_mapping s mapping;
    let renamed a = match List.assoc_opt a mapping with Some b -> b | None -> a in
    let attrs = List.map (fun (a, ty) -> (renamed a, ty)) (Schema.typed_attrs s) in
    (match Schema.make ~key:(List.map renamed (Schema.key s)) attrs with
    | schema -> schema
    | exception Schema.Schema_error msg ->
      err "rename to %s yields an invalid schema: %s"
        (String.concat "," fresh) msg)
  | Join (a, p, b) ->
    let sa = schema_of env a and sb = schema_of env b in
    let joined = Schema.join sa sb in
    List.iter
      (fun attr ->
        if not (Schema.mem joined attr) then
          err "join condition mentions unknown attribute %S" attr)
      (Predicate.attrs p);
    joined
  | Union (a, b) ->
    let sa = schema_of env a and sb = schema_of env b in
    if not (Schema.union_compatible sa sb) then
      err "union of incompatible schemas %s and %s" (Schema.to_string sa)
        (Schema.to_string sb);
    (* a bag union has no key even if the inputs do *)
    Schema.restrict_key sa []
  | Diff (a, b) ->
    let sa = schema_of env a and sb = schema_of env b in
    if not (Schema.union_compatible sa sb) then
      err "difference of incompatible schemas %s and %s" (Schema.to_string sa)
        (Schema.to_string sb);
    sa

let rec contains_diff = function
  | Base _ -> false
  | Select (_, e) | Project (_, e) | Rename (_, e) -> contains_diff e
  | Join (a, _, b) | Union (a, b) -> contains_diff a || contains_diff b
  | Diff _ -> true

let rec is_select_project_of name = function
  | Base n -> String.equal n name
  | Select (_, e) | Project (_, e) | Rename (_, e) ->
    is_select_project_of name e
  | Join _ | Union _ | Diff _ -> false

(* renaming is confined to leaf-parent chains: it does not count as
   an SPJ / select-project operator for the Def. 5.1 restrictions *)
let rec is_spj = function
  | Base _ -> true
  | Select (_, e) | Project (_, e) -> is_spj e
  | Join (a, _, b) -> is_spj a && is_spj b
  | Rename _ | Union _ | Diff _ -> false

let rec is_sp = function
  | Base _ -> true
  | Select (_, e) | Project (_, e) -> is_sp e
  | Rename _ | Join _ | Union _ | Diff _ -> false

let is_setop_of_sp = function
  | Union (a, b) | Diff (a, b) -> is_sp a && is_sp b
  | Base _ | Select _ | Project _ | Rename _ | Join _ -> false

let rec rewrite_bases f = function
  | Base n -> f n
  | Select (p, e) -> Select (p, rewrite_bases f e)
  | Project (names, e) -> Project (names, rewrite_bases f e)
  | Rename (m, e) -> Rename (m, rewrite_bases f e)
  | Join (a, p, b) -> Join (rewrite_bases f a, p, rewrite_bases f b)
  | Union (a, b) -> Union (rewrite_bases f a, rewrite_bases f b)
  | Diff (a, b) -> Diff (rewrite_bases f a, rewrite_bases f b)

let rec size = function
  | Base _ -> 1
  | Select (_, e) | Project (_, e) | Rename (_, e) -> 1 + size e
  | Join (a, _, b) | Union (a, b) | Diff (a, b) -> 1 + size a + size b


let rec pp fmt = function
  | Base n -> Format.pp_print_string fmt n
  | Select (p, e) -> Format.fprintf fmt "sel[%a](%a)" Predicate.pp p pp e
  | Project (names, e) ->
    Format.fprintf fmt "proj[%s](%a)" (String.concat "," names) pp e
  | Rename (m, e) ->
    Format.fprintf fmt "rho[%s](%a)"
      (String.concat ","
         (List.map (fun (a, b) -> a ^ "->" ^ b) m))
      pp e
  | Join (a, Predicate.True, b) -> Format.fprintf fmt "(%a join %a)" pp a pp b
  | Join (a, p, b) ->
    Format.fprintf fmt "(%a join[%a] %a)" pp a Predicate.pp p pp b
  | Union (a, b) -> Format.fprintf fmt "(%a union %a)" pp a pp b
  | Diff (a, b) -> Format.fprintf fmt "(%a minus %a)" pp a pp b

let to_string e = Format.asprintf "%a" pp e
