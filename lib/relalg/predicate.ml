type term =
  | Const of Value.t
  | Attr of string
  | Neg of term
  | Add of term * term
  | Sub of term * term
  | Mul of term * term
  | Div of term * term

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * term * term
  | And of t * t
  | Or of t * t
  | Not of t
  | In of string * Value.t list

let attr name = Attr name
let int i = Const (Value.Int i)

let eq a b = Cmp (Eq, a, b)
let lt a b = Cmp (Lt, a, b)
let ge a b = Cmp (Ge, a, b)

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let eq_attrs a b = Cmp (Eq, Attr a, Attr b)

let eval_cmp op a b =
  match a, b with
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

(* Compiled form: the closure tree mirrors the AST, but every [Attr]
   access goes through {!Tuple.keyer1}, whose one-entry slot memo turns
   the per-tuple name lookup into an array read after the first tuple
   of each descriptor. *)
let rec compile_term = function
  | Const v -> fun _ -> v
  | Attr a -> Tuple.keyer1 a
  | Neg t ->
    let f = compile_term t in
    fun x -> Value.neg (f x)
  | Add (a, b) ->
    let fa = compile_term a and fb = compile_term b in
    fun x -> Value.add (fa x) (fb x)
  | Sub (a, b) ->
    let fa = compile_term a and fb = compile_term b in
    fun x -> Value.sub (fa x) (fb x)
  | Mul (a, b) ->
    let fa = compile_term a and fb = compile_term b in
    fun x -> Value.mul (fa x) (fb x)
  | Div (a, b) ->
    let fa = compile_term a and fb = compile_term b in
    fun x -> Value.div (fa x) (fb x)

(* The disjuncts of a left- or right-deep [Or] chain, in order, in one
   pass (no list appends). *)
let disjuncts p =
  let rec go acc = function Or (a, b) -> go (go acc b) a | p -> p :: acc in
  go [] p

let rec conjuncts_acc acc = function
  | And (a, b) -> conjuncts_acc (conjuncts_acc acc b) a
  | True -> acc
  | p -> p :: acc

let conjuncts p = conjuncts_acc [] p

(* the one normal form of a key set's values; a comparison never
   matches Null, so it is no key. Of values equal under
   [Value.compare] (Int 1, Float 1.) the structurally least stays, so
   the form does not depend on the input's order. *)
let normalize_keys = function
  | [ Value.Null ] -> []
  | [ _ ] as point -> point (* already in normal form: nothing to copy *)
  | vs ->
    let order a b =
      match Value.compare a b with 0 -> Stdlib.compare a b | c -> c
    in
    let rec dedup acc = function
      | [] -> List.rev acc
      | v :: rest -> (
        match acc with
        | w :: _ when Value.equal v w -> dedup acc rest
        | _ -> dedup (v :: acc) rest)
    in
    dedup []
      (List.sort order (List.filter (function Value.Null -> false | _ -> true) vs))

let one_of a vs =
  match normalize_keys vs with
  | [] -> False
  | [ v ] -> Cmp (Eq, Attr a, Const v)
  | vs -> In (a, vs)

(* a condition read as a key set: an [In], or one attribute compared
   with one constant, in either operand order *)
let key_set = function
  | In (a, vs) -> Some (a, vs)
  | Cmp (Eq, Attr a, Const v) | Cmp (Eq, Const v, Attr a) ->
    Some (a, normalize_keys [ v ])
  | _ -> None

let key_sets p = List.filter_map key_set (conjuncts p)

(* [q] without the disjuncts in [have], keeping its shape *)
let rec drop_present have = function
  | Or (a, b) -> (
    match (drop_present have a, drop_present have b) with
    | None, r | r, None -> r
    | Some a, Some b -> Some (Or (a, b)))
  | d ->
    if List.exists (fun h -> Stdlib.compare h d = 0) have then None
    else Some d

let or_ p q =
  match (p, q) with
  | True, _ | _, True -> True
  | False, r | r, False -> r
  | _ -> (
    match drop_present (disjuncts p) q with
    | None -> p
    | Some q' -> (
      match (key_set p, key_set q) with
      | Some (a, xs), Some (b, ys) when String.equal a b -> one_of a (xs @ ys)
      | _ -> Or (p, q')))

let disj = function [] -> False | p :: ps -> List.fold_left or_ p ps

let rename mapping p =
  let name a = Option.value ~default:a (List.assoc_opt a mapping) in
  let rec term = function
    | Attr a -> Attr (name a)
    | Const _ as c -> c
    | Neg x -> Neg (term x)
    | Add (x, y) -> Add (term x, term y)
    | Sub (x, y) -> Sub (term x, term y)
    | Mul (x, y) -> Mul (term x, term y)
    | Div (x, y) -> Div (term x, term y)
  in
  let rec go = function
    | (True | False) as p -> p
    | Cmp (op, a, b) -> Cmp (op, term a, term b)
    | And (a, b) -> And (go a, go b)
    | Or (a, b) -> Or (go a, go b)
    | Not a -> Not (go a)
    | In (a, vs) -> In (name a, vs)
  in
  go p

let rec compile = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (op, a, b) ->
    let fa = compile_term a and fb = compile_term b in
    fun t -> eval_cmp op (fa t) (fb t)
  | And (a, b) ->
    let fa = compile a and fb = compile b in
    fun t -> fa t && fb t
  | Or (a, b) ->
    let fa = compile a and fb = compile b in
    fun t -> fa t || fb t
  | Not a ->
    let fa = compile a in
    fun t -> not (fa t)
  | In (a, vs) ->
    (* one hash lookup per row instead of one comparison per key *)
    let set = Value.Tbl.create (List.length vs) in
    List.iter (fun v -> Value.Tbl.replace set v ()) vs;
    let get = Tuple.keyer1 a in
    fun t -> Value.Tbl.mem set (get t)

module Sset = Set.Make (String)

let rec term_attr_set = function
  | Const _ -> Sset.empty
  | Attr a -> Sset.singleton a
  | Neg t -> term_attr_set t
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
    Sset.union (term_attr_set a) (term_attr_set b)

let rec attr_set = function
  | True | False -> Sset.empty
  | Cmp (_, a, b) -> Sset.union (term_attr_set a) (term_attr_set b)
  | And (a, b) | Or (a, b) -> Sset.union (attr_set a) (attr_set b)
  | Not a -> attr_set a
  | In (a, _) -> Sset.singleton a

let attrs p = Sset.elements (attr_set p)
let equi_pairs p =
  List.filter_map
    (function Cmp (Eq, Attr a, Attr b) -> Some (a, b) | _ -> None)
    (conjuncts p)

let rec simplify = function
  | And (a, b) -> (
    match simplify a, simplify b with
    | True, q | q, True -> q
    | False, _ | _, False -> False
    | a, b -> And (a, b))
  | Or (a, b) -> (
    match simplify a, simplify b with
    | False, q | q, False -> q
    | True, _ | _, True -> True
    | a, b -> Or (a, b))
  | Not a -> (
    match simplify a with
    | True -> False
    | False -> True
    | a -> Not a)
  | p -> p

let restrict_to p names =
  let allowed = Sset.of_list names in
  let keep q = Sset.subset (attr_set q) allowed in
  simplify (conj (List.filter keep (conjuncts p)))

let equal a b = Stdlib.compare a b = 0
let compare = Stdlib.compare

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* a constant as {!Parser} reads it back: a string quoted, with each
   embedded quote doubled; a float with the fewest significant digits
   that restore it, and a point when it would otherwise read as an int *)
let pp_const fmt = function
  | Value.Str s ->
    Format.fprintf fmt "'%s'"
      (String.concat "''" (String.split_on_char '\'' s))
  | Value.Float f ->
    let restores p = float_of_string (Printf.sprintf "%.*g" p f) = f in
    let p = if restores 15 then 15 else if restores 16 then 16 else 17 in
    let s = Printf.sprintf "%.*g" p f in
    Format.pp_print_string fmt
      (if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
       else s ^ ".0")
  | v -> Value.pp fmt v

let rec pp_term fmt = function
  | Const v -> pp_const fmt v
  | Attr a -> Format.pp_print_string fmt a
  | Neg t -> Format.fprintf fmt "-(%a)" pp_term t
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_term a pp_term b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_term a pp_term b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_term a pp_term b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp_term a pp_term b

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Cmp (op, a, b) ->
    Format.fprintf fmt "%a %s %a" pp_term a (cmp_to_string op) pp_term b
  | And (a, b) -> Format.fprintf fmt "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a or %a)" pp a pp b
  | Not a -> Format.fprintf fmt "not (%a)" pp a
  | In (a, vs) ->
    (* the left-deep equality chain it stands for, which parses back
       to the same set *)
    let eq v = Cmp (Eq, Attr a, Const v) in
    pp fmt
      (match vs with
      | [] -> False
      | v :: vs -> List.fold_left (fun acc v -> Or (acc, eq v)) (eq v) vs)
