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

let attr name = Attr name
let int i = Const (Value.Int i)

let eq a b = Cmp (Eq, a, b)
let lt a b = Cmp (Lt, a, b)
let le a b = Cmp (Le, a, b)
let gt a b = Cmp (Gt, a, b)
let ge a b = Cmp (Ge, a, b)

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let disj = function
  | [] -> False
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

let eq_attrs a b = Cmp (Eq, Attr a, Attr b)

let rec eval_term term tuple =
  match term with
  | Const v -> v
  | Attr a -> Tuple.get tuple a
  | Neg t -> Value.neg (eval_term t tuple)
  | Add (a, b) -> Value.add (eval_term a tuple) (eval_term b tuple)
  | Sub (a, b) -> Value.sub (eval_term a tuple) (eval_term b tuple)
  | Mul (a, b) -> Value.mul (eval_term a tuple) (eval_term b tuple)
  | Div (a, b) -> Value.div (eval_term a tuple) (eval_term b tuple)

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

let rec eval p tuple =
  match p with
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> eval_cmp op (eval_term a tuple) (eval_term b tuple)
  | And (a, b) -> eval a tuple && eval b tuple
  | Or (a, b) -> eval a tuple || eval b tuple
  | Not a -> not (eval a tuple)

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

let eq_const = function
  | Cmp (Eq, Attr a, Const v) | Cmp (Eq, Const v, Attr a) -> Some (a, v)
  | _ -> None

(* disjuncts [a = v1; …; a = vn] over one attribute, as
   [(a, [v1; …; vn])] *)
let key_set_of = function
  | [] -> None
  | d :: ds -> (
    match eq_const d with
    | None -> None
    | Some (a, v) ->
      let rec rest acc = function
        | [] -> Some (a, List.rev acc)
        | d :: ds -> (
          match eq_const d with
          | Some (b, v) when String.equal a b -> rest (v :: acc) ds
          | _ -> None)
      in
      rest [ v ] ds)

let key_sets p =
  List.filter_map (fun c -> key_set_of (disjuncts c)) (conjuncts p)

let one_of a vs = disj (List.map (fun v -> Cmp (Eq, Attr a, Const v)) vs)

(* A hash lookup agrees with [Eq] exactly when every constant hashes
   like each value equal to it: integral numbers past 2^53 compare
   equal to neighbours that hash apart. *)
let hash_exact = function
  | Value.Int i -> abs i < 1 lsl 53
  | Value.Float f -> Float.abs f < 0x1p53 || not (Float.is_integer f)
  | Value.Null | Value.Bool _ | Value.Str _ -> true

let rec compile = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (op, a, b) ->
    let fa = compile_term a and fb = compile_term b in
    fun t -> eval_cmp op (fa t) (fb t)
  | And (a, b) ->
    let fa = compile a and fb = compile b in
    fun t -> fa t && fb t
  | Or _ as p -> (
    let ds = disjuncts p in
    match key_set_of ds with
    | Some (a, vs) when List.for_all hash_exact vs ->
      (* a key set: one hash lookup per row instead of one comparison
         per key; Null never matches, as under [eval_cmp], so it stays
         out of the set *)
      let set = Value.Tbl.create (List.length vs) in
      List.iter
        (function Value.Null -> () | v -> Value.Tbl.replace set v ())
        vs;
      let get = Tuple.keyer1 a in
      fun t -> Value.Tbl.mem set (get t)
    | _ ->
      let fs = Array.of_list (List.map compile ds) in
      fun t -> Array.exists (fun f -> f t) fs)
  | Not a ->
    let fa = compile a in
    fun t -> not (fa t)

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

let rec pp_term fmt = function
  | Const v -> Value.pp fmt v
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

let to_string p = Format.asprintf "%a" pp p
