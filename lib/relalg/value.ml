type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr

exception Type_error of string

let tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* numerics share a tag so Int/Float compare numerically *)
  | Str _ -> 3

(* [Int x] against [Float y], exactly: a float at or past 2^62 in
   magnitude lies beyond every int, and below that truncating it to an
   int loses only its fraction, which then breaks a tie. NaN sorts
   below every number, as in [Float.compare]. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let t = Float.to_int y in
    match Int.compare x t with 0 -> Float.compare (Float.of_int t) y | c -> c

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> - compare_int_float y x
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | Str _), _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

(* cheap avalanching multiply; numeric values avoid the generic
   [Hashtbl.hash] traversal entirely *)
let int_hash i = (i + 17) * 0x9E3779B1 land max_int

let hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> int_hash i
  | Float f ->
    (* a float equal to an int hashes like it: exactly the integral
       ones in the int range *)
    if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then
      int_hash (Float.to_int f)
    else Hashtbl.hash (3, f)
  | Str s -> Hashtbl.hash s

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let type_error op a b =
  raise
    (Type_error
       (Printf.sprintf "%s: non-numeric operands (%s, %s)" op
          (match a with Null -> "null" | Bool _ -> "bool" | Int _ -> "int"
                      | Float _ -> "float" | Str _ -> "string")
          (match b with Null -> "null" | Bool _ -> "bool" | Int _ -> "int"
                      | Float _ -> "float" | Str _ -> "string")))

let arith name int_op float_op a b =
  match a, b with
  | Int x, Int y -> Int (int_op x y)
  | Float x, Float y -> Float (float_op x y)
  | Int x, Float y -> Float (float_op (float_of_int x) y)
  | Float x, Int y -> Float (float_op x (float_of_int y))
  | _ -> type_error name a b

let add a b = arith "add" ( + ) ( +. ) a b
let sub a b = arith "sub" ( - ) ( -. ) a b
let mul a b = arith "mul" ( * ) ( *. ) a b
let div a b = arith "div" ( / ) ( /. ) a b

let neg = function
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | v -> type_error "neg" v v

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

let ty_to_string = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"

let pp_ty fmt ty = Format.pp_print_string fmt (ty_to_string ty)
