open Relalg

(* An index cell holds the tuples sharing one key value. Unique and
   near-unique keys (the common case) stay in the compact [One]
   representation — three words instead of a hash table per key — and
   promote to a mutable tuple -> multiplicity table only when a second
   distinct tuple arrives. The key table uses Value's own equality and
   hash, so Int 1 and Float 1. land in the same bucket, as they compare
   equal. *)
type cell = One of one | Many of int Tuple.Tbl.t
and one = { mutable ot : Tuple.t; mutable om : int }

type t = { on : string; key : Tuple.t -> Value.t; tbl : cell Value.Tbl.t }

let make ~size on = { on; key = Tuple.keyer1 on; tbl = Value.Tbl.create size }
let create on = make ~size:64 on
let on ix = ix.on

let tbl_add tb tuple mult =
  let old = match Tuple.Tbl.find tb tuple with m -> m | exception Not_found -> 0 in
  Tuple.Tbl.replace tb tuple (old + mult)

let tbl_remove tb tuple mult =
  match Tuple.Tbl.find tb tuple with
  | exception Not_found -> ()
  | m ->
    if m > mult then Tuple.Tbl.replace tb tuple (m - mult)
    else Tuple.Tbl.remove tb tuple

(* [tuple] differs from the cell's, so neither needs a bucket walk *)
let promote o tuple mult =
  let tb = Tuple.Tbl.create 8 in
  Tuple.Tbl.add tb o.ot o.om;
  Tuple.Tbl.add tb tuple mult;
  Many tb

let cell_iter f = function
  | One o -> f o.ot o.om
  | Many tb -> Tuple.Tbl.iter f tb

(* [One] counts update in place; new keys go through [add] (the miss
   just told us the key is absent, so no bucket walk to replace) *)
let add ix tuple mult =
  let k = ix.key tuple in
  match Value.Tbl.find ix.tbl k with
  | exception Not_found -> Value.Tbl.add ix.tbl k (One { ot = tuple; om = mult })
  | One o ->
    if Tuple.equal o.ot tuple then o.om <- o.om + mult
    else Value.Tbl.replace ix.tbl k (promote o tuple mult)
  | Many tb -> tbl_add tb tuple mult

let remove ix tuple mult =
  let k = ix.key tuple in
  match Value.Tbl.find ix.tbl k with
  | exception Not_found -> ()
  | One o ->
    if Tuple.equal o.ot tuple then
      if o.om > mult then o.om <- o.om - mult else Value.Tbl.remove ix.tbl k
  | Many tb ->
    tbl_remove tb tuple mult;
    if Tuple.Tbl.length tb = 0 then Value.Tbl.remove ix.tbl k

(* a hash table grows past two entries per bucket, so half the distinct
   tuples is enough buckets for any number of distinct keys. A bag's
   support holds distinct tuples, so a tuple meeting an existing cell
   is new to it: no equality test against a [One], no find in a
   [Many] *)
let of_bag on bag =
  let ix = make ~size:(max 64 (Bag.support_cardinal bag / 2)) on in
  Bag.iter
    (fun tuple mult ->
      let k = ix.key tuple in
      match Value.Tbl.find ix.tbl k with
      | exception Not_found -> Value.Tbl.add ix.tbl k (One { ot = tuple; om = mult })
      | One o -> Value.Tbl.replace ix.tbl k (promote o tuple mult)
      | Many tb -> Tuple.Tbl.add tb tuple mult)
    bag;
  ix

let probe ix value f =
  match Value.Tbl.find_opt ix.tbl value with
  | None -> ()
  | Some cell -> cell_iter f cell

let chain = function One _ -> 1 | Many tb -> Tuple.Tbl.length tb
let distinct ix = Value.Tbl.length ix.tbl
let max_chain ix = Value.Tbl.fold (fun _ c m -> max m (chain c)) ix.tbl 0
