open Relalg

(* Key hash tables use Value's own equality/hash so that Int 1 and
   Float 1. land in the same bucket, as they compare equal. *)
module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash key = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 key
end)

(* An index cell holds the tuples sharing one key value. Unique and
   near-unique keys (the common case) stay in the compact [One]
   representation — three words instead of a hash table per key — and
   promote to a mutable tuple -> multiplicity table only when a second
   distinct tuple arrives. Single-attribute indexes (keys, join
   attributes) additionally skip the key-list allocation via a
   Value-keyed table. *)
type cell = One of one | Many of int Tuple.Tbl.t
and one = { mutable ot : Tuple.t; mutable om : int }

type entries =
  | Single of { key1 : Tuple.t -> Value.t; stbl : cell Value.Tbl.t }
  | Multi of { key : Tuple.t -> Value.t list; mtbl : cell Key_table.t }

type t = { on : string list; entries : entries }

let make ~size on =
  match on with
  | [ a ] ->
    { on; entries = Single { key1 = Tuple.keyer1 a; stbl = Value.Tbl.create size } }
  | _ -> { on; entries = Multi { key = Tuple.keyer on; mtbl = Key_table.create size } }

let create on = make ~size:64 on
let on ix = ix.on
let is_single ix = match ix.entries with Single _ -> true | Multi _ -> false

let tbl_add tb tuple mult =
  let old = match Tuple.Tbl.find tb tuple with m -> m | exception Not_found -> 0 in
  Tuple.Tbl.replace tb tuple (old + mult)

let tbl_remove tb tuple mult =
  match Tuple.Tbl.find tb tuple with
  | exception Not_found -> ()
  | m ->
    if m > mult then Tuple.Tbl.replace tb tuple (m - mult)
    else Tuple.Tbl.remove tb tuple

let promote o tuple mult =
  let tb = Tuple.Tbl.create 8 in
  Tuple.Tbl.replace tb o.ot o.om;
  Tuple.Tbl.replace tb tuple mult;
  Many tb

let cell_iter f = function
  | One o -> f o.ot o.om
  | Many tb -> Tuple.Tbl.iter f tb

(* [One] counts update in place; new keys go through [add] (the miss
   just told us the key is absent, so no bucket walk to replace) *)
let add ix tuple mult =
  match ix.entries with
  | Single { key1; stbl } -> (
    let k = key1 tuple in
    match Value.Tbl.find stbl k with
    | exception Not_found ->
      Value.Tbl.add stbl k (One { ot = tuple; om = mult })
    | One o ->
      if Tuple.equal o.ot tuple then o.om <- o.om + mult
      else Value.Tbl.replace stbl k (promote o tuple mult)
    | Many tb -> tbl_add tb tuple mult)
  | Multi { key; mtbl } -> (
    let k = key tuple in
    match Key_table.find mtbl k with
    | exception Not_found -> Key_table.add mtbl k (One { ot = tuple; om = mult })
    | One o ->
      if Tuple.equal o.ot tuple then o.om <- o.om + mult
      else Key_table.replace mtbl k (promote o tuple mult)
    | Many tb -> tbl_add tb tuple mult)

let remove ix tuple mult =
  match ix.entries with
  | Single { key1; stbl } -> (
    let k = key1 tuple in
    match Value.Tbl.find stbl k with
    | exception Not_found -> ()
    | One o ->
      if Tuple.equal o.ot tuple then
        if o.om > mult then o.om <- o.om - mult else Value.Tbl.remove stbl k
    | Many tb ->
      tbl_remove tb tuple mult;
      if Tuple.Tbl.length tb = 0 then Value.Tbl.remove stbl k)
  | Multi { key; mtbl } -> (
    let k = key tuple in
    match Key_table.find mtbl k with
    | exception Not_found -> ()
    | One o ->
      if Tuple.equal o.ot tuple then
        if o.om > mult then o.om <- o.om - mult else Key_table.remove mtbl k
    | Many tb ->
      tbl_remove tb tuple mult;
      if Tuple.Tbl.length tb = 0 then Key_table.remove mtbl k)

let reset ix =
  match ix.entries with
  | Single { stbl; _ } -> Value.Tbl.reset stbl
  | Multi { mtbl; _ } -> Key_table.reset mtbl

(* a hash table grows past two entries per bucket, so half the distinct
   tuples is enough buckets for any number of distinct keys *)
let of_bag on bag =
  let ix = make ~size:(max 64 (Bag.support_cardinal bag / 2)) on in
  Bag.iter (add ix) bag;
  ix

let probe ix values f =
  match ix.entries, values with
  | Single { stbl; _ }, [ v ] -> (
    match Value.Tbl.find_opt stbl v with
    | None -> ()
    | Some cell -> cell_iter f cell)
  | Single _, _ ->
    invalid_arg
      (Printf.sprintf "Hash_index.probe: single-attribute index given %d values"
         (List.length values))
  | Multi { mtbl; _ }, _ -> (
    match Key_table.find_opt mtbl values with
    | None -> ()
    | Some cell -> cell_iter f cell)

let probe1 ix value f =
  match ix.entries with
  | Single { stbl; _ } -> (
    match Value.Tbl.find_opt stbl value with
    | None -> ()
    | Some cell -> cell_iter f cell)
  | Multi _ -> invalid_arg "Hash_index.probe1: multi-attribute index"

let chain = function One _ -> 1 | Many tb -> Tuple.Tbl.length tb

let distinct ix =
  match ix.entries with
  | Single { stbl; _ } -> Value.Tbl.length stbl
  | Multi { mtbl; _ } -> Key_table.length mtbl

let max_chain ix =
  match ix.entries with
  | Single { stbl; _ } -> Value.Tbl.fold (fun _ c m -> max m (chain c)) stbl 0
  | Multi { mtbl; _ } -> Key_table.fold (fun _ c m -> max m (chain c)) mtbl 0

let probe_keys values =
  List.sort_uniq Value.compare
    (List.filter (function Value.Null -> false | _ -> true) values)
