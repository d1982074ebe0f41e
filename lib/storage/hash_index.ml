open Relalg

(* A counted {!Key_table} on one attribute: each distinct tuple is one
   row of its flat arrays, chained under its key's head, so an index
   write is a probe of the row table and a few array writes, and a
   probe walks one chain. *)
type t = { on : string; tbl : Key_table.t }

let make ~size on = { on; tbl = Key_table.counted ~size (Tuple.key [ on ]) }
let create on = make ~size:16 on
let on ix = ix.on

(* a bag's tuples are distinct, so each enters as a new row without a
   lookup; room for a quarter more rows, as {!Table.load} keeps in
   the bag, so the first writes after a load grow nothing *)
let of_bag on bag =
  let n = Bag.support_cardinal bag in
  let ix = make ~size:(n + (n / 4) + 16) on in
  Bag.iter (Key_table.add ix.tbl) bag;
  ix

let add ix tuple mult = Key_table.incr ix.tbl tuple mult
let remove ix tuple mult = Key_table.decr ix.tbl tuple mult

let rec emit_from tbl f r =
  if r >= 0 then begin
    f (Key_table.row tbl r) (Key_table.mult tbl r);
    emit_from tbl f (Key_table.next tbl r)
  end

let probe ix value f = emit_from ix.tbl f (Key_table.find_value ix.tbl value)
let distinct ix = Key_table.keys ix.tbl
let max_chain ix = Key_table.max_chain ix.tbl
