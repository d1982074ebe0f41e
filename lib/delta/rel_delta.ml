open Relalg

type t = { schema : Schema.t; muls : Counts.t }
(* invariant: all stored multiplicities are nonzero *)

exception Delta_error of string

let err fmt = Format.kasprintf (fun s -> raise (Delta_error s)) fmt

let relabel schema d = { d with schema }

let empty schema = { schema; muls = Counts.empty ~size:1 () }
let schema d = d.schema
let is_empty d = Counts.size d.muls = 0

let add_signed d tuple mult =
  if mult = 0 then d else { d with muls = Counts.add_to d.muls tuple mult }

let insert ?(mult = 1) d tuple =
  if mult <= 0 then err "insert: multiplicity %d must be positive" mult;
  add_signed d tuple mult

let delete ?(mult = 1) d tuple =
  if mult <= 0 then err "delete: multiplicity %d must be positive" mult;
  add_signed d tuple (-mult)

let of_bags ~ins ~del =
  if not (Schema.union_compatible (Bag.schema ins) (Bag.schema del)) then
    err "of_bags: incompatible schemas";
  let d =
    {
      schema = Bag.schema ins;
      muls =
        Counts.empty ~size:(Bag.support_cardinal ins + Bag.support_cardinal del) ();
    }
  in
  let d = Bag.fold (fun t m acc -> add_signed acc t m) ins d in
  Bag.fold (fun t m acc -> add_signed acc t (-m)) del d

let of_diff ~old_bag ~new_bag =
  of_bags ~ins:(Bag.monus new_bag old_bag) ~del:(Bag.monus old_bag new_bag)

let insertions d =
  Counts.fold
    (fun t m acc -> if m > 0 then Bag.add ~mult:m acc t else acc)
    d.muls (Bag.empty d.schema)

let deletions d =
  Counts.fold
    (fun t m acc -> if m < 0 then Bag.add ~mult:(-m) acc t else acc)
    d.muls (Bag.empty d.schema)

let signed_mult d tuple = Counts.get d.muls tuple

let atom_count d = Counts.fold (fun _ m acc -> acc + abs m) d.muls 0
let support_cardinal d = Counts.size d.muls

let apply ?(strict = false) bag d =
  Counts.fold
    (fun tuple m bag ->
      if m > 0 then begin
        if strict && Schema.key (Bag.schema bag) <> [] && Bag.mem bag tuple
        then err "apply: redundant insertion of %s" (Tuple.to_string tuple);
        Bag.add ~mult:m bag tuple
      end
      else begin
        if strict && Bag.mult bag tuple < -m then
          err "apply: redundant deletion of %s (mult %d, deleting %d)"
            (Tuple.to_string tuple) (Bag.mult bag tuple) (-m);
        Bag.remove ~mult:(-m) bag tuple
      end)
    d.muls bag

let smash d1 d2 =
  Counts.fold (fun t m acc -> add_signed acc t m) d2.muls d1

let inverse d =
  let out = Counts.Builder.create ~size:(Counts.size d.muls) () in
  Counts.iter (fun t m -> Counts.Builder.add out t (-m)) d.muls;
  { d with muls = Counts.Builder.seal out }

let filter test d =
  let out = Counts.Builder.create ~size:(Counts.size d.muls) () in
  Counts.iter (fun t m -> if test t then Counts.Builder.add out t m) d.muls;
  { d with muls = Counts.Builder.seal out }

(* an empty delta (the common unseen delta of ECA) skips compiling *)
let select p d =
  match p with
  | Predicate.True -> d
  | p -> if is_empty d then d else filter (Predicate.compile p) d

let transform schema f d =
  let out = Counts.Builder.create ~size:(Counts.size d.muls) () in
  Counts.iter
    (fun tuple m ->
      match f tuple with
      | Some tuple' -> Counts.Builder.add out tuple' m
      | None -> ())
    d.muls;
  { schema; muls = Counts.Builder.seal out }

let project names d =
  let schema = Schema.project d.schema names in
  let proj = Tuple.projector names in
  let out = Counts.Builder.create ~size:(Counts.size d.muls) () in
  (* counts of coinciding images accumulate; zero sums drop out *)
  Counts.iter (fun tuple m -> Counts.Builder.add out (proj tuple) m) d.muls;
  { schema; muls = Counts.Builder.seal out }

let collect schema ~size produce =
  let out = Counts.Builder.create ~size () in
  produce (Counts.Builder.add out);
  { schema; muls = Counts.Builder.seal out }

let join_bag ?on ?test d bag =
  {
    schema = Schema.join d.schema (Bag.schema bag);
    muls = Bag.join_signed ?on ?test d.schema d.muls bag;
  }

(* Signed join of two deltas: multiplicities multiply, so the four
   insertion/deletion quadrants carry sign (+ - - +). Both operands
   are deltas, so the quadrant joins are delta-sized. *)
let join ?on ?test d1 d2 =
  let schema = Schema.join d1.schema d2.schema in
  let ins1 = insertions d1 and del1 = deletions d1 in
  let ins2 = insertions d2 and del2 = deletions d2 in
  let add sign j acc =
    Bag.fold (fun t m acc -> add_signed acc t (sign * m)) j acc
  in
  empty schema
  |> add 1 (Bag.join ?on ?test ins1 ins2)
  |> add (-1) (Bag.join ?on ?test ins1 del2)
  |> add (-1) (Bag.join ?on ?test del1 ins2)
  |> add 1 (Bag.join ?on ?test del1 del2)

let fold f d init = Counts.fold f d.muls init

let equal a b =
  Schema.union_compatible a.schema b.schema && Counts.equal a.muls b.muls

let pp fmt d =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (t, m) ->
         Format.fprintf fmt "%s%d*%a" (if m > 0 then "+" else "-") (abs m)
           Tuple.pp t))
    (Counts.bindings d.muls)
