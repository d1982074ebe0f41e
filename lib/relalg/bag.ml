(* Physical layer: a bag is a persistent tuple -> multiplicity hash
   map ({!Counts}) plus a schema and an incrementally maintained total
   multiplicity, so [add]/[remove]/[mult] and join probes are O(1)
   (amortized) and [cardinal]/[support_cardinal] are O(1).
   Algebra operators build their result in a private hash table and
   seal it, never paying the diff-chain machinery.

   A bag type-checks the tuples [add] inserts through its schema's
   slot plan ({!Tuple.shape}), resolved at the first one; the bags
   derived from it inherit it (a shape depends only on the typed
   attribute set, which [project] onto its own attributes and [retype]
   keep). *)

type t = {
  schema : Schema.t;
  mutable shape : Tuple.shape option;
  card : int;
  tm : Counts.t;
}

exception Bag_error of string

let err fmt = Format.kasprintf (fun s -> raise (Bag_error s)) fmt

let empty schema = { schema; shape = None; card = 0; tm = Counts.empty () }
let schema b = b.schema

let check_tuple schema shape tuple =
  if not (Tuple.fits shape tuple) then
    err "tuple %s does not match schema %s" (Tuple.to_string tuple)
      (Schema.to_string schema)

let shape_of b =
  match b.shape with
  | Some sh -> sh
  | None ->
    let sh = Tuple.shape b.schema in
    b.shape <- Some sh;
    sh

let add ?(mult = 1) b tuple =
  if mult <= 0 then err "add: multiplicity %d must be positive" mult;
  check_tuple b.schema (shape_of b) tuple;
  { b with card = b.card + mult; tm = Counts.add_to b.tm tuple mult }

let remove ?(mult = 1) b tuple =
  if mult <= 0 then err "remove: multiplicity %d must be positive" mult;
  let old = Counts.get b.tm tuple in
  if old = 0 then b
  else
    let removed = min mult old in
    { b with card = b.card - removed; tm = Counts.add_to b.tm tuple (-removed) }

(* internal builder: accumulate into a private arena, then seal *)
type builder = {
  bu_schema : Schema.t;
  bu_b : Counts.Builder.t;
  mutable bu_card : int;
}

let builder ?(size = 16) schema =
  { bu_schema = schema; bu_b = Counts.Builder.create ~size (); bu_card = 0 }

let badd bu tuple mult =
  Counts.Builder.add bu.bu_b tuple mult;
  bu.bu_card <- bu.bu_card + mult

let seal bu =
  let tm = Counts.Builder.seal bu.bu_b in
  { schema = bu.bu_schema; shape = None; card = bu.bu_card; tm }

let of_tuples schema tuples =
  let bu = builder ~size:(max 16 (List.length tuples)) schema in
  let shape = Tuple.shape schema in
  List.iter
    (fun t ->
      check_tuple schema shape t;
      badd bu t 1)
    tuples;
  seal bu

let mult b tuple = Counts.get b.tm tuple
let mem b tuple = mult b tuple > 0
let cardinal b = b.card
let support_cardinal b = Counts.size b.tm
let is_empty b = Counts.size b.tm = 0
let fold f b init = Counts.fold f b.tm init
let iter f b = Counts.iter f b.tm
let to_list b = Counts.bindings b.tm
let support b = List.map fst (to_list b)

let filter pred b =
  let bu = builder b.schema in
  iter (fun t m -> if pred t then badd bu t m) b;
  seal bu

(* bags are persistent, so an unfiltered selection can share its input *)
let select p b =
  match p with Predicate.True -> b | p -> filter (Predicate.compile p) b

(* tuples are keyed by attribute name, so a projection onto exactly
   the bag's own attributes, in any order, is the bag itself under the
   requested order; [Schema.project] still rejects unknown and
   duplicate names *)
let project names b =
  let schema = Schema.project b.schema names in
  if Schema.arity schema = Schema.arity b.schema then { b with schema }
  else begin
    let proj = Tuple.projector names in
    let bu = builder ~size:(max 16 (support_cardinal b)) schema in
    iter (fun t m -> badd bu (proj t) m) b;
    seal bu
  end

let retype schema b =
  let typed s = List.sort compare (Schema.typed_attrs s) in
  if typed schema <> typed b.schema then
    err "retype: schema %s does not match %s" (Schema.to_string schema)
      (Schema.to_string b.schema);
  { b with schema }

let copy b = { b with tm = Counts.Builder.seal (Counts.Builder.of_counts b.tm) }
let shares a b = a.tm == b.tm

let require_compatible op a b =
  if not (Schema.union_compatible a.schema b.schema) then
    err "%s: schemas %s and %s are not union-compatible" op
      (Schema.to_string a.schema)
      (Schema.to_string b.schema)

let union a b =
  require_compatible "union" a b;
  (* copy the bigger side, merge the smaller *)
  let big, small =
    if support_cardinal a >= support_cardinal b then (a, b) else (b, a)
  in
  let bb = Counts.Builder.of_counts big.tm in
  iter (fun t m -> Counts.Builder.add bb t m) small;
  let tm = Counts.Builder.seal bb in
  { schema = a.schema; shape = a.shape; card = a.card + b.card; tm }

let monus a b =
  require_compatible "monus" a b;
  let bb = Counts.Builder.of_counts a.tm in
  let card = ref a.card in
  iter
    (fun t m ->
      let cur = Counts.Builder.get bb t in
      let removed = min m cur in
      if removed > 0 then begin
        Counts.Builder.add bb t (-removed);
        card := !card - removed
      end)
    b;
  let tm = Counts.Builder.seal bb in
  { schema = a.schema; shape = a.shape; card = !card; tm }

let set_diff a b =
  require_compatible "set_diff" a b;
  let bu = builder a.schema in
  iter (fun t _ -> if Counts.get b.tm t = 0 then badd bu t 1) a;
  seal bu

(* Hash tables keyed by join-key values, using Value's own
   equality/hash so that e.g. Int 1 and Float 1. collide as they
   compare equal. *)
module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash key = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 key
end)

(* Join-key planning: shared attribute names joined naturally, plus
   the equi-pairs of the theta condition that span the two sides. *)
let join_keys sa sb on =
  let shared = List.filter (fun n -> Schema.mem sb n) (Schema.attrs sa) in
  let extra_pairs =
    List.filter_map
      (fun (x, y) ->
        if Schema.mem sa x && Schema.mem sb y then Some (x, y)
        else if Schema.mem sa y && Schema.mem sb x then Some (y, x)
        else None)
      (Predicate.equi_pairs on)
  in
  (shared @ List.map fst extra_pairs, shared @ List.map snd extra_pairs)

(* Hash join over the physical tables: build a key table over the
   right side once, probe with each left row [scan] enumerates (in as
   many passes as it likes), and hand every merged row with its
   multiplicity to [emit]. Keys are extracted through memoized slot
   plans, and the common single-attribute key case skips the key-list
   allocation entirely. Each key holds its rows in one cell, most
   recent first, so a probe is one lookup that allocates nothing; the
   table is presized past its resize point. *)
let join_into ?(on = Predicate.True) ?test sa scan b emit =
  let left_keys, right_keys = join_keys sa b.schema on in
  let trivially_true = on = Predicate.True in
  (* [test] is a compiled form of [on] supplied by the plan layer *)
  let residual =
    match test with Some f -> f | None -> Predicate.compile on
  in
  let merge = Tuple.merger () in
  let combine ta ma tb mb =
    match merge ta tb with
    | None -> ()
    | Some merged ->
      if trivially_true || residual merged then emit merged (ma * mb)
  in
  let rec combine_all xa ma = function
    | [] -> ()
    | (xb, mb) :: rest ->
      combine xa ma xb mb;
      combine_all xa ma rest
  in
  match left_keys, right_keys with
  | [], _ | _, [] ->
    (* pure theta join: nested loops *)
    scan (fun xa ma -> Counts.iter (fun xb mb -> combine xa ma xb mb) b.tm)
  | [ lk ], [ rk ] ->
    let key_of_b = Tuple.keyer1 rk and key_of_a = Tuple.keyer1 lk in
    let index = Value.Tbl.create (2 * max 16 (Counts.size b.tm)) in
    Counts.iter
      (fun xb mb ->
        let k = key_of_b xb in
        match Value.Tbl.find index k with
        | rows -> rows := (xb, mb) :: !rows
        | exception Not_found -> Value.Tbl.add index k (ref [ (xb, mb) ]))
      b.tm;
    scan (fun xa ma ->
        match Value.Tbl.find index (key_of_a xa) with
        | rows -> combine_all xa ma !rows
        | exception Not_found -> ())
  | _ ->
    let key_of_b = Tuple.keyer right_keys
    and key_of_a = Tuple.keyer left_keys in
    let index = Key_table.create (2 * max 16 (Counts.size b.tm)) in
    Counts.iter
      (fun xb mb ->
        let k = key_of_b xb in
        match Key_table.find index k with
        | rows -> rows := (xb, mb) :: !rows
        | exception Not_found -> Key_table.add index k (ref [ (xb, mb) ]))
      b.tm;
    scan (fun xa ma ->
        match Key_table.find index (key_of_a xa) with
        | rows -> combine_all xa ma !rows
        | exception Not_found -> ())

let join ?on ?test a b =
  let bu =
    builder ~size:(max 16 (max (support_cardinal a) (support_cardinal b)))
      (Schema.join a.schema b.schema)
  in
  join_into ?on ?test a.schema (fun f -> Counts.iter f a.tm) b (badd bu);
  seal bu

(* Signed rows against a bag in one hash join: the positive rows
   probe first, then the negative ones, so the result lists its rows
   in the order joining the two signs separately would *)
let join_signed ?on ?test sa counts b =
  let out =
    Counts.Builder.create
      ~size:(max 16 (max (Counts.size counts) (support_cardinal b)))
      ()
  in
  join_into ?on ?test sa
    (fun f ->
      Counts.iter (fun t m -> if m > 0 then f t m) counts;
      Counts.iter (fun t m -> if m < 0 then f t m) counts)
    b (Counts.Builder.add out);
  Counts.Builder.seal out

let equal a b =
  Schema.union_compatible a.schema b.schema
  && a.card = b.card
  && Counts.equal a.tm b.tm

let pp fmt b =
  Format.fprintf fmt "@[<v>%a:@,%a@]" Schema.pp b.schema
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt (t, m) ->
         if m = 1 then Tuple.pp fmt t
         else Format.fprintf fmt "%a x%d" Tuple.pp t m))
    (to_list b)
