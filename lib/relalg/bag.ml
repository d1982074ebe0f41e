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
   keep).

   Hash joins build one kind of key table ({!Key_table}), which the
   plan compiler's join groups share: the build rows in flat arrays
   chained per key under an open-addressing index, so building a
   table allocates no per-row cell and a probe allocates nothing.
   {!join_into} streams a join into any consumer, so a caller chains
   joins without building the bags between them. *)

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

let reserve b n = Counts.reserve b.tm n
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

(* Key tables for hash joins, shared with the plan compiler ({!Plan}):
   the build side's rows in flat arrays, chained per key most recent
   first, under a flat open-addressing index of each key's head row.
   Keys compare with Value's own equality and hash, so Int 1 and
   Float 1. are one key, as they compare equal. A strict key component
   never matches Null, as a comparison never does: a row with Null
   there neither enters the table nor probes it. Elsewhere Null matches
   Null, as natural join's agreement does. Adding a row allocates
   nothing once the arrays have room, and a probe allocates nothing.
   A table emptied by [clear] serves another build ([reset]), so an
   owner that builds one per execution allocates once. *)
module Key_table = struct
  type t = {
    mutable build : Tuple.key;
    mutable probe : Tuple.key;
    mutable strict : bool array; (* per key component *)
    mutable rows : Tuple.t array;
    mutable mults : int array;
    mutable next : int array; (* the previous row under the same key, or -1 *)
    mutable hashes : int array;
    mutable used : int;
    mutable keys : int; (* distinct keys *)
    mutable idx : int array; (* 0 = empty, else a key's head row + 1 *)
    mutable mask : int;
  }

  let rec pow2_above n x = if x >= n then x else pow2_above n (2 * x)

  let create ~size ~build ~probe ~strict =
    let size = max 1 size in
    let icap = pow2_above (size + (size / 2)) 2 in
    {
      build;
      probe;
      strict;
      rows = Array.make size Tuple.empty;
      mults = Array.make size 0;
      next = Array.make size (-1);
      hashes = Array.make size 0;
      used = 0;
      keys = 0;
      idx = Array.make icap 0;
      mask = icap - 1;
    }

  (* the loops are top-level functions taking their free variables as
     arguments, so that no call allocates a closure *)
  let rec null_at strict k t i =
    i < Array.length strict
    && ((Array.unsafe_get strict i
        && match Tuple.key_value k t i with Value.Null -> true | _ -> false)
       || null_at strict k t (i + 1))

  let rec hash_from k t i acc =
    if i >= Tuple.key_arity k then acc land max_int
    else hash_from k t (i + 1) ((acc * 31) + Value.hash (Tuple.key_value k t i))

  let rec equal_from ka ta kb tb i =
    i >= Tuple.key_arity ka
    || Value.equal (Tuple.key_value ka ta i) (Tuple.key_value kb tb i)
       && equal_from ka ta kb tb (i + 1)

  (* the index position holding the key of [t] (read through [k]), or
     the empty position where it would go *)
  let rec pos_from tbl k t h i =
    let v = Array.unsafe_get tbl.idx i in
    if v = 0 then i
    else
      let r = v - 1 in
      if
        Array.unsafe_get tbl.hashes r = h
        && equal_from k t tbl.build (Array.unsafe_get tbl.rows r) 0
      then i
      else pos_from tbl k t h ((i + 1) land tbl.mask)

  let rec empty_from idx mask i =
    if Array.unsafe_get idx i = 0 then i else empty_from idx mask ((i + 1) land mask)

  let grow_index tbl =
    let old = tbl.idx in
    let icap = 2 * Array.length old in
    let idx = Array.make icap 0 in
    let mask = icap - 1 in
    for p = 0 to Array.length old - 1 do
      let v = Array.unsafe_get old p in
      if v <> 0 then
        Array.unsafe_set idx
          (empty_from idx mask (Array.unsafe_get tbl.hashes (v - 1) land mask))
          v
    done;
    tbl.idx <- idx;
    tbl.mask <- mask

  let grow_rows tbl =
    let cap = Array.length tbl.rows in
    let widen a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    tbl.rows <- widen tbl.rows Tuple.empty;
    tbl.mults <- widen tbl.mults 0;
    tbl.next <- widen tbl.next (-1);
    tbl.hashes <- widen tbl.hashes 0

  let add tbl t m =
    if not (null_at tbl.strict tbl.build t 0) then begin
      let h = hash_from tbl.build t 0 7 in
      if tbl.used = Array.length tbl.rows then grow_rows tbl;
      if (tbl.keys + 1) * 4 > (tbl.mask + 1) * 3 then grow_index tbl;
      let p = pos_from tbl tbl.build t h (h land tbl.mask) in
      let r = tbl.used in
      let v = Array.unsafe_get tbl.idx p in
      if v = 0 then tbl.keys <- tbl.keys + 1;
      tbl.rows.(r) <- t;
      tbl.mults.(r) <- m;
      tbl.hashes.(r) <- h;
      tbl.next.(r) <- v - 1;
      Array.unsafe_set tbl.idx p (r + 1);
      tbl.used <- r + 1
    end

  let find tbl t =
    if null_at tbl.strict tbl.probe t 0 then -1
    else
      let h = hash_from tbl.probe t 0 7 in
      Array.unsafe_get tbl.idx (pos_from tbl tbl.probe t h (h land tbl.mask)) - 1

  (* Under linear probing without deletions, a key's slot ends an
     occupied run that starts at its home slot, and a cluster's first
     slot is its key's home. So zeroing from every row's home up to the
     next empty slot clears the index, in time proportional to the rows
     held rather than to the index. *)
  let clear tbl =
    for r = 0 to tbl.used - 1 do
      let p = ref (Array.unsafe_get tbl.hashes r land tbl.mask) in
      while Array.unsafe_get tbl.idx !p <> 0 do
        Array.unsafe_set tbl.idx !p 0;
        p := (!p + 1) land tbl.mask
      done;
      Array.unsafe_set tbl.rows r Tuple.empty
    done;
    tbl.used <- 0;
    tbl.keys <- 0

  let reset tbl ~size ~build ~probe ~strict =
    clear tbl;
    if Array.length tbl.rows < size then begin
      let fresh = create ~size ~build ~probe ~strict in
      tbl.rows <- fresh.rows;
      tbl.mults <- fresh.mults;
      tbl.next <- fresh.next;
      tbl.hashes <- fresh.hashes;
      tbl.idx <- fresh.idx;
      tbl.mask <- fresh.mask
    end;
    tbl.build <- build;
    tbl.probe <- probe;
    tbl.strict <- strict

  let row tbl r = Array.unsafe_get tbl.rows r
  let mult tbl r = Array.unsafe_get tbl.mults r
  let next tbl r = Array.unsafe_get tbl.next r
end

(* Join-key planning: shared attribute names joined naturally, plus
   the equi-pairs of the theta condition that span the two sides. *)
let key_plan sa sb on =
  let shared = List.filter (fun n -> Schema.mem sb n) (Schema.attrs sa) in
  let extra_pairs =
    List.filter_map
      (fun (x, y) ->
        if Schema.mem sa x && Schema.mem sb y then Some (x, y)
        else if Schema.mem sa y && Schema.mem sb x then Some (y, x)
        else None)
      (Predicate.equi_pairs on)
  in
  (shared, extra_pairs)

let join_keys sa sb on =
  let shared, extra_pairs = key_plan sa sb on in
  (shared @ List.map fst extra_pairs, shared @ List.map snd extra_pairs)

(* every row under [xa]'s key, from row [r] down the chain *)
let rec join_chain tbl merge residual emit xa ma r =
  if r >= 0 then begin
    let xb = Key_table.row tbl r in
    if Tuple.agree merge xa xb then begin
      let merged = Tuple.merge merge xa xb in
      if residual merged then emit merged (ma * Key_table.mult tbl r)
    end;
    join_chain tbl merge residual emit xa ma (Key_table.next tbl r)
  end

(* Hash join over the physical tables: build a key table over the
   right side once, probe with each left row [scan] enumerates (in as
   many passes as it likes), and hand every merged row with its
   multiplicity to [emit]. The equi-pair components of the key are
   strict: [on] rejects a Null there anyway. *)
let join_into ?(on = Predicate.True) ?test sa scan b emit =
  let shared, extra_pairs = key_plan sa b.schema on in
  (* [test] is a compiled form of [on] supplied by the plan layer *)
  let residual =
    match test with Some f -> f | None -> Predicate.compile on
  in
  let merge = Tuple.merger () in
  if shared = [] && extra_pairs = [] then
    (* pure theta join: nested loops *)
    scan (fun xa ma ->
        Counts.iter
          (fun xb mb ->
            if Tuple.agree merge xa xb then begin
              let merged = Tuple.merge merge xa xb in
              if residual merged then emit merged (ma * mb)
            end)
          b.tm)
  else begin
    let tbl =
      Key_table.create ~size:(Counts.size b.tm)
        ~build:(Tuple.key (shared @ List.map snd extra_pairs))
        ~probe:(Tuple.key (shared @ List.map fst extra_pairs))
        ~strict:
          (Array.of_list
             (List.map (fun _ -> false) shared @ List.map (fun _ -> true) extra_pairs))
    in
    Counts.iter (Key_table.add tbl) b.tm;
    scan (fun xa ma ->
        join_chain tbl merge residual emit xa ma (Key_table.find tbl xa))
  end

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
