(* One flat chained table serves both kinds of key lookup: the build
   side of a hash join ({!Bag.join}, the plan compiler's join groups)
   and the persistent attribute indexes of stored tables and sources
   ([Storage.Hash_index]).

   Layout: the rows live in parallel flat arrays (the tuple, its first
   key value, and one int array holding each row's multiplicity next
   to the link to the next row under the same key), so a row is no
   record of its own and adding one allocates nothing once the arrays
   have room. The head table is a flat open-addressing int array
   (linear probing): a position holds 0 when empty, else a key's head
   row tagged with the low 31 bits of the key's hash above [head + 1].
   The tag's low bits are the home position, so growth and deletion
   move positions without reading a row, and a probe reads a row only
   on a tag match: then it compares the first key value kept beside
   the row, so a one-attribute key is matched without reading the
   row's tuple. [Value.equal] decides every match. The packing assumes
   63-bit ints.

   A counted table (an index) holds each distinct tuple once, with its
   multiplicity, and supports removal. A second open-addressing array,
   the row table, maps each tuple (by its cached hash, tagged the same
   way) to its row, so finding a tuple's row costs a tag probe however
   crowded its key. Removing a row never walks its chain: the key's
   head row gives the removed row its tuple and is freed instead, so
   the freed row is always a head, which the head table unlinks. Freed
   rows are chained through their links and reused by the next add.
   Both open-addressing arrays delete by backward shift, so neither
   needs tombstones, and an index's start at 16 positions and double
   with its keys and rows, so a key with many rows costs its rows and
   one head position.

   The per-row loops are top-level functions taking their free
   variables as arguments: without flambda, a local [let rec] that
   captures them allocates a closure on every call. *)

type t = {
  mutable build : Tuple.key;
  mutable probe : Tuple.key;
  mutable strict : bool array; (* per key component *)
  counted : bool;
  mutable rows : Tuple.t array; (* [Tuple.empty] at a free row *)
  mutable firsts : Value.t array; (* each row's first key value *)
  mutable cells : int array;
      (* row [r]'s multiplicity at [2r] and the next row under the same
         key (or -1) at [2r + 1]: one cache line for both *)
  mutable used : int; (* rows 0 .. used-1 have been handed out *)
  mutable free : int; (* freed rows, chained through their links; -1 *)
  mutable live : int; (* rows held *)
  mutable keys : int; (* distinct keys *)
  mutable idx : int array; (* 0 = empty, else [tag lsl 32 lor (head + 1)] *)
  mutable mask : int;
  mutable tidx : int array; (* counted: 0, else [tuple tag lsl 32 lor (row + 1)] *)
  mutable tmask : int;
}

let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let tag_mask = 0x7FFF_FFFF
let tagged tag r = (tag lsl slot_bits) lor (r + 1)
let slot_of v = (v land slot_mask) - 1
let home_of v mask = (v lsr slot_bits) land mask
let retarget v r = (v land lnot slot_mask) lor (r + 1)
let tuple_tag t = Tuple.hash t land tag_mask

let rec pow2_above n x = if x >= n then x else pow2_above n (2 * x)

(* A join table's head table is sized for its build; an index's
   arrays start at 16 entries and double with its keys and rows. *)
let make ~counted ~size ~build ~probe ~strict =
  let size = max 1 size in
  let icap = if counted then 16 else pow2_above (size + (size / 2)) 2 in
  {
    build;
    probe;
    strict;
    counted;
    rows = Array.make size Tuple.empty;
    firsts = Array.make size Value.Null;
    cells = Array.make (2 * size) (-1);
    used = 0;
    free = -1;
    live = 0;
    keys = 0;
    idx = Array.make icap 0;
    mask = icap - 1;
    tidx = (if counted then Array.make 16 0 else [||]);
    tmask = (if counted then 15 else 0);
  }

let create ~size ~build ~probe ~strict =
  make ~counted:false ~size ~build ~probe ~strict

let counted ~size key =
  make ~counted:true ~size ~build:key ~probe:key
    ~strict:(Array.make (Tuple.key_arity key) false)

let rec null_at strict k t i =
  i < Array.length strict
  && ((Array.unsafe_get strict i
      && match Tuple.key_value k t i with Value.Null -> true | _ -> false)
     || null_at strict k t (i + 1))

(* a one-attribute key's tag is [value_tag] of its value *)
let rec tag_from k t i acc =
  if i >= Tuple.key_arity k then acc land tag_mask
  else tag_from k t (i + 1) ((acc * 31) + Value.hash (Tuple.key_value k t i))

let key_tag k t = tag_from k t 0 7

(* a key's first value; an empty key (a cascade step sharing no
   attribute) has none, so all its rows share one key, under [Null] *)
let first_of k t = if Tuple.key_arity k = 0 then Value.Null else Tuple.key_value k t 0
let value_tag v = ((7 * 31) + Value.hash v) land tag_mask

let rec equal_from ka ta kb tb i =
  i >= Tuple.key_arity ka
  || Value.equal (Tuple.key_value ka ta i) (Tuple.key_value kb tb i)
     && equal_from ka ta kb tb (i + 1)

(* row [r]'s key is [t]'s (read through [k], [first] its first value):
   the first values are compared in [firsts], so a one-attribute key
   never reads the row's tuple *)
let key_equal tbl k t first r =
  let v = Array.unsafe_get tbl.firsts r in
  (v == first || Value.equal first v)
  && (Tuple.key_arity k <= 1 || equal_from k t tbl.build (Array.unsafe_get tbl.rows r) 1)

(* the head-table position holding the key of [t] (read through [k],
   [first] its first value), or the empty position where it would go *)
let rec pos_from tbl k t first tag i =
  let v = Array.unsafe_get tbl.idx i in
  if v = 0 then i
  else if v lsr slot_bits = tag && key_equal tbl k t first (slot_of v) then i
  else pos_from tbl k t first tag ((i + 1) land tbl.mask)

(* [pos_from] for a one-attribute key given by its value *)
let rec value_pos_from tbl value tag i =
  let v = Array.unsafe_get tbl.idx i in
  if v = 0 then i
  else if
    v lsr slot_bits = tag && Value.equal value (Array.unsafe_get tbl.firsts (slot_of v))
  then i
  else value_pos_from tbl value tag ((i + 1) land tbl.mask)

(* the row-table position holding [t] in a counted table, or [lnot]
   the empty position where it would go *)
let rec row_from tidx tmask rows t tag i =
  let v = Array.unsafe_get tidx i in
  if v = 0 then lnot i
  else if v lsr slot_bits = tag then
    let u = Array.unsafe_get rows (slot_of v) in
    if u == t || Tuple.equal u t then i
    else row_from tidx tmask rows t tag ((i + 1) land tmask)
  else row_from tidx tmask rows t tag ((i + 1) land tmask)

(* the position of row [r], which the caller guarantees is entered,
   searched from its home [i] *)
let rec row_pos_from idx mask r1 i =
  if Array.unsafe_get idx i land slot_mask = r1 then i
  else row_pos_from idx mask r1 ((i + 1) land mask)

let row_pos tbl r t =
  row_pos_from tbl.tidx tbl.tmask (r + 1) (tuple_tag t land tbl.tmask)

let rec insert_from idx mask v i =
  if Array.unsafe_get idx i = 0 then Array.unsafe_set idx i v
  else insert_from idx mask v ((i + 1) land mask)

(* Empty position [hole], shifting the tail of its probe cluster back
   so linear probing stays tombstone-free: an entry at [j] may fill the
   hole iff its home lies cyclically at or before the hole. *)
let rec delete_from idx mask hole j =
  let j = (j + 1) land mask in
  let v = Array.unsafe_get idx j in
  if v = 0 then Array.unsafe_set idx hole 0
  else if (j - home_of v mask) land mask >= (j - hole) land mask then begin
    Array.unsafe_set idx hole v;
    delete_from idx mask j j
  end
  else delete_from idx mask hole j

(* twice the positions, rehashed from the tags alone: no row is read *)
let rehash old =
  let icap = 2 * Array.length old in
  let idx = Array.make icap 0 in
  let mask = icap - 1 in
  for p = 0 to Array.length old - 1 do
    let v = Array.unsafe_get old p in
    if v <> 0 then insert_from idx mask v (home_of v mask)
  done;
  idx

let mult tbl r = Array.unsafe_get tbl.cells (2 * r)
let next tbl r = Array.unsafe_get tbl.cells ((2 * r) + 1)
let set_mult tbl r m = tbl.cells.(2 * r) <- m
let set_next tbl r n = tbl.cells.((2 * r) + 1) <- n

let grow_rows tbl =
  let widen a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  tbl.rows <- widen tbl.rows Tuple.empty;
  tbl.firsts <- widen tbl.firsts Value.Null;
  tbl.cells <- widen tbl.cells (-1)

(* a row to fill: a freed one, else the next unused *)
let take_row tbl =
  if tbl.free >= 0 then begin
    let r = tbl.free in
    tbl.free <- next tbl r;
    r
  end
  else begin
    if tbl.used = Array.length tbl.rows then grow_rows tbl;
    tbl.used <- tbl.used + 1;
    tbl.used - 1
  end

(* A new row: the head of its key's chain. In a counted table [t] is
   absent, and [q] is the row-table position where it goes, or -1 *)
let add_row tbl t m q =
  let tag = key_tag tbl.build t and first = first_of tbl.build t in
  if (tbl.keys + 1) * 4 > (tbl.mask + 1) * 3 then begin
    tbl.idx <- rehash tbl.idx;
    tbl.mask <- Array.length tbl.idx - 1
  end;
  let p = pos_from tbl tbl.build t first tag (tag land tbl.mask) in
  let r = take_row tbl in
  let head = slot_of (Array.unsafe_get tbl.idx p) in
  if head < 0 then tbl.keys <- tbl.keys + 1;
  tbl.rows.(r) <- t;
  tbl.firsts.(r) <- first;
  set_mult tbl r m;
  set_next tbl r head;
  Array.unsafe_set tbl.idx p (tagged tag r);
  tbl.live <- tbl.live + 1;
  if tbl.counted then begin
    let ttag = tuple_tag t in
    if tbl.live * 4 > (tbl.tmask + 1) * 3 then begin
      tbl.tidx <- rehash tbl.tidx;
      tbl.tmask <- Array.length tbl.tidx - 1;
      insert_from tbl.tidx tbl.tmask (tagged ttag r) (ttag land tbl.tmask)
    end
    else if q >= 0 then Array.unsafe_set tbl.tidx q (tagged ttag r)
    else insert_from tbl.tidx tbl.tmask (tagged ttag r) (ttag land tbl.tmask)
  end

let add tbl t m = if not (null_at tbl.strict tbl.build t 0) then add_row tbl t m (-1)

let find tbl t =
  if null_at tbl.strict tbl.probe t 0 then -1
  else
    let tag = key_tag tbl.probe t in
    slot_of
      (Array.unsafe_get tbl.idx
         (pos_from tbl tbl.probe t (first_of tbl.probe t) tag (tag land tbl.mask)))

let find_value tbl v =
  let tag = value_tag v in
  slot_of (Array.unsafe_get tbl.idx (value_pos_from tbl v tag (tag land tbl.mask)))

(* Remove the row of [t], entered at row-table position [q]. The
   key's head row [h] gives that row its tuple when they differ, so [h]
   is the row freed, and a head unlinks at the head table, without a
   walk down the chain. *)
let remove_row tbl t q =
  let r = slot_of (Array.unsafe_get tbl.tidx q) in
  delete_from tbl.tidx tbl.tmask q q;
  let tag = key_tag tbl.build t in
  let p = pos_from tbl tbl.build t (first_of tbl.build t) tag (tag land tbl.mask) in
  let h = slot_of (Array.unsafe_get tbl.idx p) in
  if h <> r then begin
    let u = tbl.rows.(h) in
    tbl.rows.(r) <- u;
    tbl.firsts.(r) <- tbl.firsts.(h);
    set_mult tbl r (mult tbl h);
    let q = row_pos tbl h u in
    Array.unsafe_set tbl.tidx q (retarget (Array.unsafe_get tbl.tidx q) r)
  end;
  let n = next tbl h in
  if n >= 0 then Array.unsafe_set tbl.idx p (retarget (Array.unsafe_get tbl.idx p) n)
  else begin
    delete_from tbl.idx tbl.mask p p;
    tbl.keys <- tbl.keys - 1
  end;
  tbl.rows.(h) <- Tuple.empty;
  tbl.firsts.(h) <- Value.Null;
  set_next tbl h tbl.free;
  tbl.free <- h;
  tbl.live <- tbl.live - 1

let row_find tbl t =
  let tag = tuple_tag t in
  row_from tbl.tidx tbl.tmask tbl.rows t tag (tag land tbl.tmask)

let incr tbl t m =
  let q = row_find tbl t in
  if q >= 0 then begin
    let r = slot_of (Array.unsafe_get tbl.tidx q) in
    set_mult tbl r (mult tbl r + m)
  end
  else add_row tbl t m (lnot q)

let decr tbl t m =
  let q = row_find tbl t in
  if q >= 0 then begin
    let r = slot_of (Array.unsafe_get tbl.tidx q) in
    if mult tbl r > m then set_mult tbl r (mult tbl r - m)
    else remove_row tbl t q
  end

(* Under linear probing, an entry sits in the occupied run that starts
   at its home, and backward-shift deletion keeps it so. So zeroing
   from every row's home up to the next empty position clears an
   array, in time proportional to the rows held rather than to the
   array; an array the rows fill to an eighth or more is zeroed whole,
   which costs less than recomputing their homes. *)
let rec zero_run idx mask p =
  if Array.unsafe_get idx p <> 0 then begin
    Array.unsafe_set idx p 0;
    zero_run idx mask ((p + 1) land mask)
  end

let sparse tbl a = tbl.live * 8 < Array.length a

let clear tbl =
  let key_runs = sparse tbl tbl.idx and row_runs = tbl.counted && sparse tbl tbl.tidx in
  for r = 0 to tbl.used - 1 do
    let t = Array.unsafe_get tbl.rows r in
    if t != Tuple.empty then begin
      if key_runs then zero_run tbl.idx tbl.mask (key_tag tbl.build t land tbl.mask);
      if row_runs then zero_run tbl.tidx tbl.tmask (tuple_tag t land tbl.tmask);
      Array.unsafe_set tbl.rows r Tuple.empty;
      Array.unsafe_set tbl.firsts r Value.Null
    end
  done;
  if not key_runs then Array.fill tbl.idx 0 (Array.length tbl.idx) 0;
  if tbl.counted && not row_runs then Array.fill tbl.tidx 0 (Array.length tbl.tidx) 0;
  tbl.used <- 0;
  tbl.free <- -1;
  tbl.live <- 0;
  tbl.keys <- 0

let reset tbl ~size ~build ~probe ~strict =
  clear tbl;
  if Array.length tbl.rows < size then begin
    let fresh = make ~counted:tbl.counted ~size ~build ~probe ~strict in
    tbl.rows <- fresh.rows;
    tbl.firsts <- fresh.firsts;
    tbl.cells <- fresh.cells;
    tbl.idx <- fresh.idx;
    tbl.mask <- fresh.mask;
    tbl.tidx <- fresh.tidx;
    tbl.tmask <- fresh.tmask
  end;
  tbl.build <- build;
  tbl.probe <- probe;
  tbl.strict <- strict

let row tbl r = Array.unsafe_get tbl.rows r
let keys tbl = tbl.keys

let rec chain_length tbl r n = if r < 0 then n else chain_length tbl (next tbl r) (n + 1)

let max_chain tbl =
  let m = ref 0 in
  Array.iter (fun v -> if v <> 0 then m := max !m (chain_length tbl (slot_of v) 0)) tbl.idx;
  !m
