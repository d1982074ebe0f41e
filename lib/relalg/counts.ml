(* Persistent tuple -> count hash map, the shared physical backing of
   {!Bag} (positive multiplicities) and of delta repositories (signed
   nonzero counts).

   Layout: a dense arena of (tuple, count) slots plus a tuple -> slot
   hash index (the compact-dictionary layout). The arena is two
   parallel arrays, tuples and unboxed counts, so a slot is no record
   of its own: a scan reads each tuple straight from a flat array, and
   adding a tuple allocates nothing once the arena has room. Removal
   swaps the last slot into the freed one, so the arena stays dense
   with no tombstones and point operations are O(1). Bulk-built maps
   keep insertion order, making iteration a sequential scan over
   tuples in allocation order — where iterating a plain hash table
   visits tuples in hash order and pays a cache miss per tuple at
   scale.

   The index is a flat open-addressing int array (linear probing,
   backward-shift deletion). A position holds 0 when empty, else a
   tagged slot: the low 31 bits of the tuple's hash above [slot + 1].
   The tag's low bits are the home position, so deletion and index
   growth move slots without reading a tuple or rehashing one, and a
   probe reads the arena only on a tag match: an occupied position
   whose tag differs costs one flat array read. [Tuple.equal] still
   decides every match. The packing assumes 63-bit ints.

   The per-tuple loops are top-level functions taking their free
   variables as arguments: without flambda, a local [let rec] that
   captures them allocates a closure on every call.

   Persistence uses Baker-style diff chains: the newest version owns
   the physical arena; a superseded version holds the reversing diff.
   Linear use (fold-and-update accumulator patterns) costs O(1)
   amortized per update; reading an old version reroots the arena back
   through the diffs. Iterations pin the arena: a reroot or update
   that would disturb a pinned arena builds a private copy instead, so
   callbacks may freely read or derive any version of any map. *)

type data = {
  mutable tuples : Tuple.t array;
  mutable counts : int array; (* parallel to [tuples] *)
  mutable used : int; (* slots 0 .. used-1 are populated *)
  mutable idx : int array; (* capacity a power of two, <= 3/4 full *)
  mutable mask : int; (* Array.length idx - 1 *)
  mutable pins : int;
}

type store = Data of data | Diff of Tuple.t * int * t

and t = { size : int; mutable store : store }

let rec pow2_above n x = if x >= n then x else pow2_above n (2 * x)

(* sized to [cap] slots, with no floor beyond one: a one-atom delta
   gets a one-slot arena, and a map that outgrows its arena doubles it
   (order-preserving) *)
let make_data cap =
  let cap = max 1 cap in
  let icap = pow2_above (cap + (cap / 2)) 2 in
  {
    tuples = Array.make cap Tuple.empty;
    counts = Array.make cap 0;
    used = 0;
    idx = Array.make icap 0;
    mask = icap - 1;
    pins = 0;
  }

let empty ?(size = 8) () = { size = 0; store = Data (make_data size) }

let size t = t.size

(* an index position: [tag lsl slot_bits lor (slot + 1)], 0 = empty *)
let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let tag_of tuple = Tuple.hash tuple land 0x7FFF_FFFF
let tagged tag slot = (tag lsl slot_bits) lor (slot + 1)
let home_of v mask = (v lsr slot_bits) land mask

let rec find_from idx mask tuples tuple tag i =
  let v = Array.unsafe_get idx i in
  if v = 0 then -1
  else if v lsr slot_bits = tag then
    let slot = (v land slot_mask) - 1 in
    let u = Array.unsafe_get tuples slot in
    if u == tuple || Tuple.equal u tuple then slot
    else find_from idx mask tuples tuple tag ((i + 1) land mask)
  else find_from idx mask tuples tuple tag ((i + 1) land mask)

(* arena slot of [tuple], or -1 *)
let idx_find d tuple =
  let tag = tag_of tuple in
  find_from d.idx d.mask d.tuples tuple tag (tag land d.mask)

let rec insert_from idx mask v i =
  if Array.unsafe_get idx i = 0 then Array.unsafe_set idx i v
  else insert_from idx mask v ((i + 1) land mask)

(* place tagged slot [v]; the caller guarantees its tuple is absent *)
let idx_insert d v = insert_from d.idx d.mask v (home_of v d.mask)

let rec pos_from idx mask slot1 i =
  if Array.unsafe_get idx i land slot_mask = slot1 then i
  else pos_from idx mask slot1 ((i + 1) land mask)

(* index position currently holding [slot]; the caller guarantees it
   exists and [tuple] is its tuple *)
let idx_pos d tuple slot =
  pos_from d.idx d.mask (slot + 1) (tag_of tuple land d.mask)

(* Empty position [p], shifting the tail of its probe cluster back so
   linear probing stays tombstone-free: a slot at [j] may fill the
   hole iff its home position lies cyclically at or before the hole. *)
let rec delete_from idx mask hole j =
  let j = (j + 1) land mask in
  let v = Array.unsafe_get idx j in
  if v = 0 then Array.unsafe_set idx hole 0
  else if (j - home_of v mask) land mask >= (j - hole) land mask then begin
    Array.unsafe_set idx hole v;
    delete_from idx mask j j
  end
  else delete_from idx mask hole j

let idx_delete d p = delete_from d.idx d.mask p p

let data_get d tuple =
  let s = idx_find d tuple in
  if s >= 0 then d.counts.(s) else 0

let grow d =
  let cap = Array.length d.tuples in
  if d.used = cap then begin
    let tuples = Array.make (2 * cap) Tuple.empty in
    Array.blit d.tuples 0 tuples 0 d.used;
    d.tuples <- tuples;
    let counts = Array.make (2 * cap) 0 in
    Array.blit d.counts 0 counts 0 d.used;
    d.counts <- counts
  end

(* rehash from the old index's tags alone: no tuple is read *)
let grow_index d =
  let old = d.idx in
  let icap = 2 * (d.mask + 1) in
  d.idx <- Array.make icap 0;
  d.mask <- icap - 1;
  for p = 0 to Array.length old - 1 do
    let v = Array.unsafe_get old p in
    if v <> 0 then idx_insert d v
  done

(* physical update helpers; the caller guarantees [d.pins = 0] *)

(* swap the last slot into the freed one: dense, O(1) *)
let swap_remove d tuple i =
  let p = idx_pos d tuple i in
  let last = d.used - 1 in
  if i < last then begin
    let moved = d.tuples.(last) in
    d.tuples.(i) <- moved;
    d.counts.(i) <- d.counts.(last);
    (* the moved slot keeps its tag *)
    let q = idx_pos d moved last in
    d.idx.(q) <- (d.idx.(q) land lnot slot_mask) lor (i + 1)
  end;
  d.tuples.(last) <- Tuple.empty;
  d.used <- last;
  idx_delete d p

let data_append d tuple count =
  grow d;
  if (d.used + 1) * 4 > (d.mask + 1) * 3 then grow_index d;
  d.tuples.(d.used) <- tuple;
  d.counts.(d.used) <- count;
  idx_insert d (tagged (tag_of tuple) d.used);
  d.used <- d.used + 1

(* set returning the previous count, one index lookup *)
let data_exchange d tuple count =
  let s = idx_find d tuple in
  if s >= 0 then begin
    let old = d.counts.(s) in
    if count <> 0 then d.counts.(s) <- count else swap_remove d tuple s;
    old
  end
  else begin
    if count <> 0 then data_append d tuple count;
    0
  end

(* add returning the previous count, one index lookup *)
let data_add d tuple m =
  let s = idx_find d tuple in
  if s >= 0 then begin
    let old = d.counts.(s) in
    let c = old + m in
    if c <> 0 then d.counts.(s) <- c else swap_remove d tuple s;
    old
  end
  else begin
    if m <> 0 then data_append d tuple m;
    0
  end

let data_set d tuple count = ignore (data_exchange d tuple count)

(* order-preserving copy with private counts; every array is
   position-identical, so each is copied wholesale *)
let copy_data d =
  {
    tuples = Array.copy d.tuples;
    counts = Array.copy d.counts;
    used = d.used;
    idx = Array.copy d.idx;
    mask = d.mask;
    pins = 0;
  }

(* Make [t] the owner of its family's physical arena and return its
   data node. If the current owner's arena is pinned by an in-flight
   iteration, rebuild [t]'s arena as a private copy instead. *)
let reroot t =
  match t.store with
  | Data d -> d
  | Diff _ ->
    let rec path acc u =
      match u.store with
      | Data d -> (d, acc)
      | Diff (_, _, next) -> path (u :: acc) next
    in
    (* [rev_path]: owner-adjacent handle first, [t] last *)
    let d, rev_path = path [] t in
    if d.pins = 0 then begin
      List.iter
        (fun u ->
          match u.store with
          | Diff (tup, m_u, next) ->
            let cur = data_exchange d tup m_u in
            u.store <- Data d;
            next.store <- Diff (tup, cur, u)
          | Data _ -> assert false)
        rev_path;
      d
    end
    else begin
      let nd = copy_data d in
      List.iter
        (fun u ->
          match u.store with
          | Diff (tup, m_u, _) -> data_set nd tup m_u
          | Data _ -> ())
        rev_path;
      t.store <- Data nd;
      nd
    end

let get t tuple = data_get (reroot t) tuple

(* room in [t]'s arena for [n] slots without growing it: the arrays
   widen with every slot in place and the index is rehashed from its
   tags. Skipped while an iteration pins the arena: the room is only
   ever an optimization. *)
let reserve t n =
  let d = reroot t in
  if d.pins = 0 && Array.length d.tuples < n then begin
    let tuples = Array.make n Tuple.empty in
    Array.blit d.tuples 0 tuples 0 d.used;
    d.tuples <- tuples;
    let counts = Array.make n 0 in
    Array.blit d.counts 0 counts 0 d.used;
    d.counts <- counts;
    while n * 4 > (d.mask + 1) * 3 do
      grow_index d
    done
  end

let add_to t tuple m =
  if m = 0 then t
  else
    let d = reroot t in
    if d.pins = 0 then begin
      let old = data_add d tuple m in
      let count = old + m in
      let size =
        t.size + (if old = 0 then 1 else 0) - if count = 0 then 1 else 0
      in
      let nt = { size; store = Data d } in
      t.store <- Diff (tuple, old, nt);
      nt
    end
    else begin
      let nd = copy_data d in
      let old = data_add nd tuple m in
      let count = old + m in
      let size =
        t.size + (if old = 0 then 1 else 0) - if count = 0 then 1 else 0
      in
      { size; store = Data nd }
    end

(* pin [t]'s arena for the duration of a scan; the unpin runs however
   the scan ends. Written out rather than through [Fun.protect], whose
   closures would cost every scan of a one-atom delta more words than
   the atom *)
let pin t =
  let d = reroot t in
  d.pins <- d.pins + 1;
  d

let with_pinned t f =
  let d = pin t in
  match f d with
  | r ->
    d.pins <- d.pins - 1;
    r
  | exception e ->
    d.pins <- d.pins - 1;
    raise e

let iter f t =
  let d = pin t in
  match
    for i = 0 to d.used - 1 do
      f (Array.unsafe_get d.tuples i) (Array.unsafe_get d.counts i)
    done
  with
  | () -> d.pins <- d.pins - 1
  | exception e ->
    d.pins <- d.pins - 1;
    raise e

let fold f t init =
  let d = pin t in
  let acc = ref init in
  match
    for i = 0 to d.used - 1 do
      acc := f (Array.unsafe_get d.tuples i) (Array.unsafe_get d.counts i) !acc
    done
  with
  | () ->
    d.pins <- d.pins - 1;
    !acc
  | exception e ->
    d.pins <- d.pins - 1;
    raise e

let bindings t =
  let l = fold (fun tup m acc -> (tup, m) :: acc) t [] in
  List.sort (fun (t1, _) (t2, _) -> Tuple.compare t1 t2) l

let equal a b =
  a.size = b.size
  && with_pinned a (fun da ->
         let ok = ref true in
         (try
            for i = 0 to da.used - 1 do
              if get b (Array.unsafe_get da.tuples i) <> Array.unsafe_get da.counts i then begin
                ok := false;
                raise Exit
              end
            done
          with Exit -> ());
         !ok)

(* Mutable accumulation of a fresh map, sealed into a persistent value
   in O(1): algebra operators build their result here and never pay
   the diff-chain machinery. Insertion order is preserved into the
   sealed value, keeping later scans sequential. *)
module Builder = struct
  type counts = t
  type t = data

  let create ?(size = 16) () = make_data size

  let of_counts c = with_pinned c copy_data

  let get = data_get

  let add bd tuple m = if m <> 0 then ignore (data_add bd tuple m)

  let seal bd : counts = { size = bd.used; store = Data bd }
end
