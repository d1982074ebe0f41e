(* Persistent tuple -> count hash map, the shared physical backing of
   {!Bag} (positive multiplicities) and of delta repositories (signed
   nonzero counts).

   Layout: a dense arena of (tuple, count) entries plus a tuple ->
   slot hash index (the compact-dictionary layout). Removal swaps the
   last entry into the freed slot, so the arena stays dense with no
   tombstones and point operations are O(1). Bulk-built maps keep
   insertion order, making iteration a sequential scan over tuples in
   allocation order — where iterating a plain hash table visits tuples
   in hash order and pays a cache miss per tuple at scale.

   Persistence uses Baker-style diff chains: the newest version owns
   the physical arena; a superseded version holds the reversing diff.
   Linear use (fold-and-update accumulator patterns) costs O(1)
   amortized per update; reading an old version reroots the arena back
   through the diffs. Iterations pin the arena: a reroot or update
   that would disturb a pinned arena builds a private copy instead, so
   callbacks may freely read or derive any version of any map. *)

type entry = { etuple : Tuple.t; mutable ecount : int }

(* The tuple -> slot index is a flat open-addressing int array (linear
   probing, backward-shift deletion): [idx.(p)] holds [slot + 1], 0
   marks an empty position. A probe costs one flat array read plus the
   entry record it resolves to — no bucket chains to chase and no
   allocation on insert. *)
type data = {
  mutable entries : entry array;
  mutable used : int; (* entries.(0 .. used-1) are populated *)
  mutable idx : int array; (* capacity a power of two, <= 3/4 full *)
  mutable mask : int; (* Array.length idx - 1 *)
  mutable pins : int;
}

type store = Data of data | Diff of Tuple.t * int * t

and t = { size : int; mutable store : store }

let dummy_entry = { etuple = Tuple.empty; ecount = 0 }

let rec pow2_above n x = if x >= n then x else pow2_above n (2 * x)

(* sized to [cap] entries, with no floor beyond one: a one-atom delta
   gets a one-entry arena, and a map that outgrows its arena doubles it
   (order-preserving) *)
let make_data cap =
  let cap = max 1 cap in
  let icap = pow2_above (cap + (cap / 2)) 2 in
  {
    entries = Array.make cap dummy_entry;
    used = 0;
    idx = Array.make icap 0;
    mask = icap - 1;
    pins = 0;
  }

let empty ?(size = 8) () = { size = 0; store = Data (make_data size) }

let size t = t.size

(* arena slot of [tuple], or -1 *)
let idx_find d tuple =
  let idx = d.idx and mask = d.mask and entries = d.entries in
  let rec go i =
    let v = Array.unsafe_get idx i in
    if v = 0 then -1
    else
      let slot = v - 1 in
      let e = Array.unsafe_get entries slot in
      if e.etuple == tuple || Tuple.equal e.etuple tuple then slot
      else go ((i + 1) land mask)
  in
  go (Tuple.hash tuple land mask)

(* caller guarantees [tuple] is absent *)
let idx_insert d tuple slot =
  let idx = d.idx and mask = d.mask in
  let rec go i =
    if Array.unsafe_get idx i = 0 then Array.unsafe_set idx i (slot + 1)
    else go ((i + 1) land mask)
  in
  go (Tuple.hash tuple land mask)

(* index position currently holding [slot]; the caller guarantees it
   exists and [tuple] is its tuple *)
let idx_pos d tuple slot =
  let idx = d.idx and mask = d.mask in
  let rec go i =
    if Array.unsafe_get idx i = slot + 1 then i else go ((i + 1) land mask)
  in
  go (Tuple.hash tuple land mask)

(* Empty position [p], shifting the tail of its probe cluster back so
   linear probing stays tombstone-free: an entry at [j] may fill the
   hole iff its home position lies cyclically at or before the hole. *)
let idx_delete d p =
  let idx = d.idx and mask = d.mask and entries = d.entries in
  let rec go hole j =
    let j = (j + 1) land mask in
    let v = Array.unsafe_get idx j in
    if v = 0 then Array.unsafe_set idx hole 0
    else
      let home = Tuple.hash entries.(v - 1).etuple land mask in
      if (j - home) land mask >= (j - hole) land mask then begin
        Array.unsafe_set idx hole v;
        go j j
      end
      else go hole j
  in
  go p p

let data_get d tuple =
  let s = idx_find d tuple in
  if s >= 0 then d.entries.(s).ecount else 0

let grow d =
  let cap = Array.length d.entries in
  if d.used = cap then begin
    let bigger = Array.make (2 * cap) dummy_entry in
    Array.blit d.entries 0 bigger 0 d.used;
    d.entries <- bigger
  end

let grow_index d =
  let icap = 2 * (d.mask + 1) in
  d.idx <- Array.make icap 0;
  d.mask <- icap - 1;
  for s = 0 to d.used - 1 do
    idx_insert d d.entries.(s).etuple s
  done

(* physical update helpers; the caller guarantees [d.pins = 0] *)

(* swap the last entry into the freed slot: dense, O(1) *)
let swap_remove d tuple i =
  let p = idx_pos d tuple i in
  let last = d.used - 1 in
  if i < last then begin
    let e = d.entries.(last) in
    d.entries.(i) <- e;
    d.idx.(idx_pos d e.etuple last) <- i + 1
  end;
  d.entries.(last) <- dummy_entry;
  d.used <- last;
  idx_delete d p

let data_append d tuple count =
  grow d;
  if (d.used + 1) * 4 > (d.mask + 1) * 3 then grow_index d;
  d.entries.(d.used) <- { etuple = tuple; ecount = count };
  idx_insert d tuple d.used;
  d.used <- d.used + 1

(* set returning the previous count, one index lookup *)
let data_exchange d tuple count =
  let s = idx_find d tuple in
  if s >= 0 then begin
    let e = d.entries.(s) in
    let old = e.ecount in
    if count <> 0 then e.ecount <- count else swap_remove d tuple s;
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
    let e = d.entries.(s) in
    let old = e.ecount in
    let c = old + m in
    if c <> 0 then e.ecount <- c else swap_remove d tuple s;
    old
  end
  else begin
    if m <> 0 then data_append d tuple m;
    0
  end

let data_set d tuple count = ignore (data_exchange d tuple count)

(* order-preserving copy with private entry records; the index array
   is position-identical, so it is copied wholesale *)
let copy_data d =
  let nentries = Array.make (Array.length d.entries) dummy_entry in
  for i = 0 to d.used - 1 do
    let e = Array.unsafe_get d.entries i in
    nentries.(i) <- { etuple = e.etuple; ecount = e.ecount }
  done;
  {
    entries = nentries;
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
      let e = Array.unsafe_get d.entries i in
      f e.etuple e.ecount
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
      let e = Array.unsafe_get d.entries i in
      acc := f e.etuple e.ecount !acc
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
              let e = Array.unsafe_get da.entries i in
              if get b e.etuple <> e.ecount then begin
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
