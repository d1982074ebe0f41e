(* Physical layer: tuples are immutable [Value.t array]s over an
   interned schema descriptor. A descriptor fixes the attribute order
   (sorted by name) and carries an attr -> slot table; two tuples over
   the same attribute set always share the same descriptor (physical
   equality), so equality/compare/hash never touch attribute names on
   the hot path.

   The per-tuple functions allocate only what they return. Their loops
   are top-level functions taking their free variables as arguments:
   without flambda, a local [let rec], or an [Array.map]/[Array.iter]
   callback, that captures a variable allocates a closure on every
   call. *)

module Desc = struct
  type t = {
    id : int;
    names : string array; (* sorted, distinct *)
    names_hash : int;
  }

  (* interning: one descriptor per attribute-name set, ever *)
  let intern_tbl : (string list, t) Hashtbl.t = Hashtbl.create 64
  let next_id = ref 0

  let of_sorted_names names =
    let key = Array.to_list names in
    match Hashtbl.find_opt intern_tbl key with
    | Some d -> d
    | None ->
      let d =
        { id = !next_id; names = Array.copy names; names_hash = Hashtbl.hash key }
      in
      incr next_id;
      Hashtbl.replace intern_tbl key d;
      d

  (* attr -> slot: binary search over the sorted name array; -1 when
     absent (no allocation on the hot path) *)
  let slot d name =
    let names = d.names in
    let lo = ref 0 and hi = ref (Array.length names - 1) and res = ref (-1) in
    while !res < 0 && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let c = String.compare name (Array.unsafe_get names mid) in
      if c = 0 then res := mid else if c < 0 then hi := mid - 1 else lo := mid + 1
    done;
    !res
end

type t = {
  desc : Desc.t;
  vals : Value.t array;
  mutable h : int; (* cached hash; -1 = not yet computed *)
}

let mk desc vals = { desc; vals; h = -1 }

let empty_desc = Desc.of_sorted_names [||]
let empty = mk empty_desc [||]

let of_list l =
  match l with
  | [] -> empty
  | _ ->
    (* stable sort by name, later bindings override earlier ones *)
    let arr = Array.of_list l in
    let n = Array.length arr in
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun i j ->
        let c = String.compare (fst arr.(i)) (fst arr.(j)) in
        if c <> 0 then c else Int.compare i j)
      idx;
    let names = ref [] and vals = ref [] and count = ref 0 in
    let i = ref (n - 1) in
    (* walk from the back keeping the last occurrence of each name *)
    while !i >= 0 do
      let name, v = arr.(idx.(!i)) in
      (match !names with
      | last :: _ when String.equal last name -> ()
      | _ ->
        names := name :: !names;
        vals := v :: !vals;
        incr count);
      (* skip earlier occurrences of the same name *)
      while !i >= 0 && String.equal (fst arr.(idx.(!i))) name do
        decr i
      done
    done;
    let desc = Desc.of_sorted_names (Array.of_list !names) in
    mk desc (Array.of_list !vals)

let maker names =
  let n = List.length names in
  let arr = Array.of_list names in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> String.compare arr.(i) arr.(j)) order;
  let sorted = Array.map (fun i -> arr.(i)) order in
  for i = 1 to n - 1 do
    if String.equal sorted.(i - 1) sorted.(i) then
      invalid_arg ("Tuple.maker: duplicate attribute " ^ sorted.(i))
  done;
  let desc = Desc.of_sorted_names sorted in
  (* slot.(k): where the k-th name sits in the sorted descriptor *)
  let slot = Array.make n 0 in
  Array.iteri (fun s i -> slot.(i) <- s) order;
  fun values ->
    if List.compare_length_with values n <> 0 then
      invalid_arg "Tuple.maker: value count differs from the names'";
    let vals = Array.make n Value.Null in
    List.iteri (fun k v -> vals.(slot.(k)) <- v) values;
    mk desc vals

let to_list t =
  List.init (Array.length t.vals) (fun i -> (t.desc.Desc.names.(i), t.vals.(i)))

let get t name =
  let i = Desc.slot t.desc name in
  if i >= 0 then t.vals.(i) else raise Not_found

let set t name v =
  let s = Desc.slot t.desc name in
  match s with
  | i when i >= 0 ->
    let vals = Array.copy t.vals in
    vals.(i) <- v;
    mk t.desc vals
  | _ ->
    let n = Array.length t.vals in
    let names = Array.make (n + 1) name and vals = Array.make (n + 1) v in
    let j = ref 0 in
    Array.iteri
      (fun i existing ->
        if String.compare existing name < 0 && !j = i then begin
          names.(i) <- existing;
          vals.(i) <- t.vals.(i);
          incr j
        end)
      t.desc.Desc.names;
    let j = !j in
    names.(j) <- name;
    vals.(j) <- v;
    for i = j to n - 1 do
      names.(i + 1) <- t.desc.Desc.names.(i);
      vals.(i + 1) <- t.vals.(i)
    done;
    mk (Desc.of_sorted_names names) vals

let arity t = Array.length t.vals

(* Projection plan: target descriptor plus source-slot gather map,
   resolved once per (source descriptor, attribute list). *)
let project_plan desc names =
  let sorted = Array.of_list (List.sort_uniq String.compare names) in
  let out_desc = Desc.of_sorted_names sorted in
  let slots =
    Array.map
      (fun n ->
        let i = Desc.slot desc n in
        if i < 0 then raise Not_found else i)
      sorted
  in
  (out_desc, slots)

let apply_plan (out_desc, slots) t =
  let n = Array.length slots in
  if n = 0 then mk out_desc [||]
  else begin
    let src = t.vals in
    let vals = Array.make n (Array.unsafe_get src (Array.unsafe_get slots 0)) in
    for k = 1 to n - 1 do
      Array.unsafe_set vals k (Array.unsafe_get src (Array.unsafe_get slots k))
    done;
    mk out_desc vals
  end

(* [projector] carries a one-entry memo in its closure: bag-level
   operations map tuples sharing a single descriptor, so after the
   first tuple every projection is a plain array gather. *)
let projector names =
  let cache = ref None in
  fun t ->
    let plan =
      match !cache with
      | Some (src_id, plan) when src_id = t.desc.Desc.id -> plan
      | _ ->
        let plan = project_plan t.desc names in
        cache := Some (t.desc.Desc.id, plan);
        plan
    in
    apply_plan plan t

(* Cached key-extraction plan: list of values at the named slots, in
   the given attribute order (not sorted — join key order matters). *)
let key_slots desc names =
  Array.map
    (fun n ->
      let i = Desc.slot desc n in
      if i < 0 then raise Not_found else i)
    names

let rec gather_list vals slots k acc =
  if k < 0 then acc
  else
    gather_list vals slots (k - 1)
      (Array.unsafe_get vals (Array.unsafe_get slots k) :: acc)

let keyer names =
  let names = Array.of_list names in
  let cache = ref None in
  fun t ->
    let slots =
      match !cache with
      | Some (src_id, slots) when src_id = t.desc.Desc.id -> slots
      | _ ->
        let slots = key_slots t.desc names in
        cache := Some (t.desc.Desc.id, slots);
        slots
    in
    gather_list t.vals slots (Array.length slots - 1) []

(* single-attribute key extraction (the common join case): no list
   allocation at all *)
let keyer1 name =
  let cache = ref None in
  fun t ->
    let slot =
      match !cache with
      | Some (src_id, slot) when src_id = t.desc.Desc.id -> slot
      | _ ->
        let i = Desc.slot t.desc name in
        if i < 0 then raise Not_found;
        cache := Some (t.desc.Desc.id, i);
        i
    in
    t.vals.(slot)

(* Rename plan: renaming re-sorts the attribute order, so the plan is
   a target descriptor plus a source-slot gather map, resolved once
   per (source descriptor, mapping). One-entry memo as for projector:
   bag-wide renames stream tuples over a single descriptor. *)
let rename_plan desc mapping =
  let n = Array.length desc.Desc.names in
  let renamed =
    Array.init n (fun i ->
        let name = desc.Desc.names.(i) in
        ( (match List.assoc_opt name mapping with
          | Some fresh -> fresh
          | None -> name),
          i ))
  in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) renamed;
  for i = 1 to n - 1 do
    if String.equal (fst renamed.(i - 1)) (fst renamed.(i)) then
      invalid_arg "Tuple.renamer: mapping collapses two attributes"
  done;
  let out_desc = Desc.of_sorted_names (Array.map fst renamed) in
  (out_desc, Array.map snd renamed)

let renamer mapping =
  let cache = ref None in
  fun t ->
    let plan =
      match !cache with
      | Some (src_id, plan) when src_id = t.desc.Desc.id -> plan
      | _ ->
        let plan = rename_plan t.desc mapping in
        cache := Some (t.desc.Desc.id, plan);
        plan
    in
    apply_plan plan t

(* Merge plan for natural-join concatenation of two descriptors:
   target descriptor, per-slot source (left slot or right slot), and
   the shared slots whose values must agree. *)
type merge_plan = {
  mp_out : Desc.t;
  mp_take : int array; (* slot i of output: left j if >= 0, right (-j-1) *)
  mp_shared : (int * int) array; (* (left slot, right slot) to check *)
}

let merge_plan da db =
  let la = da.Desc.names and lb = db.Desc.names in
  let out = ref [] and take = ref [] and shared = ref [] in
  let i = ref 0 and j = ref 0 in
  let na = Array.length la and nb = Array.length lb in
  while !i < na || !j < nb do
    if !i >= na then begin
      out := lb.(!j) :: !out;
      take := (- !j - 1) :: !take;
      incr j
    end
    else if !j >= nb then begin
      out := la.(!i) :: !out;
      take := !i :: !take;
      incr i
    end
    else
      let c = String.compare la.(!i) lb.(!j) in
      if c < 0 then begin
        out := la.(!i) :: !out;
        take := !i :: !take;
        incr i
      end
      else if c > 0 then begin
        out := lb.(!j) :: !out;
        take := (- !j - 1) :: !take;
        incr j
      end
      else begin
        out := la.(!i) :: !out;
        take := !i :: !take;
        shared := (!i, !j) :: !shared;
        incr i;
        incr j
      end
  done;
  {
    mp_out = Desc.of_sorted_names (Array.of_list (List.rev !out));
    mp_take = Array.of_list (List.rev !take);
    mp_shared = Array.of_list (List.rev !shared);
  }

(* do [va] and [vb] agree on every shared slot pair from [k] on? *)
let rec agree shared va vb k =
  k >= Array.length shared
  ||
  let i, j = Array.unsafe_get shared k in
  Value.equal (Array.unsafe_get va i) (Array.unsafe_get vb j)
  && agree shared va vb (k + 1)

(* [merger] carries a one-entry memo in its closure, as [projector]
   does: a join merges many tuple pairs over the same two
   descriptors *)
let merger () =
  let cache = ref None in
  fun a b ->
    let plan =
      match !cache with
      | Some (ia, ib, plan) when ia = a.desc.Desc.id && ib = b.desc.Desc.id ->
        plan
      | _ ->
        let plan = merge_plan a.desc b.desc in
        cache := Some (a.desc.Desc.id, b.desc.Desc.id, plan);
        plan
    in
    if not (agree plan.mp_shared a.vals b.vals 0) then None
    else begin
      let take = plan.mp_take in
      let n = Array.length take in
      let vals = Array.make n Value.Null in
      for s = 0 to n - 1 do
        let t = Array.unsafe_get take s in
        Array.unsafe_set vals s
          (if t >= 0 then Array.unsafe_get a.vals t
           else Array.unsafe_get b.vals (-t - 1))
      done;
      Some (mk plan.mp_out vals)
    end

(* a schema's slot plan for type checks: its descriptor and
   slot-ordered types, kept by the bag that checks *)
type shape = { sh_desc : Desc.t; sh_tys : Value.ty array }

let shape schema =
  let typed =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Schema.typed_attrs schema)
  in
  {
    sh_desc = Desc.of_sorted_names (Array.of_list (List.map fst typed));
    sh_tys = Array.of_list (List.map snd typed);
  }

let ty_matches v ty =
  match v, ty with
  | Value.Null, _ -> true
  | Value.Bool _, Value.TBool
  | Value.Int _, Value.TInt
  | Value.Float _, Value.TFloat
  | Value.Str _, Value.TStr ->
    true
  | (Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _), _ -> false

let rec tys_match vals tys i =
  i >= Array.length tys
  || (ty_matches (Array.unsafe_get vals i) (Array.unsafe_get tys i)
     && tys_match vals tys (i + 1))

let fits { sh_desc; sh_tys } t = t.desc == sh_desc && tys_match t.vals sh_tys 0

(* [va] and [vb] have one length: that of their shared descriptor *)
let rec compare_vals va vb i =
  if i >= Array.length va then 0
  else
    let c = Value.compare (Array.unsafe_get va i) (Array.unsafe_get vb i) in
    if c <> 0 then c else compare_vals va vb (i + 1)

let compare a b =
  if a == b then 0
  else if a.desc == b.desc then
    (* same attribute set: compare values in slot (= name) order,
       exactly the old string-map ordering *)
    compare_vals a.vals b.vals 0
  else begin
    (* differing attribute sets: merge-walk as sorted (name, value)
       association sequences, mirroring [Map.compare] *)
    let na = arity a and nb = arity b in
    let rec go i j =
      if i >= na && j >= nb then 0
      else if i >= na then -1
      else if j >= nb then 1
      else
        let c = String.compare a.desc.Desc.names.(i) b.desc.Desc.names.(j) in
        if c <> 0 then c
        else
          let c = Value.compare a.vals.(i) b.vals.(j) in
          if c <> 0 then c else go (i + 1) (j + 1)
    in
    go 0 0
  end

let rec equal_vals va vb i =
  i >= Array.length va
  || (Value.equal (Array.unsafe_get va i) (Array.unsafe_get vb i)
     && equal_vals va vb (i + 1))

let equal a b = a == b || (a.desc == b.desc && equal_vals a.vals b.vals 0)

let rec hash_vals vals acc i =
  if i >= Array.length vals then acc
  else hash_vals vals ((acc * 31) + Value.hash (Array.unsafe_get vals i)) (i + 1)

let hash t =
  if t.h >= 0 then t.h
  else begin
    let h = hash_vals t.vals t.desc.Desc.names_hash 0 land max_int in
    t.h <- h;
    h
  end

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt (k, v) -> Format.fprintf fmt "%s=%a" k Value.pp v))
    (to_list t)

let to_string t = Format.asprintf "%a" pp t

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
