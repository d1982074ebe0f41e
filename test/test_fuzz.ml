(* Annotation-space fuzzing: the paper's framework claims ANY
   per-attribute materialized/virtual annotation yields a correct
   mediator. We sample random annotations over the three scenario
   VDPs, run randomized update/query load (with same-batch cross
   commits where applicable), and require (a) every logged query to
   pass the Sec. 3 consistency checker and (b) final answers to equal
   recomputation over the true source states. *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Correctness
open Workload

(* a uniformly random annotation over the VDP's non-leaf attributes *)
let random_annotation rng vdp =
  Annotation.of_list vdp
    (List.map
       (fun node ->
         ( node.Graph.name,
           List.map
             (fun a ->
               (a, if Random.State.bool rng then Annotation.M else Annotation.V))
             (Schema.attrs node.Graph.schema) ))
       (Graph.non_leaves vdp))

type fuzz_scenario = {
  f_name : string;
  f_make : int -> Source_db.announce_mode -> Scenario.env;
  f_rels : (string * string) list;
  f_specs : string -> Datagen.column_spec list;
  f_exports : string list;
}

let scenarios =
  [
    {
      f_name = "fig1";
      f_make = (fun seed announce -> Scenario.make_fig1 ~seed ~announce ());
      f_rels = [ ("db1", "R"); ("db2", "S") ];
      f_specs = Scenario.fig1_update_specs;
      f_exports = [ "T" ];
    };
    {
      f_name = "ex51";
      f_make = (fun seed announce -> Scenario.make_ex51 ~seed ~announce ());
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C"); ("dbD", "D") ];
      f_specs = Scenario.ex51_update_specs;
      f_exports = [ "E"; "G" ];
    };
    {
      f_name = "retail";
      f_make = (fun seed announce -> Scenario.make_retail ~seed ~announce ());
      f_rels = [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW"); ("dbCust", "Cust") ];
      f_specs = Scenario.retail_update_specs;
      f_exports = [ "AllOrders"; "Premium" ];
    };
    {
      f_name = "federated";
      f_make = (fun seed announce -> Scenario.make_federated ~seed ~announce ());
      f_rels = [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW") ];
      f_specs = Scenario.federated_update_specs;
      f_exports = [ "AllOrders" ];
    };
  ]

let fuzz_once ?(announce = Source_db.Immediate) sc ~seed ~filtering =
  let rng = Random.State.make [| seed; 0xF22 |] in
  let env = sc.f_make seed announce in
  let annotation = random_annotation rng env.Scenario.vdp in
  let med = Scenario.mediator env ~annotation () in
  if filtering then Mediator.enable_source_filtering med;
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let drv_rng = Datagen.state (seed * 7 + 1) in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng:drv_rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.17 +. (0.1 *. float_of_int (seed mod 3));
          u_count = 8;
          u_delete_fraction = 0.3;
          u_specs = sc.f_specs rel;
        })
    sc.f_rels;
  (* queries against every export while the churn runs *)
  List.iter
    (fun node ->
      let schema = (Graph.node env.Scenario.vdp node).Graph.schema in
      Driver.query_process ~rng:drv_rng ~med
        {
          Driver.q_node = node;
          q_interval = 0.61;
          q_count = 4;
          q_attr_sets = [ (Schema.attrs schema, Predicate.True) ];
        })
    sc.f_exports;
  Scenario.run_to_quiescence env med;
  (* final answers vs ground truth, one query per export *)
  let answers =
    Engine.run_process env.Scenario.engine (fun () ->
        List.map
          (fun n -> (n, (Mediator.query med ~node:n ()).Qp.tuples))
          sc.f_exports)
  in
  List.iter
    (fun (node, answer) ->
      if not (Bag.equal answer (Tutil.recompute env node)) then
        Alcotest.failf "%s seed %d (%s): final %s diverges from recompute"
          sc.f_name seed
          (Annotation.to_string annotation)
          node)
    answers;
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  if not (Checker.consistent report) then
    Alcotest.failf "%s seed %d (%s): %s" sc.f_name seed
      (Annotation.to_string annotation)
      (String.concat "; "
         (List.map (fun v -> v.Checker.v_detail) report.Checker.violations))

let fuzz_case ?announce ?(label = "") sc ~filtering =
  Alcotest.test_case
    (Printf.sprintf "%s%s%s" sc.f_name
       (if filtering then " + filtering" else "")
       label)
    `Slow
    (fun () ->
      for seed = 1 to 8 do
        fuzz_once ?announce sc ~seed ~filtering
      done)

(* ---- physical bag layer: differential testing against a naive
   reference. The array-tuple [Bag] (schema-interned descriptors,
   open-addressing count store, hash join with Value-keyed tables)
   must agree with an O(n^2) list-of-[(tuple, mult)] model on every
   operator — including Int/Float cross-type key equality, which the
   join key tables rely on for correctness. *)

module Ref_bag = struct
  (* a reference bag is a [(Tuple.t * int) list] with distinct tuples *)
  let add l tuple m =
    let rec go = function
      | [] -> if m = 0 then [] else [ (tuple, m) ]
      | (t, m') :: rest ->
        if Tuple.equal t tuple then
          let s = m' + m in
          if s = 0 then rest else (t, s) :: rest
        else (t, m') :: go rest
    in
    go l

  let mult l tuple =
    match List.find_opt (fun (t, _) -> Tuple.equal t tuple) l with
    | Some (_, m) -> m
    | None -> 0

  let of_bag b = Bag.fold (fun t m acc -> add acc t m) b []
  let union a b = List.fold_left (fun acc (t, m) -> add acc t m) a b

  let monus a b =
    List.filter_map
      (fun (t, m) ->
        let r = m - mult b t in
        if r > 0 then Some (t, r) else None)
      a

  let select p l = List.filter (fun (t, _) -> Oracle.eval_pred p t) l

  let project names l =
    let proj = Tuple.projector names in
    List.fold_left (fun acc (t, m) -> add acc (proj t) m) [] l

  (* one merger for every join of the run, driven across alternating
     descriptor pairs: each pair of tuples merges both ways round, so
     its one-entry memo changes key on every call *)
  let merge = Tuple.merger ()

  (* nested-loop join through [merge] — no hashing, so it cannot share
     a bug with the key-table path it checks. Merging the other way
     round must give the same tuple, and one schema check alternates
     between three shapes: each input tuple must fit its side's schema
     and each merged tuple the joined schema *)
  let join ~schemas:(sa, sb) on a b =
    let shapes = [| Tuple.shape sa; Tuple.shape sb; Tuple.shape (Schema.join sa sb) |] in
    let check k t =
      if not (Tuple.fits shapes.(k) t) then
        Alcotest.failf "%s does not fit its schema" (Tuple.to_string t)
    in
    List.fold_left
      (fun acc (ta, ma) ->
        List.fold_left
          (fun acc (tb, mb) ->
            check 0 ta;
            check 1 tb;
            let merged a b =
              if Tuple.agree merge a b then Some (Tuple.merge merge a b) else None
            in
            match (merged ta tb, merged tb ta) with
            | None, None -> acc
            | Some merged, Some swapped when Tuple.equal merged swapped ->
              check 2 merged;
              if Oracle.eval_pred on merged then add acc merged (ma * mb)
              else acc
            | _ ->
              Alcotest.failf "merging %s and %s depends on the order"
                (Tuple.to_string ta) (Tuple.to_string tb))
          acc b)
      [] a

  let agrees l b =
    List.length l = Bag.support_cardinal b
    && List.for_all (fun (t, m) -> Bag.mult b t = m) l
end

(* small value domains so collisions, duplicates and cross-type key
   matches (Int 2 vs Float 2.) actually happen *)
let random_value rng = function
  | Value.TInt -> Value.Int (Random.State.int rng 4)
  | Value.TFloat -> Value.Float (float_of_int (Random.State.int rng 4))
  | Value.TStr -> Value.Str (String.make 1 (Char.chr (97 + Random.State.int rng 3)))
  | Value.TBool -> Value.Bool (Random.State.bool rng)

let random_ty rng =
  match Random.State.int rng 4 with
  | 0 -> Value.TInt
  | 1 -> Value.TFloat
  | 2 -> Value.TStr
  | _ -> Value.TBool

(* one typed attribute pool per iteration; both schemas draw subsets
   of it, so shared attributes agree on types and natural join is
   well-formed *)
let random_pool rng =
  List.map (fun a -> (a, random_ty rng)) [ "a"; "b"; "c"; "d" ]

let random_schema rng pool =
  let chosen = List.filter (fun _ -> Random.State.int rng 3 < 2) pool in
  Schema.make (if chosen = [] then [ List.hd pool ] else chosen)

let random_tuple rng schema =
  Tuple.of_list
    (List.map (fun (a, ty) -> (a, random_value rng ty)) (Schema.typed_attrs schema))

let random_bag rng schema =
  let n = Random.State.int rng 10 in
  let rec go acc i =
    if i = 0 then acc
    else
      go
        (Bag.add ~mult:(1 + Random.State.int rng 3) acc (random_tuple rng schema))
        (i - 1)
  in
  go (Bag.empty schema) n

let check_agrees ~what ~seed reference bag =
  if not (Ref_bag.agrees reference bag) then
    Alcotest.failf "seed %d: Bag.%s diverges from the list reference" seed what

let diff_union_monus () =
  for seed = 1 to 120 do
    let rng = Random.State.make [| seed; 0xBA6 |] in
    let schema = random_schema rng (random_pool rng) in
    let a = random_bag rng schema and b = random_bag rng schema in
    let ra = Ref_bag.of_bag a and rb = Ref_bag.of_bag b in
    check_agrees ~what:"union" ~seed (Ref_bag.union ra rb) (Bag.union a b);
    check_agrees ~what:"monus" ~seed (Ref_bag.monus ra rb) (Bag.monus a b)
  done

let diff_project_select () =
  for seed = 1 to 120 do
    let rng = Random.State.make [| seed; 0xBA7 |] in
    let schema = random_schema rng (random_pool rng) in
    let bag = random_bag rng schema in
    let r = Ref_bag.of_bag bag in
    let attrs = Schema.attrs schema in
    let names =
      List.filteri (fun i _ -> i = 0 || Random.State.bool rng) attrs
    in
    check_agrees ~what:"project" ~seed (Ref_bag.project names r)
      (Bag.project names bag);
    let attr = List.nth attrs (Random.State.int rng (List.length attrs)) in
    (* constant of a random type: cross-type comparisons go through
       the same Value.equal on both sides, exercising select's
       short-circuit paths *)
    let p =
      Predicate.eq (Predicate.attr attr)
        (Predicate.Const (random_value rng (random_ty rng)))
    in
    check_agrees ~what:"select" ~seed (Ref_bag.select p r) (Bag.select p bag)
  done

let diff_natural_join () =
  for seed = 1 to 120 do
    let rng = Random.State.make [| seed; 0xBA8 |] in
    let pool = random_pool rng in
    let sa = random_schema rng pool and sb = random_schema rng pool in
    let a = random_bag rng sa and b = random_bag rng sb in
    let ra = Ref_bag.of_bag a and rb = Ref_bag.of_bag b in
    check_agrees ~what:"join" ~seed
      (Ref_bag.join ~schemas:(sa, sb) Predicate.True ra rb)
      (Bag.join a b)
  done

let diff_cross_type_equi_join () =
  (* A(x:int) ⋈ B(y:float) on x = y: the key tables must send Int 2
     and Float 2. to the same bucket, exactly like Value.equal *)
  let sa = Schema.make [ ("x", Value.TInt); ("u", Value.TStr) ] in
  let sb = Schema.make [ ("y", Value.TFloat); ("w", Value.TStr) ] in
  let on = Predicate.eq_attrs "x" "y" in
  for seed = 1 to 120 do
    let rng = Random.State.make [| seed; 0xBA9 |] in
    let a = random_bag rng sa and b = random_bag rng sb in
    check_agrees ~what:"join (Int/Float keys)" ~seed
      (Ref_bag.join ~schemas:(sa, sb) on (Ref_bag.of_bag a) (Ref_bag.of_bag b))
      (Bag.join ~on a b)
  done

let diff_table_delta_join () =
  (* Table.delta_join probes the persistent join-key index; it must
     equal the generic hash join against the table contents *)
  let st = Schema.make [ ("k", Value.TInt); ("q", Value.TStr) ] in
  let sd = Schema.make [ ("k", Value.TInt); ("p", Value.TStr) ] in
  for seed = 1 to 60 do
    let rng = Random.State.make [| seed; 0xBAA |] in
    let table = Storage.Table.create ~indexes:[ "k" ] ~name:"t" st in
    Storage.Table.load table (random_bag rng st);
    let d =
      let n = 1 + Random.State.int rng 8 in
      let rec go acc i =
        if i = 0 then acc
        else
          let t = random_tuple rng sd in
          let acc =
            if Random.State.bool rng then Delta.Rel_delta.insert acc t
            else Delta.Rel_delta.delete acc t
          in
          go acc (i - 1)
      in
      go (Delta.Rel_delta.empty sd) n
    in
    let generic = Delta.Rel_delta.join_bag d (Storage.Table.contents table) in
    match
      Storage.Table.delta_join table ~left:(Delta.Rel_delta.schema d) ()
    with
    | None -> Alcotest.failf "seed %d: delta_join found no index" seed
    | Some join ->
      let indexed = join d in
      if not (Delta.Rel_delta.equal indexed generic) then
        Alcotest.failf "seed %d: delta_join diverges from join_bag" seed
  done

let diff_table_delta_join_two_keys () =
  (* a join on two key pairs probes one indexed key column; the merge
     and [on] must drop the rows that disagree on the other pair,
     including Null keys, which no equi pair matches *)
  let key rng =
    if Random.State.int rng 5 = 0 then Value.Null
    else Value.Int (Random.State.int rng 3)
  in
  let tuple rng schema =
    Tuple.of_list
      (List.map
         (fun (a, ty) ->
           (a, if ty = Value.TInt then key rng else random_value rng ty))
         (Schema.typed_attrs schema))
  in
  let gen rng schema n make =
    let rec go acc i = if i = 0 then acc else go (make rng acc (tuple rng schema)) (i - 1) in
    go n (Random.State.int rng 12)
  in
  let cases =
    [
      (* two equi pairs, the probed column first or second *)
      ( Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("p", Value.TStr) ],
        Schema.make [ ("x", Value.TInt); ("y", Value.TInt); ("q", Value.TStr) ],
        Predicate.(conj [ eq_attrs "a" "x"; eq_attrs "b" "y" ]),
        [ "x" ] );
      ( Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("p", Value.TStr) ],
        Schema.make [ ("x", Value.TInt); ("y", Value.TInt); ("q", Value.TStr) ],
        Predicate.(conj [ eq_attrs "a" "x"; eq_attrs "b" "y" ]),
        [ "y" ] );
      (* a shared attribute and an equi pair, probing the equi column *)
      ( Schema.make [ ("k", Value.TInt); ("b", Value.TInt); ("p", Value.TStr) ],
        Schema.make [ ("k", Value.TInt); ("y", Value.TInt); ("q", Value.TStr) ],
        Predicate.eq_attrs "b" "y",
        [ "y" ] );
    ]
  in
  List.iteri
    (fun ci (sd, st, on, indexes) ->
      let joined = ref 0 in
      for seed = 1 to 80 do
        let rng = Random.State.make [| seed; ci; 0xBAB |] in
        let table = Storage.Table.create ~indexes ~name:"t" st in
        Storage.Table.load table
          (gen rng st (Bag.empty st) (fun rng b t ->
               Bag.add ~mult:(1 + Random.State.int rng 3) b t));
        let d =
          gen rng sd (Delta.Rel_delta.empty sd) (fun rng d t ->
              let mult = 1 + Random.State.int rng 2 in
              if Random.State.bool rng then Delta.Rel_delta.insert ~mult d t
              else Delta.Rel_delta.delete ~mult d t)
        in
        let generic =
          Delta.Rel_delta.join_bag ~on d (Storage.Table.contents table)
        in
        if not (Delta.Rel_delta.is_empty generic) then incr joined;
        match Storage.Table.delta_join table ~left:sd ~on () with
        | None -> Alcotest.failf "case %d seed %d: no indexed key column" ci seed
        | Some join ->
          let indexed = join d in
          if not (Delta.Rel_delta.equal indexed generic) then
            Alcotest.failf "case %d seed %d: delta_join diverges from join_bag"
              ci seed
      done;
      if !joined < 20 then Alcotest.failf "case %d: only %d joins matched" ci !joined)
    cases

(* The signed join of a delta with a bag, one hash join over both
   signs, against the two bag joins of its insertions and deletions:
   equal deltas, listed in the same order. Random schemas over a shared
   pool (natural joins, cross products), under no condition, an
   equi-pair or a comparison. *)
let diff_signed_join () =
  for seed = 1 to 200 do
    let rng = Random.State.make [| seed; 0xBAB |] in
    let pool = random_pool rng in
    let sd = random_schema rng pool and sb = random_schema rng pool in
    let b = random_bag rng sb in
    let d =
      List.fold_left
        (fun acc _ ->
          let t = random_tuple rng sd and mult = 1 + Random.State.int rng 2 in
          if Random.State.bool rng then Delta.Rel_delta.insert ~mult acc t
          else Delta.Rel_delta.delete ~mult acc t)
        (Delta.Rel_delta.empty sd)
        (List.init (Random.State.int rng 8) Fun.id)
    in
    let on =
      match
        (Random.State.int rng 3, Schema.attrs sd, Schema.attrs sb)
      with
      | 1, a :: _, b :: _ -> Predicate.eq_attrs a b
      | 2, a :: _, b :: _ when a <> b -> Predicate.(lt (attr a) (attr b))
      | _ -> Predicate.True
    in
    let got = Delta.Rel_delta.join_bag ~on d b
    and want = Oracle.join_bag ~on d b in
    let atoms d = Delta.Rel_delta.fold (fun t m acc -> (t, m) :: acc) d [] in
    if not (Delta.Rel_delta.equal got want && atoms got = atoms want) then
      Alcotest.failf "seed %d: signed join %a, expected %a" seed
        Delta.Rel_delta.pp got Delta.Rel_delta.pp want
  done

(* ---- Counts' index under collisions. Each index position holds the
   low 31 bits of its tuple's hash (the tag) above its arena slot; a
   probe reads the entry only on a tag match, and [Tuple.equal] decides
   it. The pool holds pairs of distinct tuples with equal tags, found
   by a birthday search, and a cluster of tuples sharing the last home
   position of every index up to 1,024 positions (so their probes wrap
   around). Random operations over persistent versions, started from a
   one-entry arena, interleave [add_to], removals to zero, arena and
   index growth, reads and updates of old versions (reroots), updates
   under a pin (private copies) and builders; every version is checked
   against its own [Hashtbl] on [get], [size], [bindings] and
   [equal]. *)

let tag_of t = Tuple.hash t land 0x7FFF_FFFF

let ab_tuple a b = Tuple.of_list [ ("a", Value.Int a); ("b", Value.Int b) ]

(* [want] pairs of distinct tuples with equal tags *)
let tag_twins ~want =
  let rng = Random.State.make [| 0x7A65 |] in
  let seen = Hashtbl.create 262_144 in
  let pairs = ref [] and found = ref 0 and tries = ref 0 in
  while !found < want && !tries < 2_000_000 do
    incr tries;
    let t = ab_tuple (Random.State.bits rng) (Random.State.bits rng) in
    match Hashtbl.find_opt seen (tag_of t) with
    | Some u when not (Tuple.equal u t) ->
      pairs := (u, t) :: !pairs;
      incr found
    | Some _ -> ()
    | None -> Hashtbl.add seen (tag_of t) t
  done;
  if !found < want then
    Alcotest.failf "birthday search found %d tag twins in %d tuples" !found !tries;
  !pairs

(* [n] tuples whose tags end in ten 1 bits: they share the last home
   position of every index of at most 1,024 positions *)
let home_cluster ~n =
  let rng = Random.State.make [| 0x4053 |] in
  let rec go acc k =
    if k = 0 then acc
    else
      let t = ab_tuple (Random.State.bits rng) (Random.State.int rng 100) in
      if tag_of t land 1023 = 1023 then go (t :: acc) (k - 1) else go acc k
  in
  go [] n

module Ref_counts = struct
  (* tuple value list -> (tuple, nonzero count) *)
  type t = ((string * Value.t) list, Tuple.t * int) Hashtbl.t

  let get (h : t) tup =
    match Hashtbl.find_opt h (Tuple.to_list tup) with Some (_, m) -> m | None -> 0

  let add (h : t) tup m =
    let c = get h tup + m in
    if c = 0 then Hashtbl.remove h (Tuple.to_list tup)
    else Hashtbl.replace h (Tuple.to_list tup) (tup, c)

  let bindings (h : t) =
    Hashtbl.fold (fun _ b acc -> b :: acc) h []
    |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

  let equal (a : t) (b : t) =
    Hashtbl.length a = Hashtbl.length b
    && Hashtbl.fold (fun _ (t, m) ok -> ok && get b t = m) a true
end

let diff_counts_collisions () =
  let twins = tag_twins ~want:3 in
  let pool =
    List.concat_map (fun (u, t) -> [ u; t ]) twins
    @ home_cluster ~n:24
    @ List.init 16 (fun i -> ab_tuple i (-i))
  in
  let pool = Array.of_list pool in
  let npool = Array.length pool in
  let same_rows a b =
    List.equal
      (fun (t1, m1) (t2, m2) -> Tuple.to_list t1 = Tuple.to_list t2 && m1 = m2)
      a b
  in
  for seed = 1 to 24 do
    let rng = Random.State.make [| seed; 0xC0 |] in
    let fail step fmt = Alcotest.failf ("seed %d, step %d: " ^^ fmt) seed step in
    let check step what (c, (h : Ref_counts.t)) =
      Array.iter
        (fun tup ->
          (* half the reads through an equal, physically distinct tuple *)
          let q = if Random.State.bool rng then tup else Tuple.of_list (Tuple.to_list tup) in
          let got = Counts.get c q and want = Ref_counts.get h tup in
          if got <> want then
            fail step "%s: get %s = %d, expected %d" what (Tuple.to_string tup) got want)
        pool;
      if Counts.size c <> Hashtbl.length h then
        fail step "%s: size %d, expected %d" what (Counts.size c) (Hashtbl.length h);
      if not (same_rows (Counts.bindings c) (Ref_counts.bindings h)) then
        fail step "%s: bindings differ" what
    in
    let pick_tuple () = pool.(Random.State.int rng npool) in
    let pick_mult () = [| -2; -1; 1; 1; 2; 3 |].(Random.State.int rng 6) in
    let versions = ref [| (Counts.empty ~size:1 (), Hashtbl.create 16) |] in
    let pick_version () =
      let vs = !versions in
      vs.(Random.State.int rng (Array.length vs))
    in
    let newest () =
      let vs = !versions in
      vs.(Array.length vs - 1)
    in
    (* keep the last 12 versions; older ones stay reachable only
       through the diff chains *)
    let record step what v =
      check step what v;
      let vs = Array.append !versions [| v |] in
      let n = Array.length vs in
      versions := if n > 12 then Array.sub vs (n - 12) 12 else vs
    in
    let derive (c, h) tup m =
      let h' = Hashtbl.copy h in
      Ref_counts.add h' tup m;
      (Counts.add_to c tup m, h')
    in
    for step = 1 to 400 do
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        (* linear use: the newest version owns the arena *)
        record step "add_to" (derive (newest ()) (pick_tuple ()) (pick_mult ()))
      | 4 -> (
        (* a removal to zero: swap-remove moves the last entry *)
        let ((_, h) as v) = pick_version () in
        match Ref_counts.bindings h with
        | [] -> ()
        | rows ->
          let tup, m = List.nth rows (Random.State.int rng (List.length rows)) in
          record step "removal" (derive v tup (-m)))
      | 5 ->
        (* an update of an old version: reroot, then branch *)
        record step "branch" (derive (pick_version ()) (pick_tuple ()) (pick_mult ()))
      | 6 -> check step "old read" (pick_version ())
      | 7 ->
        (* an update while a scan pins the arena: a private copy *)
        let ((ca, _) as a) = pick_version () in
        let b = if Random.State.bool rng then a else pick_version () in
        let out = ref None in
        Counts.iter
          (fun _ _ ->
            if Option.is_none !out then begin
              let v = derive b (pick_tuple ()) (pick_mult ()) in
              check step "pinned update" v;
              out := Some v
            end)
          ca;
        Option.iter (record step "after pin") !out;
        check step "pinned source" a
      | 8 ->
        (* a builder: from a version's copy or from one entry, grown *)
        let bd, h =
          if Random.State.bool rng then
            let c, h = pick_version () in
            (Counts.Builder.of_counts c, Hashtbl.copy h)
          else (Counts.Builder.create ~size:1 (), Hashtbl.create 16)
        in
        for _ = 1 to Random.State.int rng 40 do
          let tup = pick_tuple () and m = pick_mult () in
          Counts.Builder.add bd tup m;
          Ref_counts.add h tup m;
          if Counts.Builder.get bd tup <> Ref_counts.get h tup then
            fail step "builder get %s" (Tuple.to_string tup)
        done;
        record step "builder" (Counts.Builder.seal bd, h)
      | _ ->
        let ca, ha = pick_version () and cb, hb = pick_version () in
        if Counts.equal ca cb <> Ref_counts.equal ha hb then
          fail step "equal %b, expected %b" (Counts.equal ca cb) (Ref_counts.equal ha hb)
    done;
    Array.iter (check 401 "final") !versions
  done

let physical_cases =
  [
    Alcotest.test_case "union/monus vs reference" `Quick diff_union_monus;
    Alcotest.test_case "project/select vs reference" `Quick diff_project_select;
    Alcotest.test_case "natural join vs reference" `Quick diff_natural_join;
    Alcotest.test_case "Int/Float equi-join keys" `Quick
      diff_cross_type_equi_join;
    Alcotest.test_case "delta_join vs generic join" `Quick
      diff_table_delta_join;
    Alcotest.test_case "two-key delta_join vs generic join" `Quick
      diff_table_delta_join_two_keys;
    Alcotest.test_case "signed join vs two bag joins" `Quick diff_signed_join;
    Alcotest.test_case "counts under tag and home collisions" `Quick
      diff_counts_collisions;
  ]

let () =
  Alcotest.run "fuzz"
    [
      ("physical bag vs reference", physical_cases);
      ( "random annotations",
        List.map (fun sc -> fuzz_case sc ~filtering:false) scenarios );
      ( "random annotations + source filtering",
        List.map (fun sc -> fuzz_case sc ~filtering:true) scenarios );
      ( "random annotations + periodic announcements",
        List.map
          (fun sc ->
            fuzz_case ~announce:(Source_db.Periodic 0.9) ~label:" (periodic)"
              sc ~filtering:false)
          scenarios );
    ]
