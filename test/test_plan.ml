(* Differential fuzzing of the compiled operator plans (Plan,
   Delta_plan) against the interpretive oracles they replaced, plus
   answer-cache behavior: repeat queries hit without polling,
   committed updates maintain scan-served store answers and
   invalidate the rest, a resync flushes wholesale, and a full chaos
   run stays convergent and consistent with the cache enabled. *)

open Relalg
open Delta
open Vdp
open Sim
open Sources
open Squirrel
open Workload

let in_process env f =
  let cell = ref None in
  Engine.spawn env.Scenario.engine (fun () -> cell := Some (f ()));
  let rec go n =
    match !cell with
    | Some v -> v
    | None ->
      if n > 100_000 then Alcotest.fail "simulation did not produce a result";
      Engine.run env.Scenario.engine
        ~until:(Engine.now env.Scenario.engine +. 1.0);
      go (n + 1)
  in
  go 0

let recompute env node =
  let env_fn leaf =
    match Graph.node_opt env.Scenario.vdp leaf with
    | Some { Graph.kind = Graph.Leaf { source }; _ } ->
      Some (Adapter.current (Scenario.source env source) leaf)
    | Some _ | None -> None
  in
  Eval.eval ~env:env_fn (Graph.expanded_def env.Scenario.vdp node)

(* ---- random well-formed expressions ------------------------------------ *)

(* small value domains so collisions, duplicates and cross-type key
   matches (Int 2 vs Float 2.) actually happen *)
let random_value rng = function
  | Value.TInt -> Value.Int (Random.State.int rng 4)
  | Value.TFloat -> Value.Float (float_of_int (Random.State.int rng 4))
  | Value.TStr ->
    Value.Str (String.make 1 (Char.chr (97 + Random.State.int rng 3)))
  | Value.TBool -> Value.Bool (Random.State.bool rng)

let random_ty rng =
  match Random.State.int rng 3 with
  | 0 -> Value.TInt
  | 1 -> Value.TFloat
  | _ -> Value.TStr

(* one typed attribute pool per iteration; every schema draws a subset
   of it, so shared attributes agree on types and natural joins are
   well-formed *)
let random_pool rng =
  List.map (fun a -> (a, random_ty rng)) [ "a"; "b"; "c"; "d" ]

let random_schema rng pool =
  let chosen = List.filter (fun _ -> Random.State.int rng 3 < 2) pool in
  Schema.make (if chosen = [] then [ List.hd pool ] else chosen)

let random_tuple rng schema =
  Tuple.of_list
    (List.map (fun (a, ty) -> (a, random_value rng ty)) (Schema.typed_attrs schema))

(* a bag of up to [n] draws over [schema] *)
let sized_bag rng schema n =
  let rec go acc i =
    if i = 0 then acc
    else
      go
        (Bag.add ~mult:(1 + Random.State.int rng 3) acc (random_tuple rng schema))
        (i - 1)
  in
  go (Bag.empty schema) n

let random_bag rng schema = sized_bag rng schema (Random.State.int rng 10)

let random_bases rng =
  let pool = random_pool rng in
  List.map
    (fun name ->
      let schema = random_schema rng pool in
      (name, schema, random_bag rng schema))
    [ "P"; "Q"; "N" ]

let cmps =
  let cmp op a b = Predicate.Cmp (op, a, b) in
  [ Predicate.eq; cmp Predicate.Ne; Predicate.lt; cmp Predicate.Le; cmp Predicate.Gt;
    Predicate.ge ]

let random_pred rng schema =
  let attrs = Schema.typed_attrs schema in
  let pick () = List.nth attrs (Random.State.int rng (List.length attrs)) in
  let const ty =
    match random_value rng ty with
    | Value.Int i -> Predicate.int i
    | (Value.Float _ | Value.Str _) as v -> Predicate.Const v
    | _ -> Predicate.int 0
  in
  let rec go depth =
    if depth = 0 || Random.State.int rng 3 = 0 then begin
      let a, ty = pick () in
      let rhs =
        if Random.State.bool rng then Predicate.attr (fst (pick ()))
        else const ty
      in
      (List.nth cmps (Random.State.int rng 6)) (Predicate.attr a) rhs
    end
    else
      match Random.State.int rng 3 with
      | 0 -> Predicate.And (go (depth - 1), go (depth - 1))
      | 1 -> Predicate.Or (go (depth - 1), go (depth - 1))
      | _ -> Predicate.Not (go (depth - 1))
  in
  go (1 + Random.State.int rng 2)

(* rename targets are a function of the source attribute, so two
   branches renaming the same pool attribute agree on name AND type
   and a later natural join above them stays well-formed *)
let rename_schema s mapping =
  let ren a =
    match List.assoc_opt a mapping with Some b -> b | None -> a
  in
  Schema.make (List.map (fun (a, ty) -> (ren a, ty)) (Schema.typed_attrs s))

let rec random_expr rng bases depth =
  if depth = 0 then begin
    let name, schema, _ =
      List.nth bases (Random.State.int rng (List.length bases))
    in
    (Expr.base name, schema)
  end
  else begin
    let sub () = random_expr rng bases (depth - 1) in
    match Random.State.int rng 10 with
    | 0 | 1 ->
      let e, s = sub () in
      (Expr.select (random_pred rng s) e, s)
    | 2 | 3 ->
      let e, s = sub () in
      let attrs = List.filter (fun _ -> Random.State.bool rng) (Schema.attrs s) in
      let attrs = if attrs = [] then [ List.hd (Schema.attrs s) ] else attrs in
      (Expr.project attrs e, Schema.project s attrs)
    | 4 ->
      let e, s = sub () in
      let mapping =
        List.filter_map
          (fun a ->
            if Random.State.bool rng then Some (a, "r" ^ a) else None)
          (Schema.attrs s)
      in
      if mapping = [] then (e, s)
      else (Expr.rename mapping e, rename_schema s mapping)
    | 5 | 6 ->
      let e1, s1 = sub () in
      let e2, s2 = sub () in
      (Expr.join e1 e2, Schema.join s1 s2)
    | 7 ->
      let e1, s1 = sub () in
      let e2, s2 = sub () in
      let s = Schema.join s1 s2 in
      (Expr.join ~on:(random_pred rng s) e1 e2, s)
    | 8 ->
      let e, s = sub () in
      (Expr.union e (Expr.select (random_pred rng s) e), s)
    | _ ->
      let e, s = sub () in
      (Expr.diff e (Expr.select (random_pred rng s) e), s)
  end

let env_of_bases bases name =
  List.find_map
    (fun (n, _, b) -> if String.equal n name then Some b else None)
    bases

(* ---- compiled plans vs the interpreters -------------------------------- *)

let test_value_plans_agree () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x9A57; seed |] in
    let bases = random_bases rng in
    let env = env_of_bases bases in
    let e, _ = random_expr rng bases (1 + Random.State.int rng 3) in
    Tutil.check_bag
      (Printf.sprintf "seed %d: %s" seed (Expr.to_string e))
      (Oracle.eval_interp ~env e) (Eval.eval ~env e)
  done

let test_delta_plans_agree () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0xD17A; seed |] in
    let bases = random_bases rng in
    let env = env_of_bases bases in
    let delta_list =
      List.filter_map
        (fun (n, s, b) ->
          if Random.State.bool rng then
            Some (n, Rel_delta.of_diff ~old_bag:b ~new_bag:(random_bag rng s))
          else None)
        bases
    in
    let deltas name = List.assoc_opt name delta_list in
    let e, _ = random_expr rng bases (1 + Random.State.int rng 3) in
    let what = Printf.sprintf "seed %d: %s" seed (Expr.to_string e) in
    let compiled = Tutil.delta_of_expr ~env ~deltas e in
    Alcotest.check Tutil.rel_delta what
      (Oracle.delta_of_expr_interp ~env ~deltas e)
      compiled;
    (* the apply contract against full recomputation: old value plus
       the compiled delta is the value over the updated bases *)
    let env' name =
      match (env name, deltas name) with
      | Some b, Some d -> Some (Rel_delta.apply b d)
      | v, _ -> v
    in
    Tutil.check_bag (what ^ " (apply contract)")
      (Eval.eval ~env:env' e)
      (Rel_delta.apply (Eval.eval ~env e) compiled)
  done

let test_renamer () =
  let t =
    Tuple.of_list
      [ ("a", Value.Int 1); ("b", Value.Int 2); ("c", Value.Str "x") ]
  in
  let r = Tuple.renamer [ ("a", "z") ] in
  Alcotest.check Tutil.tuple "simple rename"
    (Tuple.of_list
       [ ("z", Value.Int 1); ("b", Value.Int 2); ("c", Value.Str "x") ])
    (r t);
  let swap = Tuple.renamer [ ("a", "b"); ("b", "a") ] in
  Alcotest.check Tutil.tuple "swap is a permutation, not a clash"
    (Tuple.of_list
       [ ("b", Value.Int 1); ("a", Value.Int 2); ("c", Value.Str "x") ])
    (swap t);
  (match Tuple.renamer [ ("a", "b") ] t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "collapsing rename should raise");
  (* the one-entry memo re-plans when the descriptor changes *)
  let t2 = Tuple.of_list [ ("a", Value.Int 5); ("d", Value.Int 6) ] in
  Alcotest.check Tutil.tuple "same closure, new descriptor"
    (Tuple.of_list [ ("z", Value.Int 5); ("d", Value.Int 6) ])
    (r t2)

(* ---- the physical join layer ------------------------------------------- *)

let charged f =
  let before = Eval.tuple_ops () in
  let r = f () in
  (r, Eval.tuple_ops () - before)

(* differential fuzz of the n-ary join executor: join groups must agree
   bag-for-bag with the interpretive oracle on random join chains — random schemas over a shared typed pool
   (cross-type Int/Float keys included), skewed multiplicities, an
   always-empty relation in the mix, and chains long enough to exercise
   multi-step cascades. A two-input group's charge pins why the
   cascade's input order moves no operation count: |A| + |B| + |out|
   whichever input it streams, plus a derived input's own fused-stage
   charges, counted once. (Every two-input chain these seeds generate
   shares a join variable; the nested loop's charge is checked by
   [test_cross_product].) *)
let test_njoin_strategies_agree () =
  for seed = 0 to 149 do
    let rng = Random.State.make [| 0x1F40; seed |] in
    let pool = random_pool rng in
    let bases =
      List.map
        (fun name ->
          let schema = random_schema rng pool in
          let bag =
            if String.equal name "E" then Bag.empty schema
            else random_bag rng schema
          in
          (name, schema, bag))
        [ "P"; "Q"; "N"; "E" ]
    in
    let env = env_of_bases bases in
    let pick () = List.nth bases (Random.State.int rng (List.length bases)) in
    let rec chain i (e, s) =
      if i = 0 then (e, s)
      else begin
        let name, s2, _ = pick () in
        let s' = Schema.join s s2 in
        let e' =
          if Random.State.int rng 3 = 0 then
            Expr.join ~on:(random_pred rng s') e (Expr.base name)
          else Expr.join e (Expr.base name)
        in
        chain (i - 1) (e', s')
      end
    in
    let name0, s0, _ = pick () in
    let e, _ = chain (1 + Random.State.int rng 3) (Expr.base name0, s0) in
    let label = Printf.sprintf "seed %d: %s" seed (Expr.to_string e) in
    let out, ops = charged (fun () -> Eval.eval ~env e) in
    Tutil.check_bag label (Oracle.eval_interp ~env e) out;
    match e with
    | Expr.Join (Expr.Join _, _, _) | Expr.Join (_, _, Expr.Join _) -> ()
    | Expr.Join (ea, _, eb) ->
      let (ba, ca), (bb, cb) =
        (charged (fun () -> Eval.eval ~env ea), charged (fun () -> Eval.eval ~env eb))
      in
      Alcotest.(check int)
        (label ^ ": two-input charge")
        (ca + cb + Bag.support_cardinal ba + Bag.support_cardinal bb
       + Bag.support_cardinal out)
        ops
    | _ -> ()
  done

(* a two-input group builds its key table over the smaller input and
   streams the larger: whichever side is larger, and whichever order
   the expression names them in, the answer is the interpreter's and
   the charge is |A| + |B| + |out| plus a derived input's own
   fused-stage charges *)
let prop_two_input_swap =
  Tutil.qtest ~count:300 "two-input group: swapped inputs agree"
    QCheck2.Gen.(triple int (int_range 0 40) (int_range 0 40))
    (fun (seed, na, nb) ->
      let rng = Random.State.make [| 0x2E1; seed |] in
      let pool = random_pool rng in
      (* both sides carry the pool's first attribute: a join variable *)
      let schema () =
        let s = random_schema rng pool in
        if Schema.mem s "a" then s
        else Schema.make (List.hd pool :: Schema.typed_attrs s)
      in
      let sa = schema () and sb = schema () in
      let bases =
        [ ("A", sa, sized_bag rng sa na); ("B", sb, sized_bag rng sb nb) ]
      in
      let env = env_of_bases bases in
      let input name s =
        if Random.State.bool rng then Expr.base name
        else Expr.select (random_pred rng s) (Expr.base name)
      in
      let ea = input "A" sa and eb = input "B" sb in
      let on =
        if Random.State.int rng 3 = 0 then random_pred rng (Schema.join sa sb)
        else Predicate.True
      in
      let (ba, ca), (bb, cb) =
        (charged (fun () -> Eval.eval ~env ea), charged (fun () -> Eval.eval ~env eb))
      in
      List.for_all
        (fun e ->
          let out, ops = charged (fun () -> Eval.eval ~env e) in
          Bag.equal (Oracle.eval_interp ~env e) out
          && ops
             = ca + cb + Bag.support_cardinal ba + Bag.support_cardinal bb
               + Bag.support_cardinal out)
        [ Expr.join ~on ea eb; Expr.join ~on eb ea ])

(* a group whose inputs share no join variable runs the nested loop,
   charging |A|·|B|: a pure cross product, and a pure theta join whose
   only condition compares attributes of different inputs *)
let test_cross_product () =
  let sa = Schema.make [ ("a", Value.TInt) ]
  and sb = Schema.make [ ("b", Value.TInt) ] in
  let bag s attr vs =
    List.fold_left
      (fun acc i -> Bag.add acc (Tuple.of_list [ (attr, Value.Int i) ]))
      (Bag.empty s) vs
  in
  let ba = bag sa "a" [ 1; 2; 5 ] and bb = bag sb "b" [ 2; 7 ] in
  let env = function "A" -> Some ba | "B" -> Some bb | _ -> None in
  List.iter
    (fun (label, e) ->
      let out, ops = charged (fun () -> Eval.eval ~env e) in
      Tutil.check_bag label (Oracle.eval_interp ~env e) out;
      Alcotest.(check int) (label ^ ": charge") 6 ops)
    [
      ("cross product", Expr.join (Expr.base "A") (Expr.base "B"));
      ( "theta join a < b",
        Expr.join
          ~on:(Predicate.lt (Predicate.attr "a") (Predicate.attr "b"))
          (Expr.base "A") (Expr.base "B") );
    ]

(* ---- the answer cache --------------------------------------------------- *)

let fault_config =
  Med.Config.make ~poll_timeout:0.5 ~poll_retries:4 ~poll_backoff:0.5 ()

let setup ?(config = Med.Config.default) () =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config ()
  in
  in_process env (fun () -> Mediator.initialize med);
  (env, med)

let commit_r env i =
  let db1 = Scenario.source env "db1" in
  let tuple =
    Tuple.of_list
      [
        ("r1", Value.Int (9000 + i));
        ("r2", Value.Int (i mod 40));
        ("r3", Value.Int (i * 10));
        ("r4", Value.Int 100);
      ]
  in
  Adapter.commit db1 (Driver.single_insert db1 "R" tuple)

let test_repeat_query_hits_cache () =
  let env, med = setup () in
  (* r3 is virtual under Example 2.3: the uncached path must poll *)
  let q () =
    in_process env (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3" ] ()).Qp.tuples)
  in
  let a1 = q () in
  let s = Mediator.stats med in
  let polls_after_first = (Obs.Metrics.value s.Med.polls) in
  Alcotest.(check bool) "first query polled" true (polls_after_first >= 1);
  let a2 = q () in
  Alcotest.(check bool) "hit recorded" true ((Obs.Metrics.value s.Med.cache_hits) >= 1);
  Alcotest.(check int) "no polls on the hit" polls_after_first (Obs.Metrics.value s.Med.polls);
  Tutil.check_bag "replayed answer equals the original" a1 a2;
  Tutil.check_bag "and equals recomputation"
    (Bag.project [ "r1"; "r3" ] (recompute env "T"))
    a2

(* an R row that lands in T: r4 = 100 and r2 naming an S row that
   passes s3 < 50 *)
let r_row_into_t env i =
  let s1 =
    match
      Bag.fold
        (fun tuple _ acc ->
          match (Tuple.get tuple "s1", Tuple.get tuple "s3") with
          | Value.Int s1, Value.Int s3 when s3 < 50 -> Some s1
          | _ -> acc)
        (Adapter.current (Scenario.source env "db2") "S")
        None
    with
    | Some s1 -> s1
    | None -> Alcotest.fail "no S row passes s3 < 50"
  in
  Tuple.of_list
    [
      ("r1", Value.Int (9000 + i));
      ("r2", Value.Int s1);
      ("r3", Value.Int i);
      ("r4", Value.Int 100);
    ]

let commit_r_into_t env i =
  let db1 = Scenario.source env "db1" in
  Adapter.commit db1 (Driver.single_insert db1 "R" (r_row_into_t env i))

(* π(r1,s1) T reads T's materialized attributes with no key set: the
   store rung scans, and the IUP maintains the cached answer *)
let test_scan_served_answer_maintained () =
  let env, med = setup () in
  let q () =
    in_process env (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ()).Qp.tuples)
  in
  let before = q () in
  commit_r_into_t env 1;
  Scenario.run_to_quiescence env med;
  let s = Mediator.stats med in
  let hits = Obs.Metrics.value s.Med.cache_hits in
  let after = q () in
  Alcotest.(check int) "the post-commit query hit" (hits + 1)
    (Obs.Metrics.value s.Med.cache_hits);
  Alcotest.(check int) "nothing was invalidated" 0
    (Obs.Metrics.value s.Med.cache_invalidations);
  Alcotest.(check bool) "the answer took the delta" false
    (Bag.equal before after);
  Tutil.check_bag "maintained answer equals recomputation"
    (Bag.project [ "r1"; "s1" ] (recompute env "T"))
    after

(* the cached whole-table answer is updated in place by the IUP while
   the table is, so it must hold storage of its own, not the table's
   live version *)
let test_scan_served_answer_copied () =
  let env, med = setup () in
  let attrs = [ "r1"; "s1" ] in
  let q () =
    in_process env (fun () ->
        (Mediator.query med ~node:"T" ~attrs ()).Qp.tuples)
  in
  let answer = q () in
  let table = Option.get (Med.node_table med "T") in
  let hits = Obs.Metrics.value (Mediator.stats med).Med.cache_hits in
  let cached = q () in
  if Obs.Metrics.value (Mediator.stats med).Med.cache_hits <> hits + 1 then
    Alcotest.fail "π(r1,s1) T was not cached";
  Alcotest.(check bool) "the query read the whole table" true
    (Bag.equal answer (Storage.Table.contents table));
  Alcotest.(check bool) "the entry holds the answer" true (cached == answer);
  Alcotest.(check bool) "the entry does not share the table's storage" false
    (Bag.shares cached (Storage.Table.contents table))

(* π(r1,r3) T needs the virtual r3: a polled answer keeps the
   invalidation protocol *)
let test_polled_answer_invalidated () =
  let env, med = setup () in
  let q () =
    in_process env (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3" ] ()).Qp.tuples)
  in
  ignore (q () : Bag.t);
  commit_r env 1;
  Scenario.run_to_quiescence env med;
  let s = Mediator.stats med in
  Alcotest.(check bool) "the update invalidated" true
    ((Obs.Metrics.value s.Med.cache_invalidations) >= 1);
  Tutil.check_bag "post-update answer equals recomputation"
    (Bag.project [ "r1"; "r3" ] (recompute env "T"))
    (q ())

(* the eviction rule: a maintained entry goes once the ΔT atoms it
   absorbed since its last hit reach the support of T's table; a hit
   starts the count again. The count is Med's own, so the test reads
   it off the step at which the entry goes: the entry is the only one
   cached, so an invalidation is its eviction, seen without a query
   that would restart its count. Churning one row in and out of T
   moves the support by one at each step, which hides a count off by
   one in one parity of the support; [before_hit] rows added before
   the hit set that parity. *)
let maintained_entry_eviction ~before_hit =
  let env, med = setup () in
  let s = Mediator.stats med in
  let q () =
    ignore
      (in_process env (fun () ->
           Mediator.query med ~node:"T" ~attrs:[ "s1" ] ())
        : Qp.answer)
  in
  let evicted () = Obs.Metrics.value s.Med.cache_invalidations > 0 in
  let hits () = Obs.Metrics.value s.Med.cache_hits in
  let ops () = Obs.Metrics.value s.Med.ops_query in
  let support () =
    Storage.Table.support_cardinal (Option.get (Med.node_table med "T"))
  in
  q ();
  for i = 1 to before_hit do
    commit_r_into_t env i;
    Scenario.run_to_quiescence env med;
    if evicted () then Alcotest.failf "entry dropped after %d atoms" i
  done;
  let h = hits () in
  q ();
  if hits () <> h + 1 then Alcotest.fail "entry missing after a hit";
  (* churn one row in and out of T: each commit is one ΔT atom, and
     the support moves by one while the absorbed count climbs; the
     entry must outlive every count below the support and go at the
     support itself, counted from the hit (without the reset the atoms
     before it would evict it early) *)
  let rec churn i absorbed =
    if i > 1000 then Alcotest.fail "the entry was never evicted";
    let row = r_row_into_t env 0 in
    let db1 = Scenario.source env "db1" in
    Adapter.commit db1
      ((if i mod 2 = 0 then Driver.single_insert else Driver.single_delete)
         db1 "R" row);
    Scenario.run_to_quiescence env med;
    if not (evicted ()) then begin
      Alcotest.(check bool) "kept only below the table's support" true
        (absorbed + 1 < support ());
      churn (i + 1) (absorbed + 1)
    end
    else
      Alcotest.(check bool) "evicted when the absorbed atoms reach the support"
        true
        (absorbed + 1 >= support ())
  in
  churn 2 0;
  let h = hits () and before = ops () in
  q ();
  Alcotest.(check int) "the eviction forced a miss" h (hits ());
  Alcotest.(check bool) "the miss scanned the table" true (ops () > before);
  let refilled = ops () in
  q ();
  if hits () <> h + 1 then Alcotest.fail "the miss did not refill the cache";
  Alcotest.(check int) "recomputed afresh" refilled (ops ())

let test_maintained_entry_eviction () =
  maintained_entry_eviction ~before_hit:2;
  maintained_entry_eviction ~before_hit:3

let test_resync_flushes_cache () =
  let env, med = setup ~config:fault_config () in
  let db1 = Scenario.source env "db1" in
  let q () =
    in_process env (fun () ->
        (Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ()).Qp.tuples)
  in
  ignore (q () : Bag.t);
  let at d f = Engine.schedule env.Scenario.engine ~delay:d f in
  at 1.0 (fun () -> commit_r env 1);
  (* this commit's announcement dies on the wire; the next one's
     prev_version exposes the loss and forces a resync *)
  at 2.0 (fun () -> Source_db.set_link_up (Adapter.db db1) false);
  at 2.1 (fun () -> commit_r env 2);
  at 3.0 (fun () -> Source_db.set_link_up (Adapter.db db1) true);
  at 3.1 (fun () -> commit_r env 3);
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 5.0);
  Scenario.run_to_quiescence env med;
  let s = Mediator.stats med in
  Alcotest.(check bool) "resync ran" true ((Obs.Metrics.value s.Med.resyncs) >= 1);
  Alcotest.(check bool) "cached answers were dropped" true
    ((Obs.Metrics.value s.Med.cache_invalidations) >= 1);
  Tutil.check_bag "post-resync answer equals recomputation"
    (Bag.project [ "r1"; "s1" ] (recompute env "T"))
    (q ())

(* A query's store read charges its tuple ops as simulated time after
   reading the table; an announcement revealing a gap can arrive in
   that window. The answer it returns was read before the gap was
   known, but caching it would serve it [Fresh] while the source is
   dirty; with db1 refusing the resync, the next query must be
   [Stale]. *)
let test_dirty_mark_during_store_read () =
  let env, med =
    setup
      ~config:
        (Med.Config.make ~op_time:0.01 ~poll_timeout:0.5 ~poll_retries:2 ())
      ()
  in
  let db1 = Scenario.source env "db1" in
  let engine = env.Scenario.engine in
  Source_db.set_link_up (Adapter.db db1) false;
  commit_r env 1;
  Source_db.set_link_up (Adapter.db db1) true;
  let now = Engine.now engine in
  Source_db.set_outages (Adapter.db db1) [ (now, now +. 10.0) ];
  let first = ref None in
  Engine.spawn engine (fun () ->
      first :=
        Some
          (Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ()).Qp.quality);
  Engine.schedule engine ~delay:0.01 (fun () -> commit_r env 2);
  Engine.run engine ~until:(now +. 0.5);
  Alcotest.(check bool) "the first query read before the gap" true
    (!first = Some Qp.Fresh);
  Alcotest.(check bool) "the gap marked db1 dirty" true
    (List.mem "db1" (Ledger.dirty_sources med.Med.ledger));
  let again =
    in_process env (fun () ->
        Mediator.query med ~node:"T" ~attrs:[ "r1"; "s1" ] ())
  in
  Alcotest.(check bool) "no Fresh hit while db1 is dirty" true
    (again.Qp.quality <> Qp.Fresh)

(* ---- maintained answers against an uncached twin ---------------------- *)

(* Store-served shapes over T's r1/s1, which every fig1 annotation
   materializes, so the store rung scans for each: the whole answer, a
   collapsing projection (one s1 per joined R row), a range on a
   materialized attribute, each queried every step, and a range
   queried every 45 steps from step 5, which the eviction rule drops
   between its queries. *)
let twin_shapes =
  [
    (1, [ "r1"; "s1" ], Predicate.True);
    (1, [ "s1" ], Predicate.True);
    ( 1,
      [ "r1"; "s1" ],
      Predicate.(conj [ ge (attr "r1") (int 20); lt (attr "r1") (int 45) ]) );
    (45, [ "r1" ], Predicate.(lt (attr "s1") (int 20)));
  ]

type twin_step = Commit | Gap

(* One twin: fig1 under [ann], driven by a seeded schedule of random
   R/S inserts and deletes with the shapes queried between them; step
   100 loses an announcement while db1 refuses polls (a gap, a dirty
   source, [Stale] answers, then a resync). With [op_time] 0 a query
   takes no simulated time, so cache hits cannot shift the schedule
   against the uncached twin. Returns the answers in query order, the
   cache invalidations counted outside the gap step (only evictions
   drop a maintained entry there), and the stats. *)
let twin_run ~ann ~cache seed =
  let env = Scenario.make_fig1 ~r_size:30 () in
  let config =
    Med.Config.make ~op_time:0.0 ~poll_timeout:0.5 ~poll_retries:2
      ~poll_backoff:0.25 ~answer_cache_enabled:cache ()
  in
  let med =
    Scenario.mediator env ~annotation:(ann env.Scenario.vdp) ~config ()
  in
  in_process env (fun () -> Mediator.initialize med);
  let rng = Random.State.make [| seed |] in
  let db1 = Scenario.source env "db1" and db2 = Scenario.source env "db2" in
  let s = Mediator.stats med in
  let run_for dt =
    Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. dt)
  in
  let fresh_r = ref 1000 in
  let insert_r () =
    incr fresh_r;
    Adapter.commit db1
      (Driver.single_insert db1 "R"
         (Tuple.of_list
            [
              ("r1", Value.Int !fresh_r);
              ("r2", Value.Int (Random.State.int rng 40));
              ("r3", Value.Int (Random.State.int rng 200));
              ( "r4",
                Value.Int (if Random.State.int rng 4 = 0 then 200 else 100) );
            ]))
  in
  let delete_any src rel =
    match Bag.to_list (Adapter.current src rel) with
    | [] -> ()
    | rows ->
      let row, _ = List.nth rows (Random.State.int rng (List.length rows)) in
      Adapter.commit src (Driver.single_delete src rel row)
  in
  (* a keyed insert over an S key, present or not: T rows joining it
     come and go together *)
  let upsert_s () =
    Adapter.commit db2
      (Driver.single_insert db2 "S"
         (Tuple.of_list
            [
              ("s1", Value.Int (Random.State.int rng 40));
              ("s2", Value.Int (Random.State.int rng 100));
              ("s3", Value.Int (Random.State.int rng 100));
            ]))
  in
  let answers = ref [] in
  let evictions = ref 0 in
  for step = 1 to 140 do
    let kind = if step = 100 then Gap else Commit in
    let inv0 = Obs.Metrics.value s.Med.cache_invalidations in
    (match kind with
    | Commit -> (
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 -> insert_r ()
      | 4 | 5 -> delete_any db1 "R"
      | 6 | 7 | 8 -> upsert_s ()
      | _ -> delete_any db2 "S")
    | Gap ->
      Source_db.set_link_up (Adapter.db db1) false;
      insert_r ();
      Source_db.set_link_up (Adapter.db db1) true;
      let now = Engine.now env.Scenario.engine in
      Source_db.set_outages (Adapter.db db1) [ (now, now +. 3.0) ];
      insert_r ());
    run_for (0.05 +. Random.State.float rng 0.9);
    List.iteri
      (fun i (every, attrs, cond) ->
        if step mod every = 5 mod every then
          let a =
            in_process env (fun () ->
                Mediator.query med ~node:"T" ~attrs ~cond ())
          in
          answers := ((step, i), a) :: !answers)
      twin_shapes;
    if kind = Commit then
      evictions :=
        !evictions + Obs.Metrics.value s.Med.cache_invalidations - inv0;
    if kind = Gap then run_for 4.0
  done;
  Scenario.run_to_quiescence env med;
  (List.rev !answers, !evictions, s)

let test_maintained_vs_uncached_twin () =
  List.iter
    (fun (name, ann, seed) ->
      let cached, evictions, s = twin_run ~ann ~cache:true seed in
      let plain, _, _ = twin_run ~ann ~cache:false seed in
      Alcotest.(check int) (name ^ ": same number of answers")
        (List.length plain) (List.length cached);
      List.iter2
        (fun ((step, shape), (c : Qp.answer)) (_, (p : Qp.answer)) ->
          let what = Printf.sprintf "%s step %d shape %d" name step shape in
          Tutil.check_bag (what ^ " tuples") p.Qp.tuples c.Qp.tuples;
          let same field ok = Alcotest.(check bool) (what ^ " " ^ field) true ok in
          same "quality" (c.Qp.quality = p.Qp.quality);
          same "reflect" (c.Qp.reflect = p.Qp.reflect);
          same "bound" (c.Qp.bound = p.Qp.bound))
        cached plain;
      let stale =
        List.exists (fun (_, a) -> a.Qp.quality <> Qp.Fresh) cached
      in
      Alcotest.(check bool) (name ^ ": the gap served Stale answers") true
        stale;
      Alcotest.(check bool) (name ^ ": a resync ran") true
        (Obs.Metrics.value s.Med.resyncs >= 1);
      Alcotest.(check bool) (name ^ ": maintained answers were hit") true
        (Obs.Metrics.value s.Med.cache_hits > 100);
      Alcotest.(check bool) (name ^ ": the eviction rule dropped entries") true
        (evictions >= 1))
    [
      ("ex21", Scenario.ann_ex21, 1);
      ("ex22", Scenario.ann_ex22, 2);
      ("ex23", Scenario.ann_ex23, 3);
    ]

(* end-to-end: randomized update/query load under the combined fault
   profile, answer cache on (the chaos runner's config inherits the
   default), must quiesce, converge, and pass the Sec. 3 checker *)
let test_chaos_with_cache () =
  let sc =
    match Chaos_run.scenario_by_name "fig1" with
    | Some sc -> sc
    | None -> Alcotest.fail "fig1 chaos scenario missing"
  in
  List.iter
    (fun seed ->
      let r = Chaos_run.run_one sc Faults.chaos seed in
      Alcotest.(check bool)
        (Printf.sprintf "chaos seed %d quiesced+converged+consistent" seed)
        true (Chaos_run.passed r))
    [ 1; 2 ]

(* ---- the IUP's compiled plans vs the operator-at-a-time rules --------- *)

(* every catalogue scenario under each of its annotations, the diamond
   (non-equi and keyed) and the scenario files, as (name, env,
   annotation); each call builds fresh environments *)
let compiled_cases () =
  List.concat_map
    (fun sc ->
      List.map
        (fun (ann_name, ann) ->
          let env = sc.Scenario.sc_make ~seed:1 in
          (sc.Scenario.sc_name ^ "/" ^ ann_name, env, ann env.Scenario.vdp))
        sc.Scenario.sc_annotations)
    Scenario.catalogue
  @ List.map
      (fun (name, ac_on) ->
        let env = Tutil.make_diamond ~ac_on 1 in
        (name, env, Tutil.diamond_annotation env.Scenario.vdp))
      [
        ("diamond", Predicate.(lt (attr "a2") (attr "c2")));
        ("diamond (both keyed)", Predicate.eq_attrs "a2" "c2");
      ]
  @ List.map
      (fun file ->
        let c = Scn.of_file ("../scenarios/" ^ file) in
        (file, c.Scn.c_env, c.Scn.c_annotation))
      [ "fig1.scn"; "fig1_triple.scn" ]

(* the constants a definition's conditions compare with: drawing values
   around them makes atoms pass and fail its selections *)
let rec pred_consts = function
  | Predicate.True | Predicate.False -> []
  | Predicate.Cmp (_, a, b) ->
    let rec term = function
      | Predicate.Const v -> [ v ]
      | Predicate.Attr _ -> []
      | Predicate.Neg t -> term t
      | Predicate.Add (a, b)
      | Predicate.Sub (a, b)
      | Predicate.Mul (a, b)
      | Predicate.Div (a, b) -> term a @ term b
    in
    term a @ term b
  | Predicate.And (a, b) | Predicate.Or (a, b) -> pred_consts a @ pred_consts b
  | Predicate.Not p -> pred_consts p
  | Predicate.In (_, vs) -> vs

let rec expr_consts = function
  | Expr.Base _ -> []
  | Expr.Select (p, e) -> pred_consts p @ expr_consts e
  | Expr.Project (_, e) | Expr.Rename (_, e) -> expr_consts e
  | Expr.Join (a, p, b) -> pred_consts p @ expr_consts a @ expr_consts b
  | Expr.Union (a, b) | Expr.Diff (a, b) -> expr_consts a @ expr_consts b

(* a value of [ty] from a small domain around [consts] *)
let near_value rng consts ty =
  let around =
    List.concat_map
      (function
        | Value.Int i when ty = Value.TInt -> Value.[ Int (i - 1); Int i; Int (i + 1) ]
        | Value.Float f when ty = Value.TFloat -> Value.[ Float (f -. 1.); Float f ]
        | Value.Str _ as v when ty = Value.TStr -> [ v ]
        | Value.Bool _ as v when ty = Value.TBool -> [ v ]
        | _ -> [])
      consts
  in
  if around <> [] && Random.State.bool rng then
    List.nth around (Random.State.int rng (List.length around))
  else random_value rng ty

let near_tuple rng consts schema =
  Tuple.of_list
    (List.map
       (fun (a, ty) -> (a, near_value rng consts ty))
       (Schema.typed_attrs schema))

(* A random signed delta over [schema] for testing a leaf-parent
   definition [def]: empty one time in five; otherwise atoms with
   signed multiplicities, and for some of them a twin differing in one
   attribute whose image under [def] coincides with theirs, with the
   same sign (images accumulate) or the opposite one (a zero-sum
   pair). *)
let leaf_delta rng def schema =
  let consts = expr_consts def in
  let image t = Oracle.filter_delta def (Rel_delta.insert (Rel_delta.empty schema) t) in
  let twin t =
    let attrs = Schema.typed_attrs schema in
    let a, ty = List.nth attrs (Random.State.int rng (List.length attrs)) in
    let t' = Tuple.set t a (near_value rng consts ty) in
    let it = image t in
    if Tuple.equal t t' || Rel_delta.is_empty it || not (Rel_delta.equal it (image t'))
    then None
    else Some t'
  in
  if Random.State.int rng 5 = 0 then Rel_delta.empty schema
  else
    let add d t m =
      if m > 0 then Rel_delta.insert ~mult:m d t else Rel_delta.delete ~mult:(-m) d t
    in
    let rec go d n =
      if n = 0 then d
      else
        let t = near_tuple rng consts schema in
        let m = (1 + Random.State.int rng 2) * if Random.State.bool rng then 1 else -1 in
        let d = add d t m in
        let d =
          match List.find_map (fun _ -> twin t) [ 1; 2; 3; 4; 5; 6 ] with
          | Some t' -> add d t' (if Random.State.bool rng then m else -m)
          | None -> d
        in
        go d (n - 1)
    in
    go (Rel_delta.empty schema) (1 + Random.State.int rng 6)

(* each leaf-parent's compiled filter gives what pushing the delta
   through its definition one operator at a time gives, schema
   included *)
let test_leaf_parent_filters () =
  let empty = ref 0 and coinciding = ref 0 in
  List.iter
    (fun (name, env, annotation) ->
      let vdp = env.Scenario.vdp in
      let med = Scenario.mediator env ~annotation () in
      List.iter
        (fun (lp : Med.leaf_parent) ->
          let def = Graph.def vdp lp.Med.lp_node in
          let schema = (Graph.node vdp lp.Med.lp_leaf).Graph.schema in
          for seed = 0 to 59 do
            let rng = Random.State.make [| 0x1EAF; seed |] in
            let d = leaf_delta rng def schema in
            let what = Printf.sprintf "%s: %s, seed %d" name lp.Med.lp_node seed in
            let expected = Oracle.filter_delta def d in
            (* atoms with an image, against the images left: fewer left
               means images coincided (accumulated or cancelled) *)
            let imaged =
              Rel_delta.fold
                (fun t _ n ->
                  let one = Rel_delta.insert (Rel_delta.empty schema) t in
                  if Rel_delta.is_empty (Oracle.filter_delta def one) then n else n + 1)
                d 0
            in
            if Rel_delta.is_empty d then incr empty;
            if Rel_delta.support_cardinal expected < imaged then incr coinciding;
            let got = lp.Med.lp_filter d in
            Alcotest.check Tutil.rel_delta what expected got;
            Alcotest.(check bool)
              (what ^ ": schema") true
              (Schema.equal (Rel_delta.schema expected) (Rel_delta.schema got))
          done)
        (Med.leaf_parents med))
    (compiled_cases ());
  Alcotest.(check bool) "empty deltas drawn" true (!empty > 0);
  Alcotest.(check bool) "deltas with coinciding images drawn" true (!coinciding > 0)

(* Eager Compensation through the compiled filter: with announced
   commits waiting in the queue and one batch taken from it, a VAP
   request on a leaf-parent of an announcing source returns the
   leaf-parent at the reflected state (the state at initialization),
   restricted or not *)
let test_eca_compensation_compiled () =
  let checked = ref 0 in
  List.iter
    (fun (name, env, annotation) ->
      let vdp = env.Scenario.vdp in
      let config = Med.Config.make ~flush_interval:1e9 ~max_batch:1 () in
      let med = Scenario.mediator env ~annotation ~config () in
      in_process env (fun () -> Mediator.initialize med);
      Alcotest.(check int) (name ^ ": queue empty after init") 0
        (Mediator.queue_length med);
      let rng = Random.State.make [| 0xECA; String.length name |] in
      let reflected =
        List.map
          (fun (lp : Med.leaf_parent) ->
            let leaf = lp.Med.lp_leaf in
            (leaf, Adapter.current (Scenario.source env (Graph.source_of_leaf vdp leaf)) leaf))
          (Med.leaf_parents med)
      in
      (* a scenario file's own timed commits join the unseen ones *)
      Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 5.0);
      List.iter
        (fun (lp : Med.leaf_parent) ->
          let leaf = lp.Med.lp_leaf in
          let src_name = Graph.source_of_leaf vdp leaf in
          if Ledger.contributor_kind med.Med.ledger src_name <> Ledger.Virtual_contributor then begin
            let src = Scenario.source env src_name in
            let reflected = List.assoc leaf reflected in
            let schema = Adapter.schema src leaf in
            let consts = expr_consts (Graph.def vdp lp.Med.lp_node) in
            let fresh = ref 0 in
            (* one commit: a fresh row, a deleted row, or a row replaced
               by one differing in one attribute *)
            let commit () =
              let current = Adapter.current src leaf in
              let rows = Bag.support current in
              let pick () = List.nth rows (Random.State.int rng (List.length rows)) in
              let keyed t =
                List.fold_left
                  (fun t k ->
                    incr fresh;
                    Tuple.set t k
                      (match List.assoc k (Schema.typed_attrs schema) with
                      | Value.TStr -> Value.Str (Printf.sprintf "fresh%d" !fresh)
                      | _ -> Value.Int (100_000 + !fresh)))
                  t (Schema.key schema)
              in
              let delta =
                match Random.State.int rng 3 with
                | 0 when rows <> [] -> Driver.single_delete src leaf (pick ())
                | 1 when rows <> [] ->
                  let t = pick () in
                  let attrs =
                    List.filter
                      (fun (a, _) -> not (List.mem a (Schema.key schema)))
                      (Schema.typed_attrs schema)
                  in
                  if attrs = [] then Driver.single_delete src leaf t
                  else
                    let a, ty = List.nth attrs (Random.State.int rng (List.length attrs)) in
                    Driver.single_insert src leaf (Tuple.set t a (near_value rng consts ty))
                | _ -> Driver.single_insert src leaf (keyed (near_tuple rng consts schema))
              in
              Adapter.commit src delta
            in
            for _ = 1 to Random.State.int rng 5 do
              commit ()
            done;
            Engine.run env.Scenario.engine
              ~until:(Engine.now env.Scenario.engine +. 2.0);
            let attrs = Schema.attrs (Graph.node vdp lp.Med.lp_node).Graph.schema in
            let conds =
              Predicate.True
              ::
              (match
                 Bag.support
                   (Eval.eval
                      ~env:(fun n -> if n = leaf then Some reflected else None)
                      (Graph.def vdp lp.Med.lp_node))
               with
              | t :: _ ->
                let a = List.hd attrs in
                [ Predicate.one_of a [ Tuple.get t a; near_value rng consts Value.TInt ] ]
              | [] -> [])
            in
            List.iter
              (fun cond ->
                let temp =
                  in_process env (fun () ->
                      let entries = Med.take_batch med in
                      let pending =
                        List.fold_left
                          (fun acc e -> Delta.Multi_delta.smash acc e.Message.delta)
                          Delta.Multi_delta.empty entries
                      in
                      let r =
                        Vap.build med ~kind:(`Update pending)
                          (Vap.closure med
                             [ { Vap.r_node = lp.Med.lp_node; r_attrs = attrs; r_cond = cond } ])
                      in
                      Ledger.requeue med.Med.ledger entries;
                      List.assoc lp.Med.lp_node r.Vap.temps)
                in
                let expected =
                  Eval.eval
                    ~env:(fun n -> if n = leaf then Some reflected else None)
                    (Expr.project attrs (Expr.select cond (Graph.def vdp lp.Med.lp_node)))
                in
                incr checked;
                Tutil.check_bag
                  (Printf.sprintf "%s: %s compensated to the reflected state (%s)" name
                     lp.Med.lp_node (Format.asprintf "%a" Predicate.pp cond))
                  expected temp)
              conds
          end)
        (Med.leaf_parents med))
    (compiled_cases ());
  Alcotest.(check bool) "some leaf-parent compensated" true (!checked > 0)

(* The VAP closure over the compiled rules against the closure that
   re-derives [derived_from] from the VDP per call: random multi-node
   requests — attribute subsets under no condition, a key set, a
   comparison, or a conjunction or disjunction of two — close to the
   same requests, node for node, in the same order, with the same
   attributes and conditions. *)
let test_closure_matches_derived_from () =
  let closed = ref 0 in
  List.iter
    (fun (name, env, annotation) ->
      let vdp = env.Scenario.vdp in
      let med = Scenario.mediator env ~annotation () in
      let rng = Random.State.make [| 0xC105; String.length name |] in
      let nodes = Array.of_list (Graph.non_leaves vdp) in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let random_cond schema =
        let typed = Schema.typed_attrs schema in
        let atom () =
          let a, ty = pick typed in
          if Random.State.bool rng then
            Predicate.one_of a
              (List.init (1 + Random.State.int rng 3) (fun _ -> random_value rng ty))
          else Predicate.Cmp (Predicate.Lt, Predicate.Attr a, Predicate.Const (random_value rng ty))
        in
        match Random.State.int rng 5 with
        | 0 -> Predicate.True
        | 1 | 2 -> atom ()
        | 3 -> Predicate.conj [ atom (); atom () ]
        | _ -> Predicate.or_ (atom ()) (atom ())
      in
      let random_request () =
        let n = nodes.(Random.State.int rng (Array.length nodes)) in
        let attrs = Schema.attrs n.Graph.schema in
        let chosen = List.filter (fun _ -> Random.State.bool rng) attrs in
        ( n.Graph.name,
          (if chosen = [] then [ pick attrs ] else chosen),
          random_cond n.Graph.schema )
      in
      for _ = 1 to 60 do
        let requests = List.init (1 + Random.State.int rng 3) (fun _ -> random_request ()) in
        let got =
          Vap.closure med
            (List.map
               (fun (node, attrs, cond) -> { Vap.r_node = node; r_attrs = attrs; r_cond = cond })
               requests)
        in
        let want =
          Oracle.closure vdp
            ~covered:(fun node attrs -> Med.is_covered med ~node ~attrs)
            requests
        in
        let show (node, attrs, cond) =
          Format.asprintf "%s{%s}[%a]" node (String.concat "," attrs) Predicate.pp cond
        in
        let got_l =
          List.map (fun r -> (r.Vap.r_node, r.Vap.r_attrs, r.Vap.r_cond)) got.Vap.c_requests
        in
        Alcotest.(check int) (name ^ ": requests counted") (List.length requests) got.Vap.c_asked;
        if
          not
            (List.equal
               (fun (n, a, c) (n', a', c') ->
                 String.equal n n' && a = a' && Predicate.equal c c')
               got_l want)
        then
          Alcotest.failf "%s: closure of %s is %s, expected %s" name
            (String.concat "; " (List.map show requests))
            (String.concat "; " (List.map show got_l))
            (String.concat "; " (List.map show want));
        if List.length want > List.length (List.sort_uniq compare (List.map (fun (n, _, _) -> n) requests))
        then incr closed
      done)
    (compiled_cases ());
  Alcotest.(check bool) "some closures reached past the requests" true (!closed > 0)

(* every join operand swapped, recursively *)
let rec swap_joins = function
  | Expr.Base _ as e -> e
  | Expr.Select (p, e) -> Expr.Select (p, swap_joins e)
  | Expr.Project (l, e) -> Expr.Project (l, swap_joins e)
  | Expr.Rename (m, e) -> Expr.Rename (m, swap_joins e)
  | Expr.Join (a, p, b) -> Expr.Join (swap_joins b, p, swap_joins a)
  | Expr.Union (a, b) -> Expr.Union (swap_joins a, swap_joins b)
  | Expr.Diff (a, b) -> Expr.Diff (swap_joins a, swap_joins b)

(* The probe order the n-ary join rule fixes for each of its terms,
   restated here: from the changed input, repeatedly the remaining input
   sharing a join key with what is bound so far, then one a prepared
   index join can probe (a base, or selections over one), then the
   leftmost. Returned per term as the (base, bound schema) of each
   probe-able step, in order — what the plan's index hook is asked to
   prepare. *)
let rec expected_probes ~schema expr =
  match expr with
  | Expr.Base _ -> []
  | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) ->
    expected_probes ~schema e
  | Expr.Union (a, b) | Expr.Diff (a, b) ->
    expected_probes ~schema a @ expected_probes ~schema b
  | Expr.Join _ ->
    let inputs, conjs = Plan.flatten_join expr in
    let conjs = List.filter (fun p -> not (Predicate.equal p Predicate.True)) conjs in
    let on = Predicate.conj conjs in
    let inputs = Array.of_list inputs in
    let n = Array.length inputs in
    let schemas = Array.map (Expr.schema_of schema) inputs in
    let rec base_of = function
      | Expr.Base b -> Some b
      | Expr.Select (_, e) -> base_of e
      | _ -> None
    in
    let term i =
      let rec go acc remaining =
        match remaining with
        | [] -> []
        | _ ->
          let score k =
            ( (if fst (Bag.join_keys acc schemas.(k) on) <> [] then 0 else 1),
              (if base_of inputs.(k) <> None then 0 else 1),
              k )
          in
          let best =
            List.fold_left
              (fun b k -> if score k < score b then k else b)
              (List.hd remaining) remaining
          in
          let step =
            match base_of inputs.(best) with
            | Some b -> [ (b, Schema.attrs acc) ]
            | None -> []
          in
          step @ go (Schema.join acc schemas.(best)) (List.filter (( <> ) best) remaining)
      in
      go schemas.(i) (List.filter (( <> ) i) (List.init n Fun.id))
    in
    Array.fold_left (fun acc e -> acc @ expected_probes ~schema e) [] inputs
    @ List.concat (List.init n term)

(* random old values and deltas for the bases of [expr]: each base
   changes with probability one half (at least one does), deleting
   rows it holds and inserting new ones *)
let random_join_state rng ~schema expr =
  let consts = expr_consts expr in
  let bases = Expr.base_names expr in
  let bags =
    List.map
      (fun b ->
        let s = schema b in
        let rec go acc i =
          if i = 0 then acc
          else go (Bag.add ~mult:(1 + Random.State.int rng 2) acc (near_tuple rng consts s)) (i - 1)
        in
        (b, go (Bag.empty s) (Random.State.int rng 9)))
      bases
  in
  let changed = List.filter (fun _ -> Random.State.bool rng) bases in
  let changed = if changed = [] then [ List.hd bases ] else changed in
  let deltas =
    List.map
      (fun b ->
        let old = List.assoc b bags in
        let d =
          List.fold_left
            (fun d t -> if Random.State.bool rng then Rel_delta.delete d t else d)
            (Rel_delta.empty (schema b)) (Bag.support old)
        in
        let rec ins d i =
          if i = 0 then d else ins (Rel_delta.insert d (near_tuple rng consts (schema b))) (i - 1)
        in
        (b, ins d (Random.State.int rng 4)))
      changed
  in
  (bags, deltas)

(* The compiled n-ary join terms give the interpretive rule engine's
   delta for every derived node of the catalogue and for multi-way
   joins over the diamond's relations, with the join operands as
   written and swapped, and three ways: without prepared index joins,
   with them (over tables indexed on every column), and with every
   table shadowed by a temporary (the generic join over the old
   value). The prepared probes follow the greedy order restated in
   [expected_probes]. *)
let test_join_terms_match_rules () =
  let diamond_joins =
    Expr.
      [
        join ~on:(Predicate.eq_attrs "a2" "c2")
          (join ~on:(Predicate.eq_attrs "a2" "b2") (base "A") (base "B"))
          (base "C");
        join ~on:(Predicate.eq_attrs "a2" "b2")
          (join ~on:Predicate.(lt (attr "a2") (attr "c2")) (base "A") (base "C"))
          (base "B");
        join ~on:(Predicate.eq_attrs "b2" "c2")
          (join (base "B") (base "C"))
          (select Predicate.(lt (attr "a3") (int 50)) (base "A"));
        join (base "C")
          (join ~on:(Predicate.eq_attrs "a2" "b2") (base "B")
             (project [ "a1"; "a2" ] (base "A")));
      ]
  in
  let cases =
    List.concat_map
      (fun (name, env, _) ->
        let vdp = env.Scenario.vdp in
        List.filter_map
          (fun node ->
            match node.Graph.kind with
            | Graph.Leaf _ -> None
            | Graph.Derived def -> Some (name ^ ": " ^ node.Graph.name, Graph.schema_env vdp, def))
          (Graph.nodes vdp))
      (compiled_cases ())
    @ List.mapi
        (fun i e -> (Printf.sprintf "diamond join %d" i, Tutil.diamond_schema, e))
        diamond_joins
  in
  let probed = ref 0 in
  List.iter
    (fun (name, schema, def) ->
      List.iter
        (fun (order, expr) ->
          for seed = 0 to 19 do
            let rng = Random.State.make [| 0x701; seed; Hashtbl.hash name |] in
            let bags, deltas = random_join_state rng ~schema expr in
            let env n = List.assoc_opt n bags in
            let deltas n = List.assoc_opt n deltas in
            let expected = Oracle.delta_of_expr_interp ~env ~deltas expr in
            let what mode = Printf.sprintf "%s (%s, %s), seed %d" name order mode seed in
            Alcotest.check Tutil.rel_delta (what "no index joins") expected
              (Delta_plan.run ~env ~deltas (Delta_plan.of_expr ~schema expr));
            let tables =
              List.map
                (fun (b, bag) ->
                  let t = Storage.Table.create ~indexes:(Schema.attrs (schema b)) ~name:b (schema b) in
                  Storage.Table.load t (Bag.copy bag);
                  (b, t))
                bags
            in
            let prepared = ref [] in
            let index ~name ~left ~on ~test ~filter =
              prepared := (name, Schema.attrs left) :: !prepared;
              Storage.Table.delta_join (List.assoc name tables) ~left ~on ?test ?filter ()
            in
            let plan = Delta_plan.of_expr ~index ~schema expr in
            let prepared = List.rev !prepared in
            probed := !probed + List.length prepared;
            Alcotest.(check (list (pair string (list string))))
              (what "probe order") (expected_probes ~schema expr) prepared;
            Alcotest.check Tutil.rel_delta (what "index joins") expected
              (Delta_plan.run ~env ~deltas plan);
            Alcotest.check Tutil.rel_delta (what "shadowed tables") expected
              (Delta_plan.run ~shadowed:(fun _ -> true) ~env ~deltas plan)
          done)
        [ ("as written", def); ("swapped", swap_joins def) ])
    cases;
  Alcotest.(check bool) "index joins prepared" true (!probed > 0)

let () =
  Alcotest.run "plan"
    [
      ( "compiled-vs-interpreter",
        [
          Alcotest.test_case "value plans agree" `Quick test_value_plans_agree;
          Alcotest.test_case "delta plans agree" `Quick test_delta_plans_agree;
          Alcotest.test_case "tuple renamer" `Quick test_renamer;
        ] );
      ( "compiled-iup",
        [
          Alcotest.test_case "leaf-parent filters = operator chain" `Quick
            test_leaf_parent_filters;
          Alcotest.test_case "ECA compensation through the compiled filter"
            `Quick test_eca_compensation_compiled;
          Alcotest.test_case "join terms = reference rules" `Quick
            test_join_terms_match_rules;
          Alcotest.test_case "VAP closure = derived_from closure" `Quick
            test_closure_matches_derived_from;
        ] );
      ( "physical-join",
        [
          Alcotest.test_case "join strategies agree" `Quick
            test_njoin_strategies_agree;
          Alcotest.test_case "cross product and θ-join" `Quick
            test_cross_product;
          prop_two_input_swap;
        ] );
      ( "answer-cache",
        [
          Alcotest.test_case "repeat query hits" `Quick
            test_repeat_query_hits_cache;
          Alcotest.test_case "scan-served store answer is maintained" `Quick
            test_scan_served_answer_maintained;
          Alcotest.test_case "scan-served whole-table answer is a copy" `Quick
            test_scan_served_answer_copied;
          Alcotest.test_case "update invalidates" `Quick
            test_polled_answer_invalidated;
          Alcotest.test_case "maintained entry eviction" `Quick
            test_maintained_entry_eviction;
          Alcotest.test_case "dirty mark during a store read" `Quick
            test_dirty_mark_during_store_read;
          Alcotest.test_case "maintained answers match an uncached twin" `Quick
            test_maintained_vs_uncached_twin;
          Alcotest.test_case "resync flushes" `Quick test_resync_flushes_cache;
          Alcotest.test_case "chaos stays consistent" `Slow
            test_chaos_with_cache;
        ] );
    ]
