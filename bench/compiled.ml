(* E15 — compiled operator plans and the QP answer cache (PR 4).

   Two suites:

   1. interpreter-vs-compiled: the same expressions evaluated through
      the interpretive oracles (Eval.eval_interp,
      Inc_eval.delta_of_expr_interp) and through the compiled
      pipelines (Plan / Delta_plan) that replaced them on the hot
      path — node evaluation and kernel-pass delta rules at 1e4+
      tuples.

   2. answer cache: repeated identical queries against a virtual
      export attribute with the cache off (every query polls and
      rebuilds a VAP temporary) and on (every repeat is a hash
      lookup).

   Emits BENCH_4.json with per-row speedups, the cache hit counters,
   and the compiled-plan census. *)

open Relalg
open Delta
open Sim
open Squirrel
open Workload

let r_schema =
  Schema.make ~key:[ "r1" ]
    [
      ("r1", Value.TInt);
      ("r2", Value.TInt);
      ("r3", Value.TInt);
      ("r4", Value.TInt);
    ]

let s_schema =
  Schema.make ~key:[ "s1" ]
    [ ("s1", Value.TInt); ("s2", Value.TInt); ("s3", Value.TInt) ]

let r_tuple i =
  Tuple.of_list
    [
      ("r1", Value.Int i);
      ("r2", Value.Int (i mod 997));
      ("r3", Value.Int (i mod 31));
      ("r4", Value.Int (if i mod 2 = 0 then 100 else 200));
    ]

let s_tuple i =
  Tuple.of_list
    [ ("s1", Value.Int i); ("s2", Value.Int (i mod 13)); ("s3", Value.Int (i mod 100)) ]

let r_bag n = Bag.of_tuples r_schema (List.init n r_tuple)
let s_bag n = Bag.of_tuples s_schema (List.init n s_tuple)

(* a deep unary chain: the fusion showcase — one streamed pass
   compiled, four intermediate bags interpreted *)
let chain_expr =
  Expr.(
    project [ "k"; "r3" ]
      (rename
         [ ("r1", "k") ]
         (select
            Predicate.(lt (attr "r3") (int 20))
            (select Predicate.(eq (attr "r4") (int 100)) (base "R")))))

(* the Figure 1 SPJ shape: selections under an equi-join, projection
   above — the IUP/VAP workhorse *)
let spj_expr =
  Expr.(
    project
      [ "r1"; "r3"; "s1"; "s2" ]
      (join
         ~on:(Predicate.eq_attrs "r2" "s1")
         (select Predicate.(eq (attr "r4") (int 100)) (base "R"))
         (select Predicate.(lt (attr "s3") (int 50)) (base "S"))))

let env_of n name =
  match name with
  | "R" -> Some (r_bag n)
  | "S" -> Some (s_bag (max 1 (n / 5)))
  | _ -> None

(* an IUP-shaped delta on R: n/10 atoms, half inserts, half deletes *)
let r_delta n =
  let k = max 2 (n / 10) in
  let rec go acc i =
    if i >= k then acc
    else
      let acc =
        if i mod 2 = 0 then Rel_delta.insert acc (r_tuple (n + i))
        else Rel_delta.delete acc (r_tuple i)
      in
      go acc (i + 1)
  in
  go (Rel_delta.empty r_schema) 0

let sizes =
  let all = [ 1_000; 10_000; 100_000 ] in
  match Option.bind (Sys.getenv_opt "BENCH_SIZES_MAX") int_of_string_opt with
  | Some cap -> List.filter (fun n -> n <= cap) all
  | None -> all

(* (name, units, interp thunk, compiled thunk); data built per
   benchmark so only the dataset under test is live *)
let micro_benchmarks () =
  let eval_pair tag expr =
    List.map
      (fun n ->
        ( Printf.sprintf "eval/%s/%d" tag n,
          fun () ->
            let bags = Hashtbl.create 4 in
            let env name =
              match Hashtbl.find_opt bags name with
              | Some b -> Some b
              | None ->
                let b = env_of n name in
                Option.iter (Hashtbl.replace bags name) b;
                b
            in
            ( n,
              (fun () -> ignore (Eval.eval_interp ~env expr)),
              fun () -> ignore (Eval.eval ~env expr) ) ))
      sizes
  in
  let delta_pair tag expr =
    List.map
      (fun n ->
        ( Printf.sprintf "delta/%s/%d" tag n,
          fun () ->
            let r = r_bag n and s = s_bag (max 1 (n / 5)) in
            let env = function
              | "R" -> Some r
              | "S" -> Some s
              | _ -> None
            in
            let d = r_delta n in
            let deltas = function "R" -> Some d | _ -> None in
            ( max 2 (n / 10),
              (fun () ->
                ignore (Inc_eval.delta_of_expr_interp ~env ~deltas expr)),
              fun () -> ignore (Inc_eval.delta_of_expr ~env ~deltas expr) ) ))
      sizes
  in
  List.concat
    [
      eval_pair "chain" chain_expr;
      eval_pair "spj" spj_expr;
      delta_pair "chain" chain_expr;
      delta_pair "spj" spj_expr;
    ]

(* ---- answer-cache workload ---------------------------------------- *)

let in_process env f =
  let cell = ref None in
  Engine.spawn env.Scenario.engine (fun () -> cell := Some (f ()));
  let rec go n =
    match !cell with
    | Some v -> v
    | None ->
      if n > 100_000 then failwith "simulation did not produce a result";
      Engine.run env.Scenario.engine
        ~until:(Engine.now env.Scenario.engine +. 1.0);
      go (n + 1)
  in
  go 0

type cache_row = {
  cw_queries : int;
  cw_uncached_us : float;
  cw_cached_us : float;
  cw_hits : int;
  cw_misses : int;
}

let cache_workload () =
  let cap =
    match Option.bind (Sys.getenv_opt "BENCH_SIZES_MAX") int_of_string_opt with
    | Some c -> c
    | None -> 5_000
  in
  let r_size = min 5_000 (max 200 cap) in
  let s_size = max 40 (r_size / 5) in
  let repeats = 50 in
  let run ~cached =
    let config = Med.Config.make ~answer_cache_enabled:cached () in
    let env = Scenario.make_fig1 ~r_size ~s_size () in
    let med =
      Scenario.mediator env
        ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
        ~config ()
    in
    in_process env (fun () -> Mediator.initialize med);
    (* r3 is virtual under Example 2.3: an uncached query polls db1
       and rebuilds the temporary every time. Warm outside the clock
       (first query fills the cache when enabled). *)
    let q () = ignore (Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3" ] ()) in
    in_process env q;
    let t0 = Unix.gettimeofday () in
    in_process env (fun () ->
        for _ = 1 to repeats do
          q ()
        done);
    let per_query = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
    (per_query, Mediator.stats med)
  in
  let uncached_s, _ = run ~cached:false in
  let cached_s, stats = run ~cached:true in
  {
    cw_queries = repeats;
    cw_uncached_us = uncached_s *. 1e6;
    cw_cached_us = cached_s *. 1e6;
    cw_hits = Obs.Metrics.value stats.Med.cache_hits;
    cw_misses = Obs.Metrics.value stats.Med.cache_misses;
  }

(* ---- report -------------------------------------------------------- *)

let json path rows cw =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"compiled plans + answer cache (bench/compiled.ml e15)\",\n";
  p "  \"baseline\": \"interpretive evaluators (Eval.eval_interp, Inc_eval.delta_of_expr_interp)\",\n";
  p
    "  \"note\": \"chain rows measure fused unary kernel passes; spj rows \
     include the hash join both paths share, which bounds their ratio\",\n";
  p "  \"results\": [\n";
  let n_rows = List.length rows in
  List.iteri
    (fun i (name, interp_ns, compiled_ns) ->
      p
        "    {\"op\": %S, \"interp_ns_per_tuple\": %.2f, \
         \"compiled_ns_per_tuple\": %.2f, \"speedup\": %.2f}%s\n"
        name interp_ns compiled_ns
        (interp_ns /. compiled_ns)
        (if i = n_rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p
    "  \"answer_cache\": {\"repeat_queries\": %d, \"uncached_us_per_query\": \
     %.1f, \"cached_us_per_query\": %.1f, \"speedup\": %.1f, \"hits\": %d, \
     \"misses\": %d},\n"
    cw.cw_queries cw.cw_uncached_us cw.cw_cached_us
    (cw.cw_uncached_us /. cw.cw_cached_us)
    cw.cw_hits cw.cw_misses;
  p "  \"compiled_plans\": {\"value\": %d, \"delta\": %d}\n"
    (Plan.compiled_plans ())
    (Delta_plan.compiled_plans ());
  p "}\n";
  close_out oc

let measure_rows () =
  List.map
    (fun (name, setup) ->
      Gc.compact ();
      let units, interp, compiled = setup () in
      (* compile + warm outside the clock *)
      compiled ();
      let i_ns = Micro.seconds_per_call interp *. 1e9 /. float_of_int units in
      let c_ns =
        Micro.seconds_per_call compiled *. 1e9 /. float_of_int units
      in
      (name, i_ns, c_ns))
    (micro_benchmarks ())

let run () =
  Tables.section "E15  compiled plans vs interpreters; QP answer cache";
  let rows = measure_rows () in
  Tables.print ~title:"per-tuple cost, interpreted vs compiled"
    ~header:[ "operation"; "interp ns"; "compiled ns"; "speedup" ]
    (List.map
       (fun (name, i_ns, c_ns) ->
         [
           Tables.S name;
           Tables.F i_ns;
           Tables.F c_ns;
           Tables.S (Printf.sprintf "%.2fx" (i_ns /. c_ns));
         ])
       rows);
  let cw = cache_workload () in
  Tables.print ~title:"repeated identical query (virtual attribute, fig1)"
    ~header:[ "mode"; "us/query" ]
    [
      [ Tables.S "uncached (poll + VAP)"; Tables.F cw.cw_uncached_us ];
      [ Tables.S "cached (hit)"; Tables.F cw.cw_cached_us ];
      [
        Tables.S "speedup";
        Tables.S (Printf.sprintf "%.1fx" (cw.cw_uncached_us /. cw.cw_cached_us));
      ];
    ];
  json "BENCH_4.json" rows cw;
  Tables.note
    "wrote BENCH_4.json (cache run: %d hits / %d misses; %d value plans, %d \
     delta plans compiled)\n"
    cw.cw_hits cw.cw_misses
    (Plan.compiled_plans ())
    (Delta_plan.compiled_plans ())
