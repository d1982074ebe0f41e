(* E15 — the QP answer cache.

   Repeated identical queries against a virtual export attribute with
   the cache off (every query polls and rebuilds a VAP temporary) and
   on (every repeat is a hash lookup).

   Emits BENCH_4.json with the cache timings and hit counters, and the
   compiled-plan census. *)

open Relalg
open Delta
open Sim
open Squirrel
open Workload

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

let json path cw =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"QP answer cache + compiled-plan census (bench/compiled.ml e15)\",\n";
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

let run () =
  Tables.section "E15  QP answer cache";
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
  json "BENCH_4.json" cw;
  Tables.note
    "wrote BENCH_4.json (cache run: %d hits / %d misses; %d value plans, %d \
     delta plans compiled)\n"
    cw.cw_hits cw.cw_misses
    (Plan.compiled_plans ())
    (Delta_plan.compiled_plans ())
