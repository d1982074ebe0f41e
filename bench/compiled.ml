(* E15 — the QP answer cache.

   Repeated identical queries against a virtual export attribute with
   the cache off (every query polls and rebuilds a VAP temporary) and
   on (every repeat is a hash lookup).

   Emits BENCH_4.json (path overridable via BENCH4_JSON) with the
   simulated time and tuple operations per query of each run, and the
   cache's hit counters. Simulated time is
   the engine's delay model (channel delays plus the cost model's
   charge per tuple operation), not host time. *)

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

type per_query = { pq_sim_ms : float; pq_ops : float }

type cache_row = {
  cw_queries : int;
  cw_uncached : per_query;
  cw_cached : per_query;
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
       and rebuilds the temporary every time. Warm outside the
       measurement (first query fills the cache when enabled). *)
    let q () = ignore (Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3" ] ()) in
    in_process env q;
    let stats = Mediator.stats med in
    let ops0 = Obs.Metrics.value stats.Med.ops_query in
    let sim_s =
      in_process env (fun () ->
          let t0 = Engine.now env.Scenario.engine in
          for _ = 1 to repeats do
            q ()
          done;
          Engine.now env.Scenario.engine -. t0)
    in
    let n = float_of_int repeats in
    ( {
        pq_sim_ms = sim_s *. 1e3 /. n;
        pq_ops = float_of_int (Obs.Metrics.value stats.Med.ops_query - ops0) /. n;
      },
      stats )
  in
  let uncached, _ = run ~cached:false in
  let cached, stats = run ~cached:true in
  {
    cw_queries = repeats;
    cw_uncached = uncached;
    cw_cached = cached;
    cw_hits = Obs.Metrics.value stats.Med.cache_hits;
    cw_misses = Obs.Metrics.value stats.Med.cache_misses;
  }

(* ---- report -------------------------------------------------------- *)

let json path cw =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"QP answer cache (bench/compiled.ml e15), simulated\",\n";
  p
    "  \"answer_cache\": {\"repeat_queries\": %d, \
     \"uncached_sim_ms_per_query\": %.3f, \"cached_sim_ms_per_query\": %.3f, \
     \"uncached_ops_per_query\": %.1f, \"cached_ops_per_query\": %.1f, \
     \"hits\": %d, \"misses\": %d}\n"
    cw.cw_queries cw.cw_uncached.pq_sim_ms cw.cw_cached.pq_sim_ms
    cw.cw_uncached.pq_ops cw.cw_cached.pq_ops cw.cw_hits cw.cw_misses;
  p "}\n";
  close_out oc

let run () =
  Tables.section "E15  QP answer cache";
  let cw = cache_workload () in
  let row mode pq = [ Tables.S mode; Tables.F pq.pq_sim_ms; Tables.F pq.pq_ops ] in
  Tables.print ~title:"repeated identical query (virtual attribute, fig1)"
    ~header:[ "mode"; "ms/query (sim)"; "tuple ops/query" ]
    [
      row "uncached (poll + VAP)" cw.cw_uncached;
      row "cached (hit)" cw.cw_cached;
    ];
  let path =
    match Sys.getenv_opt "BENCH4_JSON" with
    | Some p -> p
    | None -> "BENCH_4.json"
  in
  json path cw;
  Tables.note "wrote %s (cache run: %d hits / %d misses)\n" path cw.cw_hits
    cw.cw_misses
