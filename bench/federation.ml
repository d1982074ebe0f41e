(* E18 — sharded multi-mediator federation: scatter-gather scaling
   (PR 7).

   One logical system — the Fed_scenario exports Enriched (Items ⋈
   Tags) and Hot (σ amt≥90 Items) over ~10⁶ keys — hash-partitioned
   across N ∈ {1, 2, 4, 8} mediator shards, driven through the same
   deterministic mixed workload (~10⁵ single-key update transactions
   plus scatter/point queries). Time is the simulator's: each shard
   charges op_time per tuple it touches, and the coordinator overlaps
   shard sub-queries with Engine.parallel, so an N-shard scan costs
   the max of N partition scans, not their sum. The makespan is the
   completion time of the last scheduled operation; speedup_N is
   makespan_1 / makespan_N. With queries dominating (full-partition
   scans) the expected scaling is near-linear; the bench asserts
   speedup_8 >= 3 at the largest size and reports the 0.7·N target.

   Emits BENCH_7.json (path overridable via BENCH7_JSON). CI smoke
   runs cap the size sweep with BENCH_SIZES_MAX, as e10 does. *)

open Sim
open Squirrel
open Fed

let shard_counts = [ 1; 2; 4; 8 ]

let bench_config =
  Med.Config.make ~flush_interval:0.5 ~op_time:1e-6 ~release_history:true
    ~answer_cache_enabled:false ~trace_enabled:false ()

(* (keys, txs, queries) tiers; the cap drops tiers whose key count
   exceeds it, always keeping the smallest *)
let sizes () =
  let all =
    [ (20_000, 2_000, 48); (200_000, 20_000, 128); (1_000_000, 100_000, 128) ]
  in
  match Option.bind (Sys.getenv_opt "BENCH_SIZES_MAX") int_of_string_opt with
  | Some cap ->
    let kept = List.filter (fun (k, _, _) -> k <= cap) all in
    if kept = [] then [ List.hd all ] else kept
  | None -> all

type result = {
  r_keys : int;
  r_txs : int;
  r_queries : int;
  r_shards : int;
  r_makespan : float;  (** simulated seconds, workload start to last op *)
  r_throughput : float;  (** (txs + queries) per simulated second *)
  r_fanouts : int;
  r_single_shard : int;
  r_fresh : bool;  (** every answer (incl. finals) came back fresh *)
}

let spec ~keys ~txs ~queries =
  {
    Fed_workload.w_seed = 42;
    w_keys = keys;
    w_groups = 16;
    w_txs = txs;
    w_queries = queries;
    w_commit_start = 1.0;
    w_commit_horizon = 2.0;
    w_query_start = 1.5;
    w_query_horizon = 2.0;
  }

let run_config ~keys ~txs ~queries shards =
  let engine = Engine.create () in
  let fed =
    Coordinator.create ~engine
      ~vdp:(Fed_scenario.fed_vdp ())
      ~key:Fed_scenario.partition_key ~shards
      ~make_sources:(fun ~shard:_ -> Fed_scenario.make_sources ~engine ())
      ~config:bench_config ()
  in
  let spec = spec ~keys ~txs ~queries in
  let items, tags =
    Fed_scenario.base_bags ~seed:spec.Fed_workload.w_seed ~keys
      ~groups:spec.Fed_workload.w_groups
  in
  Coordinator.load fed "Items" items;
  Coordinator.load fed "Tags" tags;
  Engine.spawn engine (fun () -> Coordinator.initialize fed);
  Engine.run engine ~until:spec.Fed_workload.w_commit_start;
  let out = Fed_workload.run ~engine ~spec (Fed_workload.of_fed fed) in
  let fresh (a : Qp.answer) =
    match a.Qp.quality with Qp.Fresh -> true | Qp.Stale _ -> false
  in
  let counter name =
    Obs.Metrics.value (Obs.Metrics.counter (Coordinator.metrics fed) name)
  in
  let makespan =
    out.Fed_workload.o_last_done -. spec.Fed_workload.w_commit_start
  in
  {
    r_keys = keys;
    r_txs = txs;
    r_queries = queries;
    r_shards = shards;
    r_makespan = makespan;
    r_throughput = float_of_int (txs + queries) /. makespan;
    r_fanouts = counter "fed_fanouts";
    r_single_shard = counter "fed_single_shard";
    r_fresh =
      Array.for_all
        (fun (_, a) -> fresh a)
        out.Fed_workload.o_answers
      && List.for_all (fun (_, a) -> fresh a) out.Fed_workload.o_finals;
  }

let speedup base r = base.r_makespan /. r.r_makespan

let json path tiers =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p
    "  \"bench\": \"sharded federation: scatter-gather scaling \
     (bench/federation.ml e18)\",\n";
  p
    "  \"scenario\": \"Enriched = Items |X| Tags and Hot = sigma(amt>=90) \
     Items, hash-partitioned by key across N mediator shards; mixed \
     single-key update + scatter/point query workload under one simulated \
     clock; makespan = completion of the last operation\",\n";
  p "  \"results\": [\n";
  let ntiers = List.length tiers in
  List.iteri
    (fun ti (rs : result list) ->
      let base = List.hd rs in
      let n = List.length rs in
      List.iteri
        (fun i r ->
          p
            "    {\"keys\": %d, \"txs\": %d, \"queries\": %d, \"shards\": %d, \
             \"makespan_sim_s\": %.4f, \"throughput_ops_per_sim_s\": %.1f, \
             \"speedup\": %.2f, \"linear_fraction\": %.2f, \"fanout_queries\": \
             %d, \"single_shard_queries\": %d, \"all_fresh\": %b}%s\n"
            r.r_keys r.r_txs r.r_queries r.r_shards r.r_makespan r.r_throughput
            (speedup base r)
            (speedup base r /. float_of_int r.r_shards)
            r.r_fanouts r.r_single_shard r.r_fresh
            (if ti = ntiers - 1 && i = n - 1 then "" else ","))
        rs)
    tiers;
  p "  ],\n";
  let last = List.nth tiers (ntiers - 1) in
  let base = List.hd last in
  let at n =
    List.find_opt (fun r -> r.r_shards = n) last
    |> Option.map (fun r -> speedup base r)
  in
  let show = function Some s -> Printf.sprintf "%.2f" s | None -> "null" in
  p "  \"largest_size_speedups\": {\"s2\": %s, \"s4\": %s, \"s8\": %s},\n"
    (show (at 2)) (show (at 4)) (show (at 8));
  p "  \"near_linear_target\": \"speedup_N >= 0.7 * N at the largest size\",\n";
  p "  \"all_fresh\": %b\n"
    (List.for_all (fun rs -> List.for_all (fun r -> r.r_fresh) rs) tiers);
  p "}\n";
  close_out oc

let header =
  [
    "keys"; "txs"; "queries"; "shards"; "makespan(sim s)"; "ops/sim s";
    "speedup"; "x/N"; "fanout"; "1-shard"; "fresh";
  ]

let row base r =
  [
    Tables.I r.r_keys;
    I r.r_txs;
    I r.r_queries;
    I r.r_shards;
    F r.r_makespan;
    F r.r_throughput;
    F (speedup base r);
    F (speedup base r /. float_of_int r.r_shards);
    I r.r_fanouts;
    I r.r_single_shard;
    B r.r_fresh;
  ]

let run () =
  Tables.section
    "E18  sharded federation: scatter-gather scaling over N mediator shards";
  let tiers =
    List.map
      (fun (keys, txs, queries) ->
        List.map
          (fun shards ->
            let r = run_config ~keys ~txs ~queries shards in
            Tables.note "  keys=%d shards=%d done\n%!" keys shards;
            r)
          shard_counts)
      (sizes ())
  in
  List.iter
    (fun rs ->
      let base = List.hd rs in
      Tables.print
        ~title:
          (Printf.sprintf "%d keys, %d txs, %d queries" base.r_keys base.r_txs
             base.r_queries)
        ~header
        (List.map (row base) rs))
    tiers;
  let last = List.nth tiers (List.length tiers - 1) in
  let base = List.hd last in
  let s8 =
    match List.find_opt (fun r -> r.r_shards = 8) last with
    | Some r -> speedup base r
    | None -> 0.0
  in
  let all_fresh =
    List.for_all (fun rs -> List.for_all (fun r -> r.r_fresh) rs) tiers
  in
  Tables.note
    "largest size: speedup_8 = %.2f (gate: >= 3.0, near-linear target 5.6)\n"
    s8;
  let path =
    match Sys.getenv_opt "BENCH7_JSON" with
    | Some p -> p
    | None -> "BENCH_7.json"
  in
  json path tiers;
  Tables.note "wrote %s\n" path;
  if not all_fresh then (
    Tables.note "E18 FAILED: a degraded answer in a fault-free run\n";
    exit 1);
  (* the speedup gate only means something when the workload is
     service-bound, i.e. at the full size; smoke runs exercise the
     machinery without asserting scaling *)
  if base.r_keys >= 1_000_000 && s8 < 3.0 then (
    Tables.note "E18 FAILED: 8-shard speedup %.2f below the 3.0 gate\n" s8;
    exit 1)
