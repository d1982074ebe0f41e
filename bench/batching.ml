(* E20 — group-commit update batching.

   Two Figure 1 experiments over the Example 2.3 hybrid annotation
   (every kernel pass needs a VAP round, and the channel delays make
   that round dominate the pass — the regime where amortizing it pays):

   1. {b announcement-heavy}: a burst of single-tuple commits from both
      sources is applied at batch caps {1, 4, 16, 64}. Cap 1 is the
      paper-faithful one-transaction-per-pass IUP; larger caps fold the
      queue into coalesced super-deltas, paying one temp-determination
      / VAP / kernel-pass / apply cycle per batch. Gate: mean update
      throughput (constituent transactions per unit of update
      processing time) at cap >= 16 must be at least 2x cap 1.

   2. {b churn-heavy}: insert-then-delete pairs of the same tuple. With
      cap 1 every insert and delete propagates through the kernel; with
      cap >= 2 the +t/-t pairs annihilate inside the signed-bag smash
      and the coalesced delta shrinks before any rule fires. Gate:
      annihilated pairs stay 0 at cap 1, turn positive at cap >= 4, and
      the propagated-atom count drops.

   Every cell must pass the Sec. 3 consistency checker, which also
   validates the advertised version intervals (a batch is its
   constituent transactions applied atomically).

   Results go to BENCH_9.json (path overridable via BENCH9_JSON).
   BENCH_SIZES_MAX trims the cap sweep to {1, 16} for CI smoke runs. *)

open Delta
open Sim
open Sources
open Squirrel
open Correctness
open Workload

let seed = 11
let ann_updates = 60 (* per source *)
let churn_pairs = 48

(* poll-bound channel: one VAP round costs ~0.4 simulated time units
   against an op_time of 1e-4 per tuple operation, so the per-pass
   fixed cost dwarfs the per-transaction marginal cost *)
let delays _ = { Med.comm_delay = 0.15; q_proc_delay = 0.05 }

let caps () =
  match Sys.getenv_opt "BENCH_SIZES_MAX" with
  | Some _ -> [ 1; 16 ]
  | None -> [ 1; 4; 16; 64 ]

type cell = {
  b_cap : int;
  b_batches : int;
  b_txs : int;  (** constituent announcements applied *)
  b_mean_batch : float;
  b_update_time : float;  (** summed batch_tx durations *)
  b_throughput : float;  (** txs per unit of update processing time *)
  b_annihilated : int;
  b_propagated : int;
  b_consistent : bool;
}

let make_mediator env ~cap =
  Scenario.mediator env
    ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
    ~config:
      (Med.Config.make ~op_time:1e-4 ~flush_interval:2.0 ~max_batch:cap
         ~delays ())
    ()

let measure env med ~cap ~drive =
  let engine = env.Scenario.engine in
  Engine.spawn engine (fun () -> Mediator.initialize med);
  Engine.run engine ~until:1.0;
  let s = Mediator.stats med in
  (* steady state from here: initialization is excluded *)
  let batches0 = Obs.Metrics.value s.Med.update_txs in
  let txs0 = Obs.Metrics.value s.Med.coalesced_txs in
  let annihilated0 = Obs.Metrics.value s.Med.annihilated_pairs in
  let propagated0 = Obs.Metrics.value s.Med.propagated_atoms in
  let time0 = Obs.Metrics.histogram_sum s.Med.update_tx_time in
  drive ();
  Scenario.run_to_quiescence env med;
  let report =
    Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
      ~events:(Mediator.events med) ()
  in
  let batches = Obs.Metrics.value s.Med.update_txs - batches0 in
  let txs = Obs.Metrics.value s.Med.coalesced_txs - txs0 in
  let time = Obs.Metrics.histogram_sum s.Med.update_tx_time -. time0 in
  {
    b_cap = cap;
    b_batches = batches;
    b_txs = txs;
    b_mean_batch =
      (if batches = 0 then 0.0 else float_of_int txs /. float_of_int batches);
    b_update_time = time;
    b_throughput = (if time <= 0.0 then 0.0 else float_of_int txs /. time);
    b_annihilated = Obs.Metrics.value s.Med.annihilated_pairs - annihilated0;
    b_propagated = Obs.Metrics.value s.Med.propagated_atoms - propagated0;
    b_consistent = Checker.consistent report;
  }

(* --- announcement-heavy: random single-tuple commits ------------------- *)

let run_announcement ~cap =
  let env = Scenario.make_fig1 ~seed ~r_size:120 ~s_size:60 () in
  let med = make_mediator env ~cap in
  measure env med ~cap ~drive:(fun () ->
      let rng = Datagen.state ((seed * 31) + 7) in
      List.iter
        (fun (src_name, rel) ->
          Driver.update_process ~rng ~src:(Scenario.source env src_name)
            {
              Driver.u_relation = rel;
              u_interval = 0.1;
              u_count = ann_updates;
              u_delete_fraction = 0.25;
              u_specs = Scenario.fig1_update_specs rel;
            })
        [ ("db1", "R"); ("db2", "S") ])

(* --- churn-heavy: insert-then-delete pairs ----------------------------- *)

let run_churn ~cap =
  let env = Scenario.make_fig1 ~seed:(seed + 3) ~r_size:120 ~s_size:60 () in
  let med = make_mediator env ~cap in
  measure env med ~cap ~drive:(fun () ->
      let engine = env.Scenario.engine in
      let src = Scenario.source env "db1" in
      let schema = Adapter.schema src "R" in
      let rng = Datagen.state ((seed * 43) + 9) in
      let specs = Scenario.fig1_update_specs "R" in
      Engine.spawn engine (fun () ->
          for i = 1 to churn_pairs do
            Engine.sleep engine 0.05;
            (* fresh key: the insert replaces nothing, so the delete
               below is its exact inverse and the pair must cancel *)
            let tuple =
              Datagen.keyed_tuple rng schema specs ~key_seed:(5_000_000 + i)
            in
            Adapter.commit src
              (Multi_delta.singleton "R"
                 (Rel_delta.insert (Rel_delta.empty schema) tuple));
            Adapter.commit src
              (Multi_delta.singleton "R"
                 (Rel_delta.delete (Rel_delta.empty schema) tuple))
          done))

(* --- harness ----------------------------------------------------------- *)

let find_cap cells cap = List.find (fun c -> c.b_cap = cap) cells

let json path ~ann_cells ~churn_cells ~speedup ~churn_wins ~pass =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  let cell_rows cells =
    let n = List.length cells in
    List.iteri
      (fun i c ->
        p
          "    {\"max_batch\": %d, \"batches\": %d, \"txs\": %d, \
           \"mean_batch\": %.2f, \"update_time\": %.4f, \"throughput\": \
           %.2f, \"annihilated_pairs\": %d, \"propagated_atoms\": %d, \
           \"consistent\": %b}%s\n"
          c.b_cap c.b_batches c.b_txs c.b_mean_batch c.b_update_time
          c.b_throughput c.b_annihilated c.b_propagated c.b_consistent
          (if i = n - 1 then "" else ","))
      cells
  in
  p "{\n";
  p "  \"bench\": \"group-commit update batching (bench/batching.ml e20)\",\n";
  p
    "  \"scenario\": \"fig1/ex23 hybrid under poll-bound channel delays; \
     batch cap sweep over an announcement burst and an insert-delete churn \
     stream\",\n";
  p "  \"announcement_heavy\": [\n";
  cell_rows ann_cells;
  p "  ],\n";
  p "  \"churn_heavy\": [\n";
  cell_rows churn_cells;
  p "  ],\n";
  p "  \"throughput_speedup_cap16_vs_cap1\": %.2f,\n" speedup;
  p "  \"churn_annihilation_win\": %b,\n" churn_wins;
  p "  \"pass\": %b\n" pass;
  p "}\n";
  close_out oc

let cell_table cells =
  List.map
    (fun c ->
      [
        Tables.I c.b_cap;
        I c.b_batches;
        I c.b_txs;
        F c.b_mean_batch;
        F c.b_update_time;
        F c.b_throughput;
        I c.b_annihilated;
        I c.b_propagated;
        B c.b_consistent;
      ])
    cells

let header =
  [
    "cap"; "batches"; "txs"; "mean batch"; "upd time"; "tx/time"; "annihil";
    "propagated"; "consistent";
  ]

let run () =
  Tables.section "E20  group-commit update batching";
  let caps = caps () in
  let ann_cells = List.map (fun cap -> run_announcement ~cap) caps in
  Tables.print
    ~title:
      "announcement-heavy burst (120 single-tuple commits, poll-bound passes)"
    ~header (cell_table ann_cells);
  let base = find_cap ann_cells 1 in
  let big =
    List.filter (fun c -> c.b_cap >= 16) ann_cells
    |> List.fold_left
         (fun acc c -> if c.b_throughput > acc.b_throughput then c else acc)
         base
  in
  let speedup =
    if base.b_throughput <= 0.0 then Float.infinity
    else big.b_throughput /. base.b_throughput
  in
  Tables.note
    "update throughput, best cap >= 16 vs cap 1: %.1fx (gate: >= 2x)\n"
    speedup;
  let churn_cells = List.map (fun cap -> run_churn ~cap) caps in
  Tables.print
    ~title:"churn-heavy stream (insert-then-delete pairs of the same tuple)"
    ~header (cell_table churn_cells);
  let churn1 = find_cap churn_cells 1 in
  let churn_big = List.find (fun c -> c.b_cap >= 4) (List.rev churn_cells) in
  let churn_wins =
    churn1.b_annihilated = 0
    && churn_big.b_annihilated > 0
    && churn_big.b_propagated < churn1.b_propagated
  in
  Tables.note
    "churn annihilation: cap 1 cancels %d pairs, cap %d cancels %d and \
     propagates %d atoms vs %d (win: %s)\n"
    churn1.b_annihilated churn_big.b_cap churn_big.b_annihilated
    churn_big.b_propagated churn1.b_propagated
    (if churn_wins then "yes" else "NO");
  let all_consistent =
    List.for_all (fun c -> c.b_consistent) (ann_cells @ churn_cells)
  in
  let pass = all_consistent && speedup >= 2.0 && churn_wins in
  let path =
    match Sys.getenv_opt "BENCH9_JSON" with
    | Some p -> p
    | None -> "BENCH_9.json"
  in
  json path ~ann_cells ~churn_cells ~speedup ~churn_wins ~pass;
  Tables.note "wrote %s\n" path;
  if not pass then (
    Tables.note "E20 FAILED\n";
    exit 1)
