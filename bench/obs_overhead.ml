(* E16 — observability overhead (PR 5).

   The tracing layer promises to be cheap enough to leave on: spans
   are created per transaction, not per tuple, and land in a
   preallocated ring. This experiment prices that promise on the two
   e15-shaped hot paths where instrumentation sits closest to the
   work:

   1. update churn — fig1 under the fully-materialized Example 2.1
      annotation; every flush runs the IUP (temp determination,
      kernel pass over the compiled chain/SPJ delta rules, apply),
      each wrapped in child spans;
   2. repeat query — the e15 answer-cache workload; every repetition
      is a cache hit whose whole cost is a hash lookup plus one
      query_tx root span.

   Each workload runs with tracing enabled and disabled
   (Config.trace_enabled) interleaved, taking the fastest of [reps]
   runs per mode: both modes see the same best-case machine state, so
   scheduler and allocator noise cancels. Overhead must
   stay under [threshold_pct] on both. Emits BENCH_5.json (path
   overridable via BENCH5_JSON). *)

open Sim
open Squirrel
open Workload

let threshold_pct = 5.0
let reps = 15

let scale cap n = min n (max 10 cap)

let cap () =
  match Option.bind (Sys.getenv_opt "BENCH_SIZES_MAX") int_of_string_opt with
  | Some c -> c
  | None -> max_int

(* ---- workloads ------------------------------------------------------ *)

(* update churn through the IUP: wall-clock of driving the commits
   through flush, kernel pass, and apply. Timing starts after the
   mediator initializes so both modes begin from identical state. *)
let update_workload ~trace () =
  let updates = scale (cap ()) 400 in
  let config = Med.Config.make ~op_time:0.0 ~trace_enabled:trace () in
  let env = Scenario.make_fig1 ~seed:7 ~r_size:1_000 ~s_size:200 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex21 env.Scenario.vdp)
      ~config ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let rng = Datagen.state 11 in
  List.iter
    (fun (src, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src)
        {
          Driver.u_relation = rel;
          u_interval = 0.05;
          u_count = updates;
          u_delete_fraction = 0.3;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  let t0 = Unix.gettimeofday () in
  Scenario.run_to_quiescence env med;
  (Unix.gettimeofday () -. t0, med)

(* repeat query against the warmed answer cache: the per-repetition
   cost is one lookup, so any span-creation overhead shows directly *)
let query_workload ~trace () =
  let repeats = scale (cap ()) 10_000 in
  let config = Med.Config.make ~op_time:0.0 ~trace_enabled:trace () in
  let env = Scenario.make_fig1 ~seed:7 ~r_size:1_000 ~s_size:200 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config ()
  in
  Engine.run_process env.Scenario.engine (fun () -> Mediator.initialize med);
  let q () = ignore (Mediator.query med ~node:"T" ~attrs:[ "r1"; "r3" ] ()) in
  Engine.run_process env.Scenario.engine q;
  let t0 = Unix.gettimeofday () in
  Engine.run_process env.Scenario.engine (fun () ->
      for _ = 1 to repeats do
        q ()
      done);
  (Unix.gettimeofday () -. t0, med)

type row = {
  o_workload : string;
  o_disabled_s : float;
  o_enabled_s : float;
  o_overhead_pct : float;
  o_spans : int;
}

let measure name workload =
  let run mode =
    Gc.compact ();
    let dt, med = workload ~trace:mode () in
    (dt, Obs.Trace.spans_recorded (Mediator.trace med))
  in
  (* warm both paths outside the clock, then interleave the modes so
     slow drift (frequency scaling, page cache) hits both equally *)
  ignore (run false);
  ignore (run true);
  let off = ref [] and on_ = ref [] in
  for _ = 1 to reps do
    off := run false :: !off;
    on_ := run true :: !on_
  done;
  let fastest l = List.fold_left (fun a (dt, _) -> Float.min a dt) infinity l in
  let disabled = fastest !off in
  let enabled = fastest !on_ in
  let no_spans = List.fold_left (fun a (_, n) -> max a n) 0 !off in
  let spans = List.fold_left (fun a (_, n) -> max a n) 0 !on_ in
  if no_spans <> 0 then failwith "disabled trace recorded spans";
  {
    o_workload = name;
    o_disabled_s = disabled;
    o_enabled_s = enabled;
    o_overhead_pct = (enabled -. disabled) /. disabled *. 100.0;
    o_spans = spans;
  }

(* ---- report --------------------------------------------------------- *)

let json path rows ~all_ok =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"observability overhead (bench/obs.ml e16)\",\n";
  p
    "  \"baseline\": \"same workload with Config.trace_enabled = false (spans \
     skipped, metrics still on)\",\n";
  p "  \"threshold_pct\": %.1f,\n" threshold_pct;
  p "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      p
        "    {\"workload\": %S, \"disabled_s\": %.4f, \"enabled_s\": %.4f, \
         \"overhead_pct\": %.2f, \"spans_recorded\": %d}%s\n"
        r.o_workload r.o_disabled_s r.o_enabled_s r.o_overhead_pct r.o_spans
        (if i = n - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"all_under_threshold\": %b\n" all_ok;
  p "}\n";
  close_out oc

let run () =
  Tables.section "E16  observability overhead: tracing on vs off";
  let rows =
    [
      measure "update_churn (IUP kernel passes)" update_workload;
      measure "repeat_query (cache hits)" query_workload;
    ]
  in
  Tables.print ~title:"best-of wall clock per workload"
    ~header:[ "workload"; "off (s)"; "on (s)"; "overhead"; "spans" ]
    (List.map
       (fun r ->
         [
           Tables.S r.o_workload;
           Tables.F r.o_disabled_s;
           F r.o_enabled_s;
           S (Printf.sprintf "%.2f%%" r.o_overhead_pct);
           I r.o_spans;
         ])
       rows);
  let all_ok =
    List.for_all (fun r -> r.o_overhead_pct < threshold_pct) rows
  in
  let path =
    match Sys.getenv_opt "BENCH5_JSON" with
    | Some p -> p
    | None -> "BENCH_5.json"
  in
  json path rows ~all_ok;
  Tables.note "wrote %s (threshold %.1f%%)\n" path threshold_pct;
  if not all_ok then (
    Tables.note "E16 FAILED: tracing overhead above %.1f%%\n" threshold_pct;
    exit 1)
