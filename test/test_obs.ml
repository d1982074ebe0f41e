(* The observability layer (PR 5): exact log-scale histogram buckets,
   trace determinism under a fixed seed, and span nesting across
   update transactions, deferral, and gap-triggered resync. *)

open Relalg
open Sim
open Sources
open Squirrel
open Workload

(* ---- metrics: exact histogram bucket boundaries ---------------------- *)

(* the upper boundary of the one bucket a single observation fills *)
let boundary ?base v =
  let h = Obs.Metrics.histogram (Obs.Metrics.create ()) ?base "b" in
  Obs.Metrics.observe h v;
  match Obs.Metrics.histogram_buckets h with
  | [ (b, 1) ] -> b
  | _ -> Alcotest.fail "expected one bucket"

let test_bucket_boundaries () =
  let chk msg expected v =
    Alcotest.(check (float 0.0)) msg expected (boundary v)
  in
  (* base 2: the boundary is the smallest 2^k >= v, computed by exact
     repeated doubling/halving — never log/exp *)
  chk "1.0 is its own boundary" 1.0 1.0;
  chk "1.5 rounds up to 2" 2.0 1.5;
  chk "2.0 is exact" 2.0 2.0;
  chk "2.0 + eps rounds up to 4" 4.0 2.000001;
  chk "3.0 rounds up to 4" 4.0 3.0;
  chk "1024 is exact" 1024.0 1024.0;
  chk "sub-one values get fractional buckets" 0.5 0.5;
  chk "0.3 rounds up to 0.5" 0.5 0.3;
  chk "0.25 is exact" 0.25 0.25;
  chk "zero lands in the zero bucket" 0.0 0.0;
  chk "negative lands in the zero bucket" 0.0 (-3.0);
  Alcotest.(check (float 0.0))
    "base 10: 7 rounds up to 10" 10.0
    (boundary ~base:10.0 7.0);
  Alcotest.(check (float 0.0))
    "base 10: 100 is exact" 100.0
    (boundary ~base:10.0 100.0)

let test_histogram_observe () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "t" in
  List.iter (Obs.Metrics.observe h) [ 0.0; 0.3; 0.5; 1.5; 1.5; 3.0; 100.0 ];
  Alcotest.(check int) "count" 7 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-9))
    "sum" 106.8
    (Obs.Metrics.histogram_sum h);
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets are exact boundaries, sorted"
    [ (0.0, 1); (0.5, 2); (2.0, 2); (4.0, 1); (128.0, 1) ]
    (Obs.Metrics.histogram_buckets h)

let test_counter_registry () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "hits" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  (* register-or-retrieve: same name, same cell *)
  let c' = Obs.Metrics.counter reg "hits" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "shared cell" 6 (Obs.Metrics.value c);
  let snap = Obs.Metrics.snapshot reg in
  Alcotest.(check (list (pair string int)))
    "snapshot" [ ("hits", 6) ]
    snap.Obs.Metrics.counters

(* ---- traces --------------------------------------------------------- *)

let run_workload ~seed () =
  let env = Scenario.make_fig1 ~seed () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ()
  in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  let rng = Datagen.state (seed * 31) in
  List.iter
    (fun (src, rel) ->
      Driver.update_process ~rng ~src:(Scenario.source env src)
        {
          Driver.u_relation = rel;
          u_interval = 0.3;
          u_count = 8;
          u_delete_fraction = 0.25;
          u_specs = Scenario.fig1_update_specs rel;
        })
    [ ("db1", "R"); ("db2", "S") ];
  Driver.query_process ~rng ~med
    {
      Driver.q_node = "T";
      q_interval = 0.7;
      q_count = 5;
      q_attr_sets = [ ([ "r1"; "r3"; "s1" ], Predicate.True) ];
    };
  Scenario.run_to_quiescence env med;
  med

let test_trace_determinism () =
  (* identical seeds must yield identical span trees — ids, names,
     nesting, simulated times, op counts, and attributes. The render
     includes all of them, so string equality is the strongest check *)
  let t1 = Obs.Trace.render (Mediator.trace (run_workload ~seed:5 ())) in
  let t2 = Obs.Trace.render (Mediator.trace (run_workload ~seed:5 ())) in
  Alcotest.(check bool) "traces are non-trivial" true (String.length t1 > 200);
  Alcotest.(check string) "same seed, same trace" t1 t2;
  let t3 = Obs.Trace.render (Mediator.trace (run_workload ~seed:6 ())) in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

let test_trace_simulated_time_only () =
  (* every recorded time must be a simulated-clock value well under
     the run horizon — wall-clock stamps would be ~1.7e9 *)
  let med = run_workload ~seed:5 () in
  Obs.Trace.iter_spans
    (fun sp ->
      if sp.Obs.Trace.start_time > 1e6 || sp.Obs.Trace.end_time > 1e6 then
        Alcotest.failf "span %s carries a wall-clock-sized timestamp"
          sp.Obs.Trace.name;
      if sp.Obs.Trace.end_time < sp.Obs.Trace.start_time then
        Alcotest.failf "span %s closes before it starts" sp.Obs.Trace.name)
    (Mediator.trace med)

let test_update_tx_nesting () =
  let med = run_workload ~seed:5 () in
  let txs = Tutil.find_spans (Mediator.trace med) "batch_tx" in
  Alcotest.(check bool) "batch transactions traced" true (txs <> []);
  List.iter
    (fun tx ->
      let names =
        List.map (fun c -> c.Obs.Trace.name) tx.Obs.Trace.children
      in
      (* every constituent announcement appears as an update_tx child,
         and the count matches the batch's entries attribute *)
      let constituents =
        List.length (List.filter (String.equal "update_tx") names)
      in
      Alcotest.(check string)
        "entries attribute counts the update_tx children"
        (string_of_int constituents)
        (Option.value (Obs.Trace.attr tx "entries") ~default:"<none>");
      Alcotest.(check bool) "constituent update_tx children" true
        (constituents > 0);
      Alcotest.(check bool)
        "temp determination child" true
        (List.mem "temp_determination" names);
      Alcotest.(check bool) "kernel pass child" true
        (List.mem "kernel_pass" names);
      Alcotest.(check bool) "apply child" true (List.mem "apply" names);
      match Obs.Trace.attr tx "outcome" with
      | Some "applied" -> ()
      | other ->
        Alcotest.failf "fault-free batch_tx outcome = %s"
          (Option.value other ~default:"<none>"))
    txs;
  let queries = Tutil.find_spans (Mediator.trace med) "query_tx" in
  Alcotest.(check bool) "queries traced" true (queries <> [])

let test_deferral_and_resync_spans () =
  (* the test_faults gap scenario, replayed against the trace: a lost
     announcement surfaces as a gap event, triggers a resync span, and
     any deferred update_tx is eventually followed by an applied one
     or a snapshot rebuild *)
  let env = Scenario.make_fig1 () in
  let config =
    Med.Config.make ~poll_timeout:0.5 ~poll_retries:2 ~poll_backoff:0.25 ()
  in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config ()
  in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  let db1 = Scenario.source env "db1" in
  let commit_r i =
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
  in
  let at d f = Engine.schedule env.Scenario.engine ~delay:d f in
  at 1.0 (fun () -> commit_r 1);
  (* this announcement dies on the wire; the next commit's
     prev_version exposes the loss *)
  at 2.0 (fun () -> Source_db.set_link_up (Adapter.db db1) false);
  at 2.1 (fun () -> commit_r 2);
  at 3.0 (fun () -> Source_db.set_link_up (Adapter.db db1) true);
  at 3.1 (fun () -> commit_r 3);
  Engine.run env.Scenario.engine ~until:(Engine.now env.Scenario.engine +. 5.0);
  Scenario.run_to_quiescence env med;
  let trace = Mediator.trace med in
  let roots = Obs.Trace.roots trace in
  let starts name =
    List.filter_map
      (fun sp ->
        if String.equal sp.Obs.Trace.name name then
          Some sp.Obs.Trace.start_time
        else None)
      roots
  in
  let gaps = starts "gap_detected" in
  let resyncs = starts "resync" in
  Alcotest.(check bool) "gap event recorded" true (gaps <> []);
  Alcotest.(check bool) "resync span recorded" true (resyncs <> []);
  List.iter
    (fun rt ->
      Alcotest.(check bool)
        "resync preceded by a gap event" true
        (List.exists (fun gt -> gt <= rt) gaps))
    resyncs;
  (* the resync span wraps the snapshot rebuild *)
  List.iter
    (fun sp ->
      if String.equal sp.Obs.Trace.name "resync" then
        Alcotest.(check bool)
          "snapshot nested under resync" true
          (List.exists
             (fun c -> String.equal c.Obs.Trace.name "snapshot")
             sp.Obs.Trace.children))
    roots

let test_disabled_trace_records_nothing () =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env
      ~annotation:(Scenario.ann_ex23 env.Scenario.vdp)
      ~config:(Med.Config.make ~trace_enabled:false ())
      ()
  in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  Scenario.run_to_quiescence env med;
  Alcotest.(check int)
    "no spans" 0
    (Obs.Trace.spans_recorded (Mediator.trace med))

let test_ring_retention () =
  let now = ref 0.0 in
  let t = Obs.Trace.create ~capacity:4 ~now:(fun () -> !now) () in
  for i = 1 to 10 do
    now := float_of_int i;
    Obs.Trace.set_attri t (Obs.Trace.root_event t "tick") "n" i
  done;
  Alcotest.(check int) "all recorded" 10 (Obs.Trace.spans_recorded t);
  Alcotest.(check int) "overflow counted" 6 (Obs.Trace.dropped_roots t);
  let kept =
    List.filter_map (fun sp -> Obs.Trace.attr sp "n") (Obs.Trace.roots t)
  in
  Alcotest.(check (list string))
    "ring keeps the most recent roots, oldest first"
    [ "7"; "8"; "9"; "10" ] kept

(* ---- trace storage: steady size and slot reuse ----------------------- *)

(* one update transaction's shape: five spans, each with four int
   attributes and one static-string attribute *)
let update_attrs t sp i =
  Obs.Trace.set_attri t sp "atoms" i;
  Obs.Trace.set_attri t sp "version" (i + 1);
  Obs.Trace.set_attri t sp "prev_version" i;
  Obs.Trace.set_attri t sp "depth" (i land 7);
  Obs.Trace.set_attr t sp "outcome" "applied"

let record_update_tree t i =
  Obs.Trace.with_span t "batch_tx" (fun tx ->
      update_attrs t tx i;
      Obs.Trace.with_span t "update_tx" (fun sp -> update_attrs t sp i);
      Obs.Trace.with_span t "kernel_pass" (fun kp ->
          update_attrs t kp i;
          Obs.Trace.with_span t "delta" (fun d -> update_attrs t d i));
      Obs.Trace.with_span t "apply" (fun ap -> update_attrs t ap i))

let test_steady_size () =
  let ops = ref 0 in
  let t =
    Obs.Trace.create ~capacity:1000
      ~now:(fun () -> 0.0)
      ~ops_counter:(fun () -> !ops)
      ()
  in
  let record ~from ~upto =
    for i = from to upto do
      ops := i;
      record_update_tree t i
    done
  in
  record ~from:1 ~upto:5_000;
  let size_half = Obj.reachable_words (Obj.repr t) in
  let words0 = Gc.minor_words () in
  record ~from:5_001 ~upto:10_000;
  let per_span = (Gc.minor_words () -. words0) /. 25_000.0 in
  let size_full = Obj.reachable_words (Obj.repr t) in
  Alcotest.(check int) "all but the last 1,000 trees evicted" 9_000
    (Obs.Trace.dropped_roots t);
  Alcotest.(check int)
    "the trace does not grow once the ring is full" size_half size_full;
  (* The recording itself allocates nothing. What remains is the
     closure each [with_span] call site above builds: 5 words with its
     header (code pointer, closure info, the captured [t] and [i]), and
     5.0 is what this loop measures. The bound of 8 leaves room for a
     compiler that closes over one more value, and fails as soon as
     recording boxes a span, an option, an attribute pair, a list cell
     or a number's text: each costs 3 words or more, per span or per
     attribute. *)
  if per_span > 8.0 then
    Alcotest.failf "%.1f minor words per recorded span (bound 8)" per_span

(* A list-based trace with the semantics of [Obs.Trace], built from
   records that are updated in place: the reference the slot-based
   trace must reproduce. *)
module Ref_trace = struct
  type node = {
    id : int;
    parent : int option;
    name : string;
    start : float;
    mutable stop : float;
    mutable ops : int;
    mutable attrs : (string * string) list;  (* newest first *)
    mutable children : node list;  (* newest first *)
  }

  type t = {
    capacity : int;
    now : unit -> float;
    counter : unit -> int;
    mutable ring : node list;  (* oldest first *)
    mutable dropped : int;
    mutable next_id : int;
    mutable stack : node list;
  }

  let create ~capacity ~now ~counter =
    { capacity; now; counter; ring = []; dropped = 0; next_id = 1; stack = [] }

  let fresh t ~parent name =
    let now = t.now () in
    let n =
      { id = t.next_id; parent; name; start = now; stop = now; ops = 0;
        attrs = []; children = [] }
    in
    t.next_id <- t.next_id + 1;
    n

  let push_root t n =
    t.ring <- t.ring @ [ n ];
    if List.length t.ring > t.capacity then begin
      t.ring <- List.tl t.ring;
      t.dropped <- t.dropped + 1
    end

  let with_span t name f =
    let parent = match t.stack with p :: _ -> Some p.id | [] -> None in
    let n = fresh t ~parent name in
    n.ops <- t.counter ();
    t.stack <- n :: t.stack;
    let v = f n in
    t.stack <- List.tl t.stack;
    n.stop <- t.now ();
    n.ops <- t.counter () - n.ops;
    (match t.stack with
    | p :: _ -> p.children <- n :: p.children
    | [] -> push_root t n);
    v

  let root_event t name =
    let n = fresh t ~parent:None name in
    push_root t n;
    n

  let set_attr n k v = n.attrs <- (k, v) :: n.attrs

  let rec span n =
    {
      Obs.Trace.id = n.id;
      parent = n.parent;
      name = n.name;
      start_time = n.start;
      end_time = n.stop;
      ops = n.ops;
      attrs = List.rev n.attrs;
      children = List.rev_map span n.children;
    }

  let roots t = List.map span t.ring

  let render t =
    let buf = Buffer.create 1024 in
    let rec pp indent (sp : Obs.Trace.span) =
      Printf.bprintf buf "%s%s [%d] %g..%g (ops %d)" indent sp.name sp.id
        sp.start_time sp.end_time sp.ops;
      List.iter (fun (k, v) -> Printf.bprintf buf " %s=%s" k v) sp.attrs;
      Buffer.add_char buf '\n';
      List.iter (pp (indent ^ "  ")) sp.children
    in
    List.iter (pp "") (roots t);
    Buffer.contents buf
end

let test_slot_reuse_matches_reference () =
  let clock = ref 0.0 and ops = ref 0 in
  let now () = !clock and counter () = !ops in
  let tick () =
    clock := !clock +. 0.5;
    ops := !ops + 3
  in
  let t = Obs.Trace.create ~capacity:3 ~now ~ops_counter:counter () in
  let r = Ref_trace.create ~capacity:3 ~now ~counter in
  (* each step records the same thing into both traces *)
  let span name f =
    Obs.Trace.with_span t name (fun sp ->
        Ref_trace.with_span r name (fun n ->
            tick ();
            f sp n;
            tick ()))
  in
  let int_attr sp n k v =
    Obs.Trace.set_attri t sp k v;
    Ref_trace.set_attr n k (string_of_int v)
  in
  let str_attr sp n k v =
    Obs.Trace.set_attr t sp k v;
    Ref_trace.set_attr n k v
  in
  let event name v =
    int_attr (Obs.Trace.root_event t name) (Ref_trace.root_event r name) "n" v
  in
  let check msg =
    Alcotest.(check int)
      (msg ^ ": dropped roots") r.Ref_trace.dropped
      (Obs.Trace.dropped_roots t);
    Alcotest.(check bool)
      (msg ^ ": retained trees") true
      (Obs.Trace.roots t = Ref_trace.roots r);
    Alcotest.(check string) (msg ^ ": render") (Ref_trace.render r)
      (Obs.Trace.render t)
  in
  (* a batch whose range holds a root event: the event is retained,
     and later evicted, before the batch that encloses it *)
  span "batch_tx" (fun tx n ->
      int_attr tx n "entries" 2;
      span "poll" (fun sp n ->
          event "enqueue" 1;
          str_attr sp n "source" "db1");
      event "enqueue" 2;
      span "apply" (fun sp n -> int_attr sp n "tables" 1);
      str_attr tx n "outcome" "applied");
  check "after the interleaved batch";
  (* enough roots of varying shape to wrap the ring several times *)
  for i = 1 to 12 do
    if i mod 3 = 0 then event "gap_detected" i
    else
      span "batch_tx" (fun tx n ->
          int_attr tx n "entries" i;
          for j = 1 to i mod 4 do
            span "delta" (fun d n ->
                str_attr d n "node" "T";
                int_attr d n "atoms" (i * j);
                if j = 2 then event "enqueue" (100 + i))
          done);
    check (Printf.sprintf "after root %d" i)
  done;
  Alcotest.(check bool) "the ring wrapped" true (Obs.Trace.dropped_roots t > 9)

let test_jsonl_export () =
  let med = run_workload ~seed:5 () in
  let jsonl = Obs.Trace.to_jsonl (Mediator.trace med) in
  let lines =
    List.filter (fun l -> String.length l > 0) (String.split_on_char '\n' jsonl)
  in
  let retained = ref 0 in
  Obs.Trace.iter_spans (fun _ -> incr retained) (Mediator.trace med);
  Alcotest.(check int) "one line per retained span" !retained
    (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        "line is a JSON object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* Run the CLI (or [exe]) with [args] and compare its standard output,
   line by line and without the lines [skip] picks, with the committed
   file golden/[golden]. *)
let check_cli_golden ?(exe = "../bin/squirrel_cli.exe") ?(skip = fun _ -> false)
    args golden =
  let out = Filename.temp_file "cli_golden" ".out" in
  let status = Sys.command (exe ^ " " ^ args ^ " > " ^ Filename.quote out) in
  let lines f =
    String.split_on_char '\n' (In_channel.with_open_bin f In_channel.input_all)
  in
  let got = List.filter (fun l -> not (skip l)) (lines out) in
  Sys.remove out;
  Alcotest.(check int) "exit status" 0 status;
  let want = lines (Filename.concat "golden" golden) in
  let rec first_diff n = function
    | w :: ws, g :: gs ->
      if String.equal w g then first_diff (n + 1) (ws, gs)
      else Alcotest.failf "line %d differs:\n  golden: %s\n  got:    %s" n w g
    | [], [] -> ()
    | _ :: _, [] | [], _ :: _ ->
      Alcotest.failf "line %d: golden has %d lines, the run %d" n
        (List.length want) (List.length got)
  in
  first_diff 1 (want, got)

(* The CLI's trace export of a fixed run, byte for byte against a
   committed golden file: a refactor of the event paths must leave the
   span trees, their attributes and their simulated times unchanged.
   When a change to the trace is intended, regenerate the file with
     dune exec bin/squirrel_cli.exe -- run fig1 -a ex23 -u 200 -q 20 \
       --report trace --jsonl - > test/golden/trace_fig1_ex23.jsonl *)
let test_jsonl_golden () =
  check_cli_golden "run fig1 -a ex23 -u 200 -q 20 --report trace --jsonl -"
    "trace_fig1_ex23.jsonl"

(* Every catalogue (scenario, annotation) pair under a short load, and
   two chaos cells, against committed outputs: the profile, metrics,
   stats and freshness reports pin what the answer cache stores,
   maintains, evicts and drops (fig1/retail/federated serve maintained
   entries; fig1/ex23 and ex51 invalidate), and the reorder cell's
   resyncs flush it. Regenerate a file with the command its test runs,
   e.g.
     dune exec bin/squirrel_cli.exe -- run fig1 -a ex23 -u 40 -q 20 \
       --report profile,metrics,stats,freshness > test/golden/run_fig1_ex23.txt *)
let catalogue =
  [
    ("fig1", [ "ex21"; "ex22"; "ex23"; "virtual"; "warehouse" ]);
    ("retail", [ "hybrid"; "materialized"; "virtual"; "warehouse" ]);
    ("federated", [ "materialized"; "virtual"; "warehouse" ]);
    ("ex51", [ "paper"; "materialized"; "virtual"; "warehouse" ]);
  ]

let run_golden_cases =
  List.concat_map
    (fun (sc, anns) ->
      List.map
        (fun ann ->
          Alcotest.test_case
            (Printf.sprintf "run %s %s matches its golden" sc ann)
            `Quick
            (fun () ->
              check_cli_golden
                (Printf.sprintf
                   "run %s -a %s -u 40 -q 20 --report \
                    profile,metrics,stats,freshness"
                   sc ann)
                (Printf.sprintf "run_%s_%s.txt" sc ann)))
        anns)
    catalogue

(* The paper's experiments e1-e9, whose e6 (ECA ablation) and e7
   (Theorem 7.2 bound) run through the update queue and the answer
   cache, against a committed output; the closing host-time line is
   left out. Regenerate with
     dune exec bench/main.exe -- e1 e2 e3 e4 e5 e6 e7 e8 e9 | head -n -1 \
       > test/golden/experiments_e1_e9.txt *)
let test_experiments_golden () =
  check_cli_golden ~exe:"../bench/main.exe"
    ~skip:(String.starts_with ~prefix:"all experiments done in ")
    "e1 e2 e3 e4 e5 e6 e7 e8 e9" "experiments_e1_e9.txt"

(* E11, Sec. 6.2's source-side filtering: shipped atoms per irrelevant
   fraction, filtered and not, on the simulated clock. Regenerate with
     dune exec bench/main.exe -- e11 | head -n -1 \
       > test/golden/experiments_e11.txt *)
let test_e11_golden () =
  check_cli_golden ~exe:"../bench/main.exe"
    ~skip:(String.starts_with ~prefix:"all experiments done in ")
    "e11" "experiments_e11.txt"

let chaos_golden_cases =
  List.map
    (fun (profile, seed) ->
      Alcotest.test_case
        (Printf.sprintf "chaos fig1 %s seed %d matches its golden" profile seed)
        `Quick
        (fun () ->
          check_cli_golden
            (Printf.sprintf "chaos fig1 --profile %s --seed %d" profile seed)
            (Printf.sprintf "chaos_fig1_%s_%d.txt" profile seed)))
    [ ("reorder", 3); ("outage", 2) ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "counter registry" `Quick test_counter_registry;
        ] );
      ( "trace",
        [
          Alcotest.test_case "determinism" `Quick test_trace_determinism;
          Alcotest.test_case "simulated time only" `Quick
            test_trace_simulated_time_only;
          Alcotest.test_case "update_tx nesting" `Quick test_update_tx_nesting;
          Alcotest.test_case "deferral + resync spans" `Quick
            test_deferral_and_resync_spans;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_trace_records_nothing;
          Alcotest.test_case "ring retention" `Quick test_ring_retention;
          Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
          Alcotest.test_case "jsonl matches the golden run" `Quick
            test_jsonl_golden;
          Alcotest.test_case "steady size under a full ring" `Quick
            test_steady_size;
          Alcotest.test_case "slot reuse matches a list-based trace" `Quick
            test_slot_reuse_matches_reference;
        ] );
      ( "cli goldens",
        run_golden_cases @ chaos_golden_cases
        @ [
            Alcotest.test_case "experiments e1-e9 match their golden" `Quick
              test_experiments_golden;
            Alcotest.test_case "experiment e11 matches its golden" `Quick
              test_e11_golden;
          ] );
    ]
