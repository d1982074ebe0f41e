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
    Obs.Trace.enqueue t ~source:"db1" ~version:i ~atoms:1 ~depth:1
  done;
  Alcotest.(check int) "all recorded" 10 (Obs.Trace.spans_recorded t);
  Alcotest.(check int) "overflow counted" 6 (Obs.Trace.dropped_roots t);
  let kept =
    List.filter_map (fun sp -> Obs.Trace.attr sp "version") (Obs.Trace.roots t)
  in
  Alcotest.(check (list string))
    "ring keeps the most recent roots, oldest first"
    [ "7"; "8"; "9"; "10" ] kept

(* ---- trace storage: steady size and the records' trees -------------- *)

(* one update transaction's shape, as the mediator records it: the
   enqueue event, and a batch of one announcement whose kernel pass
   computes one delta — seven spans *)
let update_spans = 7

let record_update t i =
  Obs.Trace.enqueue t ~source:"db1" ~version:(i + 1) ~atoms:i ~depth:(i land 7);
  Obs.Trace.batch t ~entries:1 (fun () ->
      Obs.Trace.update_tx t ~source:"db1" ~version:(i + 1) ~prev_version:i
        ~atoms:i;
      Obs.Trace.coalesced t ~atoms:i ~raw_atoms:i;
      Obs.Trace.temp_determination t (fun () ->
          Obs.Trace.determined t ~affected:i ~requests:0);
      Obs.Trace.kernel_pass t (fun () ->
          Obs.Trace.delta t ~node:"T" (fun () -> Obs.Trace.delta_atoms t i);
          Obs.Trace.kernel_nodes t 2);
      Obs.Trace.apply t ~tables:1 (fun () -> ());
      Obs.Trace.batch_outcome t Obs.Trace.Applied)

let test_steady_size () =
  let ops = ref 0 in
  let trace enabled =
    Obs.Trace.create ~capacity:1000 ~enabled
      ~now:(fun () -> 0.0)
      ~ops_counter:(fun () -> !ops)
      ()
  in
  let t = trace true in
  let record t ~from ~upto =
    for i = from to upto do
      ops := i;
      record_update t i
    done
  in
  record t ~from:1 ~upto:5_000;
  let size_half = Obj.reachable_words (Obj.repr t) in
  let words0 = Gc.minor_words () in
  record t ~from:5_001 ~upto:10_000;
  let traced = Gc.minor_words () -. words0 in
  let size_full = Obj.reachable_words (Obj.repr t) in
  (* the same loop into a disabled trace: what the closures at the
     call sites above allocate, with nothing recorded *)
  let off = trace false in
  let words0 = Gc.minor_words () in
  record off ~from:5_001 ~upto:10_000;
  let untraced = Gc.minor_words () -. words0 in
  let per_span = (traced -. untraced) /. float_of_int (5_000 * update_spans) in
  Alcotest.(check int) "all but the last 1,000 roots evicted" 19_000
    (Obs.Trace.dropped_roots t);
  Alcotest.(check int)
    "the trace does not grow once the ring is full" size_half size_full;
  (* The enqueue record is one 6-word block, and the batch is one
     8-word record plus its three columns, 25 + 12 + 3 words with
     their headers: 54 words for seven spans, 7.7 each. The bound of
     8 fails as soon as a span costs a block of its own, an option,
     an attribute pair, a list cell or a number's text. *)
  if per_span > 8.0 then
    Alcotest.failf "%.1f minor words per recorded span (bound 8)" per_span

(* A list-based trace with the semantics of [Obs.Trace], built from
   generic spans that are updated in place: the reference the typed
   records must reproduce. *)
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

let test_records_match_reference () =
  let clock = ref 0.0 and ops = ref 0 in
  let now () = !clock and counter () = !ops in
  let tick () =
    clock := !clock +. 0.5;
    ops := !ops + 3
  in
  let t = Obs.Trace.create ~capacity:3 ~now ~ops_counter:counter () in
  let r = Ref_trace.create ~capacity:3 ~now ~counter in
  (* each step records the same thing into both traces: [typed] opens
     the record, the reference span opens inside it at the same
     instant, and time and ops advance inside both *)
  let span typed name f =
    typed (fun () ->
        Ref_trace.with_span r name (fun n ->
            tick ();
            let v = f n in
            tick ();
            v))
  in
  let attrs n kvs = List.iter (fun (k, v) -> Ref_trace.set_attr n k v) kvs in
  let i = string_of_int in
  let enqueue v =
    Obs.Trace.enqueue t ~source:"db2" ~version:v ~atoms:1 ~depth:v;
    attrs (Ref_trace.root_event r "enqueue")
      [ ("source", "db2"); ("version", i v); ("atoms", "1"); ("depth", i v) ]
  in
  let gap v =
    let prev_version = if v mod 2 = 0 then Some (v - 2) else None in
    Obs.Trace.gap_detected t ~source:"db1" ~via:"desync" ~prev_version
      ~version:v ~seen:(v - 1);
    attrs (Ref_trace.root_event r "gap_detected")
      ((("source", "db1")
        ::
        (match prev_version with
        | Some p -> [ ("prev_version", i p); ("version", i v) ]
        | None -> [ ("answer_version", i v) ]))
      @ [ ("seen", i (v - 1)); ("via", "desync") ])
  in
  let update_tx v =
    Obs.Trace.update_tx t ~source:"db1" ~version:v ~prev_version:(v - 1)
      ~atoms:2;
    Ref_trace.with_span r "update_tx" (fun n ->
        attrs n
          [ ("source", "db1"); ("version", i v); ("prev_version", i (v - 1));
            ("atoms", "2") ])
  in
  (* a poll of one attempt that succeeds and one that fails, whose
     range holds a root event *)
  let poll ~event =
    span (Obs.Trace.poll t ~source:"db1") "poll" (fun n ->
        attrs n [ ("source", "db1") ];
        span (Obs.Trace.attempt t ~n:1) "attempt" (fun a ->
            if event > 0 then enqueue event;
            Obs.Trace.attempt_result t "ok";
            attrs a [ ("n", "1"); ("result", "ok") ]);
        Obs.Trace.poll_attempts t 1 ~exhausted:false;
        attrs n [ ("attempts", "1") ])
  in
  let vap kind =
    span (Obs.Trace.vap t ~kind) "vap" (fun n ->
        attrs n [ ("kind", kind) ];
        poll ~event:0;
        span (Obs.Trace.eca t ~source:"db1" ~node:"R'") "eca" (fun e ->
            Obs.Trace.eca_unseen t 4;
            attrs e [ ("source", "db1"); ("node", "R'"); ("unseen_atoms", "4") ]);
        span (Obs.Trace.temp t ~node:"T") "temp" (fun e ->
            Obs.Trace.temp_tuples t 17;
            attrs e [ ("node", "T"); ("tuples", "17") ]);
        Obs.Trace.vap_temps t 2;
        attrs n [ ("temps", "2") ])
  in
  let batch ~entries ~deltas ~outcome =
    span (Obs.Trace.batch t ~entries) "batch_tx" (fun n ->
        attrs n [ ("entries", i entries) ];
        for v = 1 to entries do
          update_tx v
        done;
        Obs.Trace.coalesced t ~atoms:(2 * entries) ~raw_atoms:(4 * entries);
        attrs n
          [ ("atoms", i (2 * entries)); ("raw_atoms", i (4 * entries));
            ("annihilated_pairs", i entries) ];
        span (Obs.Trace.temp_determination t) "temp_determination" (fun d ->
            Obs.Trace.determined t ~affected:3 ~requests:deltas;
            attrs d [ ("affected", "3"); ("requests", i deltas) ]);
        if deltas > 0 then vap "update";
        enqueue (100 + entries);
        span (Obs.Trace.kernel_pass t) "kernel_pass" (fun k ->
            for j = 1 to deltas do
              span (Obs.Trace.delta t ~node:"T") "delta" (fun d ->
                  if j = 2 then enqueue (200 + entries);
                  Obs.Trace.delta_atoms t (entries * j);
                  attrs d [ ("node", "T"); ("atoms", i (entries * j)) ])
            done;
            Obs.Trace.kernel_nodes t deltas;
            attrs k [ ("nodes", i deltas) ]);
        span (Obs.Trace.apply t ~tables:1) "apply" (fun a ->
            attrs a [ ("tables", "1") ]);
        Obs.Trace.batch_outcome t outcome;
        attrs n
          (match outcome with
          | Obs.Trace.Applied -> [ ("outcome", "applied") ]
          | Obs.Trace.Self_maintained ->
            [ ("served", "self_maintained"); ("outcome", "applied") ]
          | Obs.Trace.Deferred e -> [ ("outcome", "deferred"); ("error", e) ]))
  in
  let query ~id_seen =
    span
      (fun f -> Obs.Trace.query_tx t ~node:"T" (fun id -> id_seen := id; f ()))
      "query_tx"
      (fun n ->
        attrs n [ ("node", "T") ];
        vap "query";
        Obs.Trace.served t "vap";
        attrs n [ ("served", "vap") ])
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
  (* a batch whose range holds root events: they are retained, and
     later evicted, before the batch that encloses them *)
  batch ~entries:2 ~deltas:1 ~outcome:Obs.Trace.Applied;
  check "after the interleaved batch";
  (* an SLO pre-poll drains the queue: batches nest under its scope *)
  span (Obs.Trace.slo_poll t ~sources:"db1") "slo_poll" (fun n ->
      attrs n [ ("sources", "db1") ];
      poll ~event:7;
      batch ~entries:1 ~deltas:2 ~outcome:Obs.Trace.Applied;
      batch ~entries:3 ~deltas:0 ~outcome:(Obs.Trace.Deferred "Desync"));
  check "after batches under a scope";
  (* enough roots of varying shape to wrap the ring several times *)
  for v = 1 to 12 do
    (match v mod 4 with
    | 0 -> gap v
    | 1 ->
      let id_seen = ref None in
      query ~id_seen;
      Alcotest.(check bool) "the query's id names its span" true
        (match !id_seen with
        | Some id -> (
          match Obs.Trace.find t id with
          | Some sp -> String.equal sp.Obs.Trace.name "query_tx"
          | None -> false)
        | None -> false)
    | 2 ->
      batch ~entries:((v mod 3) + 1) ~deltas:(v mod 3)
        ~outcome:Obs.Trace.Self_maintained
    | _ -> batch ~entries:1 ~deltas:2 ~outcome:(Obs.Trace.Deferred "Poll_failed"));
    check (Printf.sprintf "after root %d" v)
  done;
  Alcotest.(check bool) "the ring wrapped" true (Obs.Trace.dropped_roots t > 9)

(* A query answer names the span that computed it: on a seeded
   fig1/ex23 run, every fresh computed answer's [trace_id] resolves to
   a retained query_tx span whose [served] attribute names the rung
   the counters saw answer it. *)
let test_answer_trace_id () =
  let env = Scenario.make_fig1 ~seed:7 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) ()
  in
  Engine.spawn env.Scenario.engine (fun () -> Mediator.initialize med);
  Engine.run env.Scenario.engine ~until:1.0;
  let rng = Datagen.state 77 in
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
  let s = Mediator.stats med in
  let count c = Obs.Metrics.value c in
  let shapes =
    [
      ([ "r1"; "s1" ], Predicate.True);
      ([ "r1"; "r3"; "s1" ], Predicate.True);
      ([ "r1"; "r3"; "s1"; "s2" ], Predicate.True);
    ]
  in
  let rungs = ref [] in
  Engine.spawn env.Scenario.engine (fun () ->
      for k = 1 to 12 do
        Engine.sleep env.Scenario.engine 0.4;
        let attrs, cond = List.nth shapes (k mod List.length shapes) in
        let hits = count s.Med.cache_hits
        and store = count s.Med.queries_from_store
        and key_based = count s.Med.key_based_constructions in
        let a = Mediator.query med ~node:"T" ~attrs ~cond () in
        let rung =
          if count s.Med.cache_hits > hits then None
          else if count s.Med.queries_from_store > store then Some "store"
          else if count s.Med.key_based_constructions > key_based then
            Some "key_based"
          else Some "vap"
        in
        match (rung, a.Qp.quality) with
        | Some rung, Qp.Fresh -> rungs := (rung, a.Qp.trace_id) :: !rungs
        | _ -> ()
      done);
  Scenario.run_to_quiescence env med;
  let trace = Mediator.trace med in
  Alcotest.(check bool) "computed answers seen" true (List.length !rungs >= 6);
  List.iter
    (fun (rung, id) ->
      match id with
      | None -> Alcotest.fail "a computed answer carries no trace_id"
      | Some id -> (
        match Obs.Trace.find trace id with
        | None -> Alcotest.failf "trace_id %d names no retained span" id
        | Some sp ->
          Alcotest.(check string) "the span is the query_tx" "query_tx"
            sp.Obs.Trace.name;
          Alcotest.(check (option string))
            "its served attribute names the rung" (Some rung)
            (Obs.Trace.attr sp "served")))
    !rungs;
  Alcotest.(check bool) "more than one rung answered" true
    (List.length (List.sort_uniq compare (List.map fst !rungs)) > 1)

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
          Alcotest.test_case "records match a list-based trace" `Quick
            test_records_match_reference;
          Alcotest.test_case "an answer's trace_id names its span" `Quick
            test_answer_trace_id;
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
