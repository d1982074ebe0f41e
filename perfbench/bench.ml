(* Host-clock benchmark of the Squirrel mediator.

   One mediator over the Figure 1 integration (R at db1, S at db2,
   export T = π(σ_{r4=100} R ⋈_{r2=s1} σ_{s3<50} S)) is driven by one
   client in a closed loop. Each operation is either

   - an update transaction: a single-atom commit at a source, the
     announcement's delivery into the mediator's update queue, and one
     IUP pass that applies it (the periodic flusher is parked, so the
     benchmark decides when the queue is drained); or
   - a query transaction against T through the QP.

   The order of the operations is the one the repository's experiments
   produce on the simulated clock (see [workloads]); the client sends
   them back to back, so the host clock, not the simulated one, paces
   the loop. Simulated time only orders events inside the mediator; it
   is not reported.

   A run is a sequence of episodes, repeated until the run has lasted
   [--seconds]. An episode sets up fresh sources and a fresh mediator,
   runs a fixed number of operations on them, and checks the mediator's
   answers. The mediator's event log and the sources' version histories
   grow with every operation, and the cost of an operation rises over a
   long stream (a store lookup by about half over 20 seconds), so a run
   that timed one long stream would report a figure that depends on how
   many operations the host managed to run; an episode always does the
   same amount of work. The price is that no workload measures a stream
   longer than one episode. Table size is a property of the workload
   instead: maint_mat runs at ten times the size of the others.

   Every time the benchmark reports is normalized to a reference speed
   of the host (see [reference_s]): a time on a host where a fixed
   reference computation takes [reference_s] seconds, not raw host
   time. The traced run also reports the raw medians and the host's
   slowdown, so the normalization can be audited.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics
   are the end-to-end ones: the median over the episodes of the mean
   time of an update and of a query transaction, and the median set-up
   time. With --trace 1 the loop also times each layer call on its own
   and reads the mediator's counters and span trees, and the metrics are
   the per-layer ones. *)

open Relalg
open Delta
open Sim
open Sources
open Squirrel
open Workload

(* a run has at least this many episodes, however short [--seconds] is,
   so that its medians have something to choose from *)
let min_episodes = 3

(* query transactions per episode that the consistency checker replays
   (it recomputes the view at each one's reflect vector); every update
   transaction is checked *)
let checked_queries = 3

(* ---- host clock and samples ---------------------------------------- *)

let now_ns = Monotonic_clock.now
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9
let seconds_since t0 = seconds_between t0 (now_ns ())

(* Host speed. On a shared host the same binary alternates, every few
   tenths of a second to a few tens of seconds, between its full speed
   and states up to 1.6 times slower while other tenants load the
   machine; process CPU time slows just as much as the wall clock. So a
   fixed reference computation of the mediator's kind is timed around
   each set-up phase and at the start of every [window_s] of operations,
   and every time the benchmark reports is rescaled by [reference_s /
   reference time]: a time in seconds on a host where the reference
   takes [reference_s]. The reference has two parts. Hashing, allocation
   and a comparison sort alone track the polling and VAP operations, but
   in some slow states store scans slow 1.5 times as much as they do; a
   walk over a prebuilt table of boxed rows, about the size of the
   mediator's tables, tracks the scans. Over 100 to 150 seconds, the
   two parts together leave a spread (coefficient of variation) of the
   rescaled time per operation, taken over 1 s stretches, of 5 to 11
   per cent, against 10 to 29 per cent unscaled. *)
let reference_s = 1.25e-3
let window_s = 0.1

let reference_rows =
  let h = Hashtbl.create 8192 in
  for i = 0 to 20_000 do
    Hashtbl.replace h i (string_of_int i, [ i; i + 1 ])
  done;
  h

let reference_work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 2_499 do
    Hashtbl.replace h ((i * 7919) land 0xfff) (string_of_int i)
  done;
  let acc = ref 0 in
  for i = 0 to 2_499 do
    match Hashtbl.find_opt h (i land 0xfff) with
    | Some s -> acc := !acc + String.length s
    | None -> ()
  done;
  let l = List.init 1_000 (fun i -> ((i * 7919) mod 1009, i)) in
  Hashtbl.iter
    (fun _ (s, l) -> if String.length s > 3 && List.hd l > 100 then incr acc)
    reference_rows;
  Sys.opaque_identity (List.length (List.sort compare l) + !acc)

let speed = ref 1.0

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push s v =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  (* [v] is a host time in seconds, stored rescaled by {!speed} *)
  let add s v = push s (v *. !speed)
  let count s = s.n

  (* mean of the samples from the [lo]th on; 0 when there are none *)
  let mean_from s lo =
    if s.n <= lo then 0.0
    else begin
      let sum = ref 0.0 in
      for i = lo to s.n - 1 do
        sum := !sum +. s.a.(i)
      done;
      !sum /. float_of_int (s.n - lo)
    end

  let mean s = mean_from s 0

  (* the highest percentile that has ten samples beyond it, and the
     sample there (the eleventh largest); (0, 0) with fewer than eleven *)
  let tail s =
    if s.n <= 10 then (0.0, 0.0)
    else begin
      let a = Array.sub s.a 0 s.n in
      Array.sort Float.compare a;
      (100.0 *. float_of_int (s.n - 10) /. float_of_int s.n, a.(s.n - 11))
    end

  (* 0 when there are no samples *)
  let median s =
    if s.n = 0 then 0.0
    else begin
      let a = Array.sub s.a 0 s.n in
      Array.sort Float.compare a;
      if s.n mod 2 = 1 then a.(s.n / 2)
      else (a.((s.n / 2) - 1) +. a.(s.n / 2)) /. 2.0
    end
end

(* reference time / reference_s at every calibration: how much slower
   than the reference speed the host ran *)
let slowdowns = Samples.create ()

(* the fastest of a few repetitions: one preempted repetition must not
   set the scale for a whole window *)
let calibrate () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    ignore (reference_work ());
    best := Float.min !best (seconds_since t0)
  done;
  speed := reference_s /. !best;
  Samples.push slowdowns (!best /. reference_s)

(* ---- live rows, for picking delete victims in O(1) ----------------- *)

module Pool = struct
  type t = { mutable items : Tuple.t array; mutable len : int }

  let of_bag bag =
    let items = Array.of_list (Bag.support bag) in
    { items; len = Array.length items }

  let add p t =
    if p.len = Array.length p.items then begin
      let items = Array.make (max 16 (2 * p.len)) t in
      Array.blit p.items 0 items 0 p.len;
      p.items <- items
    end;
    p.items.(p.len) <- t;
    p.len <- p.len + 1

  let take p rng =
    let i = Random.State.int rng p.len in
    let t = p.items.(i) in
    p.len <- p.len - 1;
    p.items.(i) <- p.items.(p.len);
    t
end

(* ---- workloads ------------------------------------------------------ *)

type rel = R | S
type op = Update of rel | Query

(* Streams of one kind of operation, [count] of them [interval]
   simulated seconds apart, as Workload.Driver's update and query
   processes run them, merged into the order their simulated times give
   (equal times in the order of the list). *)
let merge streams =
  List.concat
    (List.mapi
       (fun k (op, interval, count) ->
         List.init count (fun i -> (interval *. float_of_int (i + 1), k, op)))
       streams)
  |> List.stable_sort (fun (t, k, _) (t', k', _) -> compare (t, k) (t', k'))
  |> List.map (fun (_, _, op) -> op)
  |> Array.of_list

(* The traffic mixes of the repository's experiments (EXPERIMENTS.md).
   E2 runs Example 2.2 under 40 R and 2 S commits, and under 2 R and 40
   S, each stream one commit every 0.25 s. E2 issues no queries; they
   come at the ratio of E8's "50u : 10q" cell, where the paper's
   virtual/materialized crossover falls: 10 queries per 100 commits, so
   4 over each E2 cycle of 42. E8's query-heavy "10u : 50q" cell commits
   10 times to each of R and S, every 0.3 s, against 50 queries, every
   0.5 s. *)
let e2_r_heavy =
  merge [ (Update R, 0.25, 40); (Update S, 0.25, 2); (Query, 2.5, 4) ]

let e2_s_heavy =
  merge [ (Update R, 0.25, 2); (Update S, 0.25, 40); (Query, 2.5, 4) ]

let e8_query_heavy =
  merge [ (Update R, 0.3, 10); (Update S, 0.3, 10); (Query, 0.5, 50) ]

(* E2 and E8 delete on a quarter of the commits to a relation *)
let delete_every = 4

type workload = {
  w_name : string;
  w_annotation : Vdp.Graph.t -> Vdp.Annotation.t;
  w_r_size : int;  (** |R| at the start of an episode; |T| is about |R|/4 *)
  w_s_size : int;
  w_cycle : op array;  (** the operations, repeated in this order *)
  w_cycles : int;
      (** cycles per episode: a multiple of [shapes], so that an episode
          holds whole cycles of query shapes too *)
  w_query :
    int -> Random.State.t -> next_r1:int -> string list * Predicate.t;
      (** the [i]th query transaction *)
}

(* E3's three queries on the hybrid view of Example 2.3: one on
   materialized attributes only, one on virtual r3 that the key-based
   construction answers through r1, and one on virtual r3 and s2 that
   only the general VAP construction answers *)
let e3_queries =
  [|
    ([ "r1"; "s1" ], Predicate.True);
    ([ "r3"; "s1" ], Predicate.(lt (attr "r3") (int 100)));
    ([ "r3"; "s2" ], Predicate.True);
  |]

let shapes = Array.length e3_queries
let point a k = Predicate.(eq (attr a) (int k))

(* Why these five. Two maintenance workloads run E2's R-heavy mix, the
   case the paper gives for Example 2.2: with every node materialized
   (Example 2.1) no update polls, and with R' virtual R updates still
   don't, while the rare S update polls db1 through the VAP and runs
   Eager Compensation. The first runs at ten times the table size of
   the rest, where a per-transaction cost that grows with table size
   shows. E2's S-heavy mix is the polling stress: every S commit that
   passes σ_{s3<50}, about half of them, polls db1. The two query
   workloads run E8's query-heavy mix with E3's query shapes on the
   hybrid view of Example 2.3: repeated queries that the QP's answer
   cache serves between updates, and point queries on fresh keys, which
   bypass the cache and run the store, key-based or general VAP
   construction. Queries of the maintenance workloads are E8's
   π(r1,s1) T, except at the larger size, where they read it at one
   key: the whole answer takes about 0.1 s there, so episodes spent
   nearly all their time in queries and timed too few updates for a
   steady update_ms. Episode lengths are set so that the operations of
   an episode take about a second, and two at the larger size, where
   set-up alone takes about two. *)
let workloads =
  let e8_query _ _ ~next_r1:_ = ([ "r1"; "s1" ], Predicate.True) in
  [
    {
      w_name = "maint_mat";
      w_annotation = Scenario.ann_ex21;
      w_r_size = 200_000;
      w_s_size = 50_000;
      w_cycle = e2_r_heavy;
      w_cycles = 45;
      w_query =
        (fun _ rng ~next_r1 ->
          ([ "r1"; "s1" ], point "r1" (Random.State.int rng next_r1)));
    };
    {
      w_name = "maint_eca";
      w_annotation = Scenario.ann_ex22;
      w_r_size = 20_000;
      w_s_size = 5_000;
      w_cycle = e2_r_heavy;
      w_cycles = 33;
      w_query = e8_query;
    };
    {
      w_name = "poll_eca";
      w_annotation = Scenario.ann_ex22;
      w_r_size = 20_000;
      w_s_size = 5_000;
      w_cycle = e2_s_heavy;
      w_cycles = 6;
      w_query = e8_query;
    };
    {
      w_name = "query_hit";
      w_annotation = Scenario.ann_ex23;
      w_r_size = 20_000;
      w_s_size = 5_000;
      w_cycle = e8_query_heavy;
      w_cycles = 6;
      w_query = (fun i _ ~next_r1:_ -> e3_queries.(i mod shapes));
    };
    {
      w_name = "query_miss";
      w_annotation = Scenario.ann_ex23;
      w_r_size = 20_000;
      w_s_size = 5_000;
      w_cycle = e8_query_heavy;
      w_cycles = 6;
      w_query =
        (fun i rng ~next_r1 ->
          ( fst e3_queries.(i mod shapes),
            point "r1" (Random.State.int rng next_r1) ));
    };
  ]

(* ---- one mediator under load --------------------------------------- *)

(* one updated relation *)
type side = {
  src : Adapter.t;
  rel : string;
  pool : Pool.t;  (** its live rows *)
  specs : Datagen.column_spec list;
  filter : string;  (** the attribute T's definition selects on *)
  mutable next_key : int;  (** keys from here on are unused *)
  mutable commits : int;
}

type state = {
  env : Scenario.env;
  med : Mediator.t;
  rng : Random.State.t;
  r : side;
  s : side;
  mutable ops : int;
  mutable queries : int;
}

(* run [f] as a simulation process and step the engine until it
   returns; the mediator's transactions block on the simulated clock
   (mutex, poll round-trips) *)
let in_process engine f =
  let cell = ref None in
  Engine.spawn engine (fun () -> cell := Some (f ()));
  let rec go n =
    match !cell with
    | Some v -> v
    | None ->
      if n > 10_000 then failwith "simulation did not produce a result";
      Engine.run engine ~until:(Engine.now engine +. 1.0);
      go (n + 1)
  in
  go 0

(* [f ()], with its host time and that time rescaled by the mean of
   the host speeds calibrated just before and just after it: a set-up
   phase at the larger size lasts longer than the host holds one
   speed *)
let timed f =
  calibrate ();
  let speed0 = !speed in
  let t0 = now_ns () in
  let v = f () in
  let dt = seconds_since t0 in
  calibrate ();
  (v, (dt, dt *. (speed0 +. !speed) /. 2.0))

(* The sources, the mediator over them, and its initial snapshot, with
   the host and rescaled times of the sources' load and of the
   mediator's initialization: what setup_s measures. The flusher is
   parked so that every IUP pass is one the loop starts and times. *)
let set_up w ~seed =
  let env, load =
    timed (fun () ->
        Scenario.make_fig1 ~seed ~r_size:w.w_r_size ~s_size:w.w_s_size ())
  in
  let med, init =
    timed (fun () ->
        let config = Med.Config.make ~flush_interval:1e9 () in
        let med =
          Scenario.mediator env
            ~annotation:(w.w_annotation env.Scenario.vdp)
            ~config ()
        in
        in_process env.Scenario.engine (fun () -> Mediator.initialize med);
        med)
  in
  let side src rel specs filter next_key =
    let src = Scenario.source env src in
    {
      src;
      rel;
      pool = Pool.of_bag (Adapter.current src rel);
      specs;
      filter;
      next_key;
      commits = 0;
    }
  in
  (* the experiments' R specs, with r2 over this workload's S keys so
     that new R rows join *)
  let r_specs =
    List.map
      (fun c ->
        if c.Datagen.c_attr = "r2" then { c with Datagen.c_max = w.w_s_size - 1 }
        else c)
      (Scenario.fig1_update_specs "R")
  in
  ( {
      env;
      med;
      rng = Random.State.make [| seed; 0x5eed |];
      r = side "db1" "R" r_specs "r4" w.w_r_size;
      s = side "db2" "S" (Scenario.fig1_update_specs "S") "s3" w.w_s_size;
      ops = 0;
      queries = 0;
    },
    load,
    init )

(* [t] with its [filter] attribute drawn from the lower and the upper
   half of its range in turn. Whether an insert passes T's selection
   then alternates, where a draw over the whole range would make the
   number of inserts that reach T (and, through a virtual node, poll)
   a coin toss per insert. *)
let balance rng side t =
  let c = List.find (fun c -> c.Datagen.c_attr = side.filter) side.specs in
  let half = (c.Datagen.c_max - c.c_min + 1) / 2 in
  let lo, n =
    if side.next_key mod 2 = 0 then (c.c_min, half)
    else (c.c_min + half, c.c_max - c.c_min + 1 - half)
  in
  Tuple.set t side.filter (Value.Int (lo + Random.State.int rng n))

(* A commit of one atom to R or S, as Workload.Driver makes them: every
   [delete_every]th commit to a relation deletes a live row, the others
   insert a row with a fresh key and the experiments' value ranges *)
let next_update st rel =
  let side = match rel with R -> st.r | S -> st.s in
  side.commits <- side.commits + 1;
  let d = Rel_delta.empty (Adapter.schema side.src side.rel) in
  let d =
    if side.commits mod delete_every = 0 && side.pool.Pool.len > 0 then
      Rel_delta.delete d (Pool.take side.pool st.rng)
    else begin
      let t =
        Datagen.keyed_tuple st.rng
          (Adapter.schema side.src side.rel)
          side.specs ~key_seed:side.next_key
      in
      let t = balance st.rng side t in
      side.next_key <- side.next_key + 1;
      Pool.add side.pool t;
      Rel_delta.insert d t
    end
  in
  (side.src, Multi_delta.singleton side.rel d)

(* ---- measurement ---------------------------------------------------- *)

(* the channel delay of the default connection delays is 0.05 simulated
   seconds *)
let delivery_window = 0.1

type rung = Cache | Store | Key_based | Vap

(* the mediator counters the traced run reports, summed over episodes
   from the end of each initialization *)
let counters =
  [
    ("polled_tuples", fun s -> s.Med.polled_tuples);
    ("polls", fun s -> s.Med.polls);
    ("atoms", fun s -> s.Med.propagated_atoms);
    ("ops_update", fun s -> s.Med.ops_update);
    ("ops_query", fun s -> s.Med.ops_query);
    ("cache_invalidations", fun s -> s.Med.cache_invalidations);
  ]

(* IUP phases whose tuple operations the traced run reports *)
let phases = [ "vap"; "kernel_pass" ]

type run = {
  setup_s : Samples.t;
  update_s : Samples.t;
  query_s : Samples.t;
  (* one per episode: its mean update and query transaction time, and
     the same unscaled *)
  update_means : Samples.t;
  query_means : Samples.t;
  raw_update_means : Samples.t;
  raw_query_means : Samples.t;
  raw_setup_s : Samples.t;
  raw_update_s : Samples.t;
  raw_query_s : Samples.t;
  (* per layer; the ones below set-up are filled only when tracing *)
  load_s : Samples.t;
  init_s : Samples.t;
  commit_s : Samples.t;
  deliver_s : Samples.t;
  iup_s : Samples.t;
  rung_s : (rung * Samples.t) list;
  totals : (string, int) Hashtbl.t;
  mutable update_polls : int;
  mutable query_polls : int;
  mutable minor_words : float;
  mutable batches : int;
  mutable episodes : int;
  mutable attempted : int;
  mutable failed : int;
  mutable checked : bool;  (** every episode's answers were correct *)
}

let fresh_run () =
  {
    setup_s = Samples.create ();
    update_s = Samples.create ();
    query_s = Samples.create ();
    update_means = Samples.create ();
    query_means = Samples.create ();
    raw_update_means = Samples.create ();
    raw_query_means = Samples.create ();
    raw_setup_s = Samples.create ();
    raw_update_s = Samples.create ();
    raw_query_s = Samples.create ();
    load_s = Samples.create ();
    init_s = Samples.create ();
    commit_s = Samples.create ();
    deliver_s = Samples.create ();
    iup_s = Samples.create ();
    rung_s =
      List.map (fun r -> (r, Samples.create ())) [ Cache; Store; Key_based; Vap ];
    totals = Hashtbl.create 16;
    update_polls = 0;
    query_polls = 0;
    minor_words = 0.0;
    batches = 0;
    episodes = 0;
    attempted = 0;
    failed = 0;
    checked = true;
  }

let total run name = Option.value ~default:0 (Hashtbl.find_opt run.totals name)
let accumulate run name n = Hashtbl.replace run.totals name (total run name + n)
let counter st f = Obs.Metrics.value (f (Mediator.stats st.med))

let update_op st run rel ~trace =
  let engine = st.env.Scenario.engine in
  let src, delta = next_update st rel in
  let polls0 = if trace then counter st (fun s -> s.Med.polls) else 0 in
  let t0 = now_ns () in
  Adapter.commit src delta;
  let t1 = now_ns () in
  Engine.run engine ~until:(Engine.now engine +. delivery_window);
  let t2 = now_ns () in
  let applied = in_process engine (fun () -> Mediator.process_updates st.med) in
  let t3 = now_ns () in
  Samples.add run.update_s (seconds_between t0 t3);
  Samples.push run.raw_update_s (seconds_between t0 t3);
  if trace then begin
    Samples.add run.commit_s (seconds_between t0 t1);
    Samples.add run.deliver_s (seconds_between t1 t2);
    Samples.add run.iup_s (seconds_between t2 t3);
    run.update_polls <-
      run.update_polls + counter st (fun s -> s.Med.polls) - polls0
  end;
  applied && Mediator.queue_length st.med = 0

let query_op w st run ~trace =
  let engine = st.env.Scenario.engine in
  let attrs, cond = w.w_query st.queries st.rng ~next_r1:st.r.next_key in
  st.queries <- st.queries + 1;
  let read () =
    if trace then
      ( counter st (fun s -> s.Med.cache_hits),
        counter st (fun s -> s.Med.key_based_constructions),
        counter st (fun s -> s.Med.polls) )
    else (0, 0, 0)
  in
  let hits0, kb0, polls0 = read () in
  let t0 = now_ns () in
  let answer =
    in_process engine (fun () -> Mediator.query st.med ~node:"T" ~attrs ~cond ())
  in
  let dt = seconds_since t0 in
  Samples.add run.query_s dt;
  Samples.push run.raw_query_s dt;
  if trace then begin
    let hits1, kb1, polls1 = read () in
    let rung =
      if hits1 > hits0 then Cache
      else if kb1 > kb0 then Key_based
      else if polls1 > polls0 then Vap
      else Store
    in
    Samples.add (List.assoc rung run.rung_s) dt;
    run.query_polls <- run.query_polls + polls1 - polls0
  end;
  match answer.Qp.quality with Qp.Fresh -> true | Qp.Stale _ -> false

let op w st run ~trace =
  let words0 = Gc.minor_words () in
  let ok =
    try
      match w.w_cycle.(st.ops mod Array.length w.w_cycle) with
      | Update rel -> update_op st run rel ~trace
      | Query -> query_op w st run ~trace
    with e ->
      prerr_endline ("operation failed: " ^ Printexc.to_string e);
      false
  in
  run.minor_words <- run.minor_words +. (Gc.minor_words () -. words0);
  st.ops <- st.ops + 1;
  run.attempted <- run.attempted + 1;
  if not ok then run.failed <- run.failed + 1

(* ---- correctness ---------------------------------------------------- *)

(* The Sec. 3 consistency checker over every update transaction and an
   evenly spaced sample of query transactions (order preservation holds
   on any subsequence), then the whole of T against a recomputation from
   the sources' current state. *)
let verify st =
  let vdp = st.env.Scenario.vdp and sources = st.env.Scenario.sources in
  let events = Mediator.events st.med in
  let is_query = function Med.Query_tx _ -> true | Med.Update_tx _ -> false in
  let stride =
    max 1 (List.length (List.filter is_query events) / checked_queries)
  in
  let i = ref 0 in
  let sampled =
    List.filter
      (fun e ->
        (not (is_query e))
        ||
        (incr i;
         !i mod stride = 0))
      events
  in
  let report = Correctness.Checker.check ~vdp ~sources ~events:sampled () in
  let answer =
    in_process st.env.Scenario.engine (fun () ->
        Mediator.query st.med ~node:"T" ())
  in
  let expected =
    Eval.eval
      ~env:(fun leaf ->
        match Vdp.Graph.node_opt vdp leaf with
        | Some { Vdp.Graph.kind = Vdp.Graph.Leaf { source }; _ } ->
          Some (Adapter.current (Scenario.source st.env source) leaf)
        | Some _ | None -> None)
      (Vdp.Graph.expanded_def vdp "T")
  in
  let consistent = Correctness.Checker.consistent report in
  let same = Bag.equal answer.Qp.tuples expected in
  if not consistent then
    List.iter
      (fun v -> prerr_endline ("checker: " ^ v.Correctness.Checker.v_detail))
      report.Correctness.Checker.violations;
  if not same then prerr_endline "final answer of T differs from recomputation";
  consistent && same

(* ---- episodes ------------------------------------------------------- *)

(* tuple operations per IUP phase and the number of batch_tx span trees
   they came from, over the retained span trees *)
let add_phase_ops run med =
  List.iter
    (fun (root : Obs.Trace.span) ->
      if root.name = "batch_tx" then begin
        run.batches <- run.batches + 1;
        List.iter
          (fun (c : Obs.Trace.span) ->
            if List.mem c.name phases then accumulate run c.name c.ops)
          root.children
      end)
    (Obs.Trace.roots (Mediator.trace med))

let episode w run ~seed ~trace =
  Gc.compact ();
  let st, (raw_load, load), (raw_init, init) = set_up w ~seed in
  Samples.push run.load_s load;
  Samples.push run.init_s init;
  Samples.push run.setup_s (load +. init);
  Samples.push run.raw_setup_s (raw_load +. raw_init);
  let t0 = now_ns () in
  let base = List.map (fun (n, f) -> (n, counter st f)) counters in
  let u0 = Samples.count run.update_s and q0 = Samples.count run.query_s in
  let next_window = ref (seconds_since t0) in
  for _ = 1 to w.w_cycles * Array.length w.w_cycle do
    if seconds_since t0 >= !next_window then begin
      calibrate ();
      next_window := seconds_since t0 +. window_s
    end;
    op w st run ~trace
  done;
  Samples.push run.update_means (Samples.mean_from run.update_s u0);
  Samples.push run.query_means (Samples.mean_from run.query_s q0);
  Samples.push run.raw_update_means (Samples.mean_from run.raw_update_s u0);
  Samples.push run.raw_query_means (Samples.mean_from run.raw_query_s q0);
  List.iter
    (fun (n, f) -> accumulate run n (counter st f - List.assoc n base))
    counters;
  add_phase_ops run st.med;
  let ok =
    try verify st
    with e ->
      prerr_endline ("verification failed: " ^ Printexc.to_string e);
      false
  in
  run.checked <- run.checked && ok;
  run.episodes <- run.episodes + 1

(* ---- output --------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number value) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.w_name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  let run = fresh_run () in
  let t0 = now_ns () in
  (* each episode draws its own data and operations from the seed *)
  while run.episodes < min_episodes || seconds_since t0 < seconds do
    episode w run ~seed:((seed * 1_000) + run.episodes) ~trace
  done;
  let updates = Samples.count run.update_s in
  let queries = Samples.count run.query_s in
  let metrics =
    if not trace then
      [
        ("update_ms", 1e3 *. Samples.median run.update_means, "ms");
        ("query_ms", 1e3 *. Samples.median run.query_means, "ms");
        ("setup_s", Samples.median run.setup_s, "s");
      ]
    else begin
      (* per-layer times are plain means, so that the layers of an update
         add up to update_us and the rungs, weighted by their shares, to
         query_us *)
      let us s = 1e6 *. Samples.mean s in
      let rung r = List.assoc r run.rung_s in
      let share r = ratio (Samples.count (rung r)) queries in
      [
        ("update_samples", float_of_int updates, "count");
        ("query_samples", float_of_int queries, "count");
        ("update_p50_us", 1e6 *. Samples.median run.update_s, "us");
        ("update_tail_pct", fst (Samples.tail run.update_s), "%");
        ("update_tail_us", 1e6 *. snd (Samples.tail run.update_s), "us");
        ("query_p50_us", 1e6 *. Samples.median run.query_s, "us");
        ("query_tail_pct", fst (Samples.tail run.query_s), "%");
        ("query_tail_us", 1e6 *. snd (Samples.tail run.query_s), "us");
        ("raw_update_ms", 1e3 *. Samples.median run.raw_update_means, "ms");
        ("raw_query_ms", 1e3 *. Samples.median run.raw_query_means, "ms");
        ("raw_setup_s", Samples.median run.raw_setup_s, "s");
        ("host_slowdown", Samples.median slowdowns, "ratio");
        ("source_load_ms", 1e3 *. Samples.median run.load_s, "ms");
        ("mediator_init_ms", 1e3 *. Samples.median run.init_s, "ms");
        ("update_us", us run.update_s, "us");
        ("query_us", us run.query_s, "us");
        ("source_commit_us", us run.commit_s, "us");
        ("announce_deliver_us", us run.deliver_s, "us");
        ("iup_us", us run.iup_s, "us");
        ("qp_cache_us", us (rung Cache), "us");
        ("qp_store_us", us (rung Store), "us");
        ("qp_key_based_us", us (rung Key_based), "us");
        ("qp_vap_us", us (rung Vap), "us");
        ("qp_cache_share", share Cache, "ratio");
        ("qp_store_share", share Store, "ratio");
        ("qp_key_based_share", share Key_based, "ratio");
        ("qp_vap_share", share Vap, "ratio");
        ( "cache_invalidations_per_update",
          ratio (total run "cache_invalidations") updates,
          "count" );
        ("polls_per_update", ratio run.update_polls updates, "count");
        ("polls_per_query", ratio run.query_polls queries, "count");
        ( "polled_tuples_per_poll",
          ratio (total run "polled_tuples") (total run "polls"),
          "count" );
        ("atoms_per_update", ratio (total run "atoms") updates, "count");
        ("tuple_ops_per_update", ratio (total run "ops_update") updates, "ops");
        ("tuple_ops_per_query", ratio (total run "ops_query") queries, "ops");
      ]
      @ List.map
          (fun p -> (p ^ "_ops_per_batch", ratio (total run p) run.batches, "ops"))
          phases
      @ [
          ( "minor_words_per_op",
            run.minor_words /. float_of_int (max 1 run.attempted),
            "words" );
        ]
    end
  in
  print_result
    ~correct:(run.checked && run.failed = 0)
    ~attempted:run.attempted ~failed:run.failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0)
