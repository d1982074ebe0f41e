(* Group-commit batching must be invisible to correctness: a mediator
   draining its announcement queue in coalesced batches has to end in
   exactly the state of one applying the same announcements one at a
   time. We check that differentially — same scenario, same seed, same
   random annotation, same update/query load, run twice with
   [max_batch] 1 and 64 — and require identical final answers,
   identical reflect vectors, and a clean consistency checker on both
   logs (the batched one validating its advertised version intervals).
   Each run's store must also equal one built from scratch under its
   random annotation, table by table.

   The [Ledger.take_batch] unit tests pin the queue discipline itself,
   on ledgers built directly and filled through [Ledger.enqueue]: the
   cap, stale-entry dropping, per-source version chaining, a gap's
   hold-back until the resync, and the constant cost of an enqueue. *)

open Relalg
open Vdp
open Sim
open Sources
open Squirrel
open Delta
open Correctness
open Workload

let in_process env f =
  let cell = ref None in
  Engine.spawn env.Scenario.engine (fun () -> cell := Some (f ()));
  let rec go n =
    match !cell with
    | Some v -> v
    | None ->
      if n > 100_000 then Alcotest.fail "no result";
      Engine.run env.Scenario.engine
        ~until:(Engine.now env.Scenario.engine +. 1.0);
      go (n + 1)
  in
  go 0

let random_annotation rng vdp =
  Annotation.of_list vdp
    (List.map
       (fun node ->
         ( node.Graph.name,
           List.map
             (fun a ->
               (a, if Random.State.bool rng then Annotation.M else Annotation.V))
             (Schema.attrs node.Graph.schema) ))
       (Graph.non_leaves vdp))

type diff_scenario = {
  f_name : string;
  f_make : int -> Scenario.env;
  f_annotate : Random.State.t -> Graph.t -> Annotation.t;
  f_rels : (string * string) list;
  f_specs : string -> Datagen.column_spec list;
  f_exports : string list;
}

(* periodic announcements make sources hold several commits back and
   release them together, so the batched run sees real queue depth *)
let scenarios =
  [
    {
      f_name = "fig1";
      f_make =
        (fun seed ->
          Scenario.make_fig1 ~seed ~announce:(Source_db.Periodic 0.9) ());
      f_annotate = random_annotation;
      f_rels = [ ("db1", "R"); ("db2", "S") ];
      f_specs = Scenario.fig1_update_specs;
      f_exports = [ "T" ];
    };
    {
      f_name = "ex51";
      f_make =
        (fun seed ->
          Scenario.make_ex51 ~seed ~announce:(Source_db.Periodic 0.9) ());
      f_annotate = random_annotation;
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C"); ("dbD", "D") ];
      f_specs = Scenario.ex51_update_specs;
      f_exports = [ "E"; "G" ];
    };
    {
      f_name = "retail";
      f_make =
        (fun seed ->
          Scenario.make_retail ~seed ~announce:(Source_db.Periodic 0.9) ());
      f_annotate = random_annotation;
      f_rels =
        [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW"); ("dbCust", "Cust") ];
      f_specs = Scenario.retail_update_specs;
      f_exports = [ "AllOrders"; "Premium" ];
    };
    {
      f_name = "diamond";
      f_make = Tutil.make_diamond ~ac_on:Predicate.(lt (attr "a2") (attr "c2"));
      f_annotate = (fun _ vdp -> Tutil.diamond_annotation vdp);
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C") ];
      f_specs = Tutil.diamond_specs;
      f_exports = [ "AB"; "AC" ];
    };
    {
      f_name = "diamond (both keyed)";
      f_make = Tutil.make_diamond ~ac_on:(Predicate.eq_attrs "a2" "c2");
      f_annotate = (fun _ vdp -> Tutil.diamond_annotation vdp);
      f_rels = [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C") ];
      f_specs = Tutil.diamond_specs;
      f_exports = [ "AB"; "AC" ];
    };
  ]

type outcome = {
  o_answers : (string * Bag.t) list;
  o_reflect : (string * int) list;
  o_report : Checker.report;
}

(* one full run at a given batch cap; everything else derives
   deterministically from the seed so the two runs see the same load *)
let run_once sc ~seed ~max_batch =
  let rng = Random.State.make [| seed; 0xBA7C |] in
  let env = sc.f_make seed in
  let annotation = sc.f_annotate rng env.Scenario.vdp in
  let med =
    Scenario.mediator env ~annotation
      ~config:(Med.Config.make ~max_batch ())
      ()
  in
  in_process env (fun () -> Mediator.initialize med);
  let drv_rng = Datagen.state ((seed * 7) + 1) in
  List.iter
    (fun (src_name, rel) ->
      Driver.update_process ~rng:drv_rng ~src:(Scenario.source env src_name)
        {
          Driver.u_relation = rel;
          u_interval = 0.17 +. (0.1 *. float_of_int (seed mod 3));
          u_count = 8;
          u_delete_fraction = 0.3;
          u_specs = sc.f_specs rel;
        })
    sc.f_rels;
  (* the query processes get their own generator: query timing depends
     on the batch cap, so sharing [drv_rng] would interleave its draws
     differently per cap and silently fork the update streams *)
  let qry_rng = Datagen.state ((seed * 13) + 5) in
  List.iter
    (fun node ->
      let schema = (Graph.node env.Scenario.vdp node).Graph.schema in
      ignore
        (Driver.query_process ~rng:qry_rng ~med
           {
             Driver.q_node = node;
             q_interval = 0.61;
             q_count = 4;
             q_attr_sets = [ (Schema.attrs schema, Predicate.True) ];
           }))
    sc.f_exports;
  Scenario.run_to_quiescence env med;
  Tutil.check_store env med
    ~what:(Printf.sprintf "%s seed %d (max_batch %d)" sc.f_name seed max_batch);
  let answers =
    in_process env (fun () ->
        List.map
          (fun n -> (n, (Mediator.query med ~node:n ()).Qp.tuples))
          sc.f_exports)
  in
  (* each run must individually agree with direct recomputation over
     its sources' final states — so a differential mismatch below
     always names the guilty side first *)
  List.iter
    (fun (node, answer) ->
      if not (Bag.equal answer (Tutil.recompute env node)) then
        Alcotest.failf
          "%s seed %d (max_batch %d): final %s diverges from recompute"
          sc.f_name seed max_batch node)
    answers;
  {
    o_answers = answers;
    o_reflect =
      List.map
        (fun (src, _) ->
          (src, (Ledger.reflected med.Med.ledger src).Ledger.r_version))
        sc.f_rels;
    o_report =
      Checker.check ~vdp:env.Scenario.vdp ~sources:env.Scenario.sources
        ~events:(Mediator.events med) ();
  }

let require_consistent sc ~seed ~tag report =
  if not (Checker.consistent report) then
    Alcotest.failf "%s seed %d (%s): %s" sc.f_name seed tag
      (String.concat "; "
         (List.map
            (fun v -> v.Checker.v_detail)
            report.Checker.violations))

let diff_case sc =
  Alcotest.test_case sc.f_name `Slow (fun () ->
      let coalesced = ref false in
      for seed = 1 to 6 do
        let serial = run_once sc ~seed ~max_batch:1 in
        let batched = run_once sc ~seed ~max_batch:64 in
        require_consistent sc ~seed ~tag:"serial" serial.o_report;
        require_consistent sc ~seed ~tag:"batched" batched.o_report;
        (* the serial run really is one transaction per pass *)
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: serial batches are singletons"
             sc.f_name seed)
          serial.o_report.Checker.update_batches
          serial.o_report.Checker.batched_txs;
        if
          batched.o_report.Checker.batched_txs
          > batched.o_report.Checker.update_batches
        then coalesced := true;
        (* identical final stores, observed through every export *)
        List.iter
          (fun (node, b_answer) ->
            let s_answer = List.assoc node serial.o_answers in
            if not (Bag.equal s_answer b_answer) then
              Alcotest.failf
                "%s seed %d: final %s differs between batched and \
                 one-at-a-time"
                sc.f_name seed node)
          batched.o_answers;
        (* identical reflect vectors *)
        List.iter
          (fun (src, v) ->
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: reflect(%s)" sc.f_name seed src)
              (List.assoc src serial.o_reflect)
              v)
          batched.o_reflect
      done;
      if not !coalesced then
        Alcotest.failf
          "%s: no batch coalesced more than one transaction across any seed \
           — the differential test never exercised batching"
          sc.f_name)

(* ---- Ledger.take_batch queue discipline ------------------------------ *)

let ledger () =
  Ledger.create
    [
      ("db1", Ledger.Materialized_contributor, []);
      ("db2", Ledger.Materialized_contributor, []);
    ]

(* an announcement covering versions (prev, version] *)
let entry ~source ~version ~prev =
  {
    Message.source;
    prev_version = prev;
    version;
    commit_time = 0.0;
    send_time = 0.0;
    delta = Multi_delta.empty;
  }

let enqueue_all l =
  List.iter (fun (source, version, prev) ->
      ignore (Ledger.enqueue l (entry ~source ~version ~prev) : Ledger.outcome))

(* a snapshot that polled [source] at version [v] *)
let snapshot_at l source v =
  ignore (Ledger.after_snapshot l [ (source, v, 0.0) ] : int)

let versions = List.map (fun e -> (e.Message.source, e.Message.version))

let chain source vs = List.map (fun v -> (source, v, v - 1)) vs

let take_batch_cap () =
  let l = ledger () in
  enqueue_all l (chain "db1" [ 1; 2; 3; 4; 5; 6 ]);
  let batch = Ledger.take_batch l ~max:4 in
  Alcotest.(check (list (pair string int)))
    "cap takes the head"
    [ ("db1", 1); ("db1", 2); ("db1", 3); ("db1", 4) ]
    (versions batch);
  Alcotest.(check int) "remainder stays queued" 2 (Ledger.queue_length l);
  (* once the IUP has applied the batch, the remainder chains on *)
  Alcotest.(check (list (pair string (pair int int))))
    "the batch covers one interval"
    [ ("db1", (0, 4)) ]
    (Ledger.after_batch l batch ~staged:[] ~affected:[]).Ledger.intervals;
  Alcotest.(check (list (pair string int)))
    "in order"
    [ ("db1", 5); ("db1", 6) ]
    (versions (Ledger.take_batch l ~max:4))

let take_batch_stale_drop () =
  let l = ledger () in
  enqueue_all l (chain "db1" [ 1; 2; 3 ]);
  snapshot_at l "db1" 2;
  let batch = Ledger.take_batch l ~max:8 in
  Alcotest.(check (list (pair string int)))
    "already-reflected versions are dropped, the rest chains"
    [ ("db1", 3) ]
    (versions batch);
  Alcotest.(check int) "queue empty" 0 (Ledger.queue_length l)

(* Through [enqueue] a lost announcement marks its source dirty: the
   batch holds the source's entries back, clean sources flow past
   them, and the post-snapshot call drops what the snapshot covered
   and finds the source clean again. *)
let gap_entries =
  [ ("db1", 1, 0); ("db1", 3, 2); ("db2", 1, 0); ("db1", 4, 3) ]

let take_batch_gap_holds_back () =
  let l = ledger () in
  enqueue_all l gap_entries;
  Alcotest.(check (list string)) "the gap marks db1" [ "db1" ]
    (Ledger.dirty_sources l);
  Alcotest.(check (list (pair string int)))
    "clean sources flow past the held-back entries"
    [ ("db2", 1) ]
    (versions (Ledger.take_batch l ~max:8));
  Alcotest.(check int) "db1's entries stay queued" 3 (Ledger.queue_length l);
  Alcotest.(check (list (pair string int))) "nothing more to take" []
    (versions (Ledger.take_batch l ~max:8));
  (* a snapshot reflecting db1 at version 3 covers 1 and 3; 4 chains *)
  snapshot_at l "db1" 3;
  Alcotest.(check (list string)) "db1 clean after the resync" []
    (Ledger.dirty_sources l);
  Alcotest.(check (list (pair string int)))
    "its surviving entry flows"
    [ ("db1", 4) ]
    (versions (Ledger.take_batch l ~max:8));
  Alcotest.(check int) "queue empty" 0 (Ledger.queue_length l)

(* the mediator's [queue_depth] gauge, set after a batch take, counts
   the held-back entries *)
let depth_gauge_counts_held_back () =
  let env = Scenario.make_fig1 () in
  let med =
    Scenario.mediator env ~annotation:(Scenario.ann_ex23 env.Scenario.vdp) ()
  in
  List.iter
    (fun (source, version, prev) ->
      let rel = if source = "db1" then "R" else "S" in
      let schema = Adapter.schema (Scenario.source env source) rel in
      Med.enqueue med
        {
          Message.source;
          prev_version = prev;
          version;
          commit_time = 0.0;
          send_time = 0.0;
          delta = Multi_delta.singleton rel (Rel_delta.empty schema);
        })
    gap_entries;
  ignore (Med.take_batch med : Message.update list);
  Alcotest.(check (float 0.0)) "the depth gauge counts them" 3.0
    (List.assoc "queue_depth"
       (Obs.Metrics.snapshot (Mediator.metrics med)).Obs.Metrics.gauges)

let take_batch_multi_source () =
  let l = ledger () in
  enqueue_all l [ ("db1", 1, 0); ("db2", 1, 0); ("db1", 2, 1) ];
  let batch = Ledger.take_batch l ~max:8 in
  Alcotest.(check (list (pair string int)))
    "sources chain independently in arrival order"
    [ ("db1", 1); ("db2", 1); ("db1", 2) ]
    (versions batch);
  Alcotest.(check int) "queue empty" 0 (Ledger.queue_length l)

(* Enqueueing a chaining announcement costs the same at any depth, and
   reading the depth allocates nothing. *)
let enqueue_constant_words () =
  let l = ledger () in
  let next = ref 0 in
  let words_per_enqueue n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      incr next;
      ignore
        (Ledger.enqueue l (entry ~source:"db1" ~version:!next ~prev:(!next - 1))
          : Ledger.outcome)
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  ignore (words_per_enqueue 10 : float);
  let shallow = words_per_enqueue 100 in
  ignore (words_per_enqueue (10_000 - !next) : float);
  let deep = words_per_enqueue 100 in
  Alcotest.(check int) "depth" 10_100 (Ledger.queue_length l);
  if deep > shallow +. 8.0 then
    Alcotest.failf "words per enqueue grow with depth: %.1f at 10, %.1f at 10000"
      shallow deep;
  let w0 = Gc.minor_words () in
  let depth = Ledger.queue_length l in
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "depth read" 10_100 depth;
  Alcotest.(check (float 0.0)) "queue_length allocates nothing" 0.0 (w1 -. w0)

(* ---- the ledger against a reference model of Sec. 6.1 ----------------

   Random runs of 2-3 sources, each of a random contributor kind with a
   random closure over three nodes, drive [Ledger] and a list-based
   model written here side by side. The sources commit and announce;
   an announcement may be lost or delivered again later. The mediator
   takes batches (then applies or requeues them), polls, snapshots,
   stores answers and asks for them. After every step the two must
   agree on every outcome, batch, interval, reflect vector, dirty set,
   queue length and cached answer, and these rules must hold: each
   taken batch chains per source from its reflected version; a gap
   marks its source dirty; a snapshot reflects what it polled and
   leaves no entry it covers queued; ref' never moves back; and no
   answer cached before an announcement in its closure survives it. A
   failing run shrinks to the shortest sequence of steps. *)

type step =
  | Idle  (** nothing happens: what a shrunk step becomes *)
  | Commit of int * int * bool  (** source, versions committed, lost *)
  | Replay of int * int  (** source, which of its announcements *)
  | Take of int * bool * int list
      (** cap, applied (or requeued), affected nodes *)
  | Poll of int * int  (** source, versions behind its current one *)
  | Snapshot of int list  (** the sources it polls *)
  | Store of int * bool  (** node, read by a scan *)

let model_nodes = [| "n0"; "n1"; "n2" |]

let show_step = function
  | Idle -> "Idle"
  | Commit (s, k, lost) -> Printf.sprintf "Commit(s%d,+%d%s)" s k (if lost then ",lost" else "")
  | Replay (s, i) -> Printf.sprintf "Replay(s%d,#%d)" s i
  | Take (cap, applied, nodes) ->
    Printf.sprintf "Take(%d,%s,[%s])" cap
      (if applied then "apply" else "requeue")
      (String.concat ";" (List.map string_of_int nodes))
  | Poll (s, lag) -> Printf.sprintf "Poll(s%d,-%d)" s lag
  | Snapshot ss ->
    Printf.sprintf "Snapshot[%s]" (String.concat ";" (List.map string_of_int ss))
  | Store (n, scan) -> Printf.sprintf "Store(n%d%s)" n (if scan then ",scan" else "")

let kind_name = function
  | Ledger.Materialized_contributor -> "mat"
  | Ledger.Hybrid_contributor -> "hyb"
  | Ledger.Virtual_contributor -> "virt"

let model_gen =
  let open QCheck2.Gen in
  int_range 2 3 >>= fun n ->
  let kind =
    oneofl
      Ledger.[ Materialized_contributor; Hybrid_contributor; Virtual_contributor ]
  in
  let closure = list_size (int_range 0 3) (int_bound 2) in
  let src = int_bound (n - 1) in
  let step =
    frequency
      [
        (1, pure Idle);
        (6, map3 (fun s k lost -> Commit (s, k, lost)) src (int_range 1 2)
              (frequencyl [ (5, false); (1, true) ]));
        (1, map2 (fun s i -> Replay (s, i)) src (int_bound 7));
        (3, map3 (fun c a ns -> Take (c, a, ns)) (int_range 1 3)
              (frequencyl [ (3, true); (1, false) ]) closure);
        (2, map2 (fun s lag -> Poll (s, lag)) src (frequencyl [ (3, 0); (1, 1) ]));
        (1, map (fun ss -> Snapshot ss) (list_size (int_range 1 n) src));
        (2, map2 (fun nd scan -> Store (nd, scan)) (int_bound 2) bool);
      ]
  in
  triple (list_repeat n kind) (list_repeat n closure) (list_size (int_range 1 40) step)

let show_run (kinds, closures, steps) =
  Printf.sprintf "sources [%s]; steps %s"
    (String.concat "; "
       (List.mapi
          (fun i (k, c) ->
            Printf.sprintf "s%d %s {%s}" i (kind_name k)
              (String.concat "," (List.map string_of_int c)))
          (List.combine kinds closures)))
    (String.concat " " (List.map show_step (List.filter (( <> ) Idle) steps)))

(* the model's state of one source *)
type msource = {
  m_name : string;
  m_kind : Ledger.contributor_kind;
  m_closure : string list;
  mutable m_ref : int;
  mutable m_seen : int;
  mutable m_dirty : bool;
  mutable m_obs : int;
  (* the simulated source: its current version, the version its last
     announcement brought the mediator to, and every announcement it
     sent, lost ones included *)
  mutable m_truth : int;
  mutable m_announced : int;
  mutable m_sent : Message.update list;
}

(* a cached answer: its node, whether it is maintained (scan), and the
   observed version of each source when it was stored *)
type mcached = { c_node : string; c_scan : bool; c_marks : (string * int) list }

let run_model (kinds, closures, steps) =
  let fail fmt = Printf.ksprintf (fun m -> failwith m) fmt in
  let srcs =
    List.mapi
      (fun i (k, c) ->
        {
          m_name = Printf.sprintf "s%d" i;
          m_kind = k;
          m_closure =
            List.sort_uniq String.compare (List.map (fun n -> model_nodes.(n)) c);
          m_ref = 0;
          m_seen = 0;
          m_dirty = false;
          m_obs = 0;
          m_truth = 0;
          m_announced = 0;
          m_sent = [];
        })
      (List.combine kinds closures)
  in
  let src i = List.nth srcs i in
  let named n = List.find (fun s -> String.equal s.m_name n) srcs in
  let l = Ledger.create (List.map (fun s -> (s.m_name, s.m_kind, s.m_closure)) srcs) in
  let queue = ref [] (* oldest first *) and cache = ref [] and ever = ref [] in
  let bag = Bag.empty (Schema.make [ ("x", Value.TInt) ]) in
  let key c = (c.c_node, [ (if c.c_scan then "scan" else "inv") ], Predicate.True) in
  (* whether the ledger still holds the answer *)
  let alive c =
    let node, attrs, cond = key c in
    Ledger.cache_serve l ~node ~attrs ~cond
      (fun ~answer:_ ~polled:_ ~polled_times:_ ~trace_id:_ -> Some ())
    <> None
  in
  let drop doomed =
    let gone, kept = List.partition doomed !cache in
    cache := kept;
    List.length gone
  in
  let on closure c = List.mem c.c_node closure in
  let mark_dirty s =
    if s.m_dirty then 0
    else begin
      s.m_dirty <- true;
      drop (on s.m_closure)
    end
  in
  let observe s v =
    if v > s.m_obs then begin
      s.m_obs <- v;
      drop (fun c -> (not c.c_scan) && on s.m_closure c)
    end
    else 0
  in
  let outcome_str = function
    | Ledger.Duplicate -> "Duplicate"
    | Ledger.Clean -> "Clean"
    | Ledger.Dropped n -> Printf.sprintf "Dropped %d" n
    | Ledger.Gap { seen; dropped } -> Printf.sprintf "Gap(seen %d, dropped %d)" seen dropped
  in
  let agree what model got =
    if model <> got then fail "%s: model %s, ledger %s" what (outcome_str model) (outcome_str got)
  in
  let pairs = List.map (fun (e : Message.update) -> (e.Message.source, e.Message.version)) in
  let show_pairs ps =
    String.concat " " (List.map (fun (s, v) -> Printf.sprintf "%s@%d" s v) ps)
  in
  let deliver s (u : Message.update) =
    let expected =
      if u.Message.version <= s.m_seen then Ledger.Duplicate
      else begin
        let seen = s.m_seen in
        let gap = u.Message.prev_version > seen in
        let d1 = if gap then mark_dirty s else 0 in
        s.m_seen <- u.Message.version;
        let d2 = observe s u.Message.version in
        queue := !queue @ [ u ];
        if gap then Ledger.Gap { seen; dropped = d1 + d2 }
        else if d1 + d2 = 0 then Ledger.Clean
        else Ledger.Dropped (d1 + d2)
      end
    in
    (* answers cached before the announcement, by the ledger's account *)
    let before = List.filter alive !ever in
    let got = Ledger.enqueue l u in
    agree (Printf.sprintf "enqueue %s@%d (prev %d)" s.m_name u.Message.version u.Message.prev_version) expected got;
    (match got with
    | Ledger.Gap _ ->
      if not (List.mem s.m_name (Ledger.dirty_sources l)) then
        fail "a gap left %s clean" s.m_name
    | Ledger.Duplicate | Ledger.Clean | Ledger.Dropped _ -> ());
    if got <> Ledger.Duplicate then
      List.iter
        (fun c ->
          if alive c && (not c.c_scan) && on s.m_closure c
             && List.assoc s.m_name c.c_marks < u.Message.version
          then
            fail "an answer on %s outlived announcement %s@%d" c.c_node s.m_name
              u.Message.version)
        before
  in
  (* the model's batch: the queue in order, one head per source from its
     reflected version; a dirty source's entries stay, covered ones
     go, a break stops the batch *)
  let model_take cap =
    let rec go heads taken kept = function
      | [] -> (List.rev taken, List.rev kept)
      | rest when List.length taken >= cap -> (List.rev taken, List.rev_append kept rest)
      | (e : Message.update) :: rest ->
        let s = named e.Message.source in
        let head = try List.assoc s.m_name heads with Not_found -> s.m_ref in
        if s.m_dirty then go heads taken (e :: kept) rest
        else if e.Message.version <= s.m_ref then go heads taken kept rest
        else if e.Message.prev_version > head then
          (List.rev taken, List.rev_append kept (e :: rest))
        else go ((s.m_name, e.Message.version) :: heads) (e :: taken) kept rest
    in
    let taken, kept = go [] [] [] !queue in
    queue := kept;
    taken
  in
  let last_refs = ref (List.map (fun s -> (s.m_name, 0)) srcs) in
  let check_state step =
    let refs = List.map (fun s -> (s.m_name, s.m_ref)) srcs in
    if Ledger.reflect_vector l <> refs then
      fail "after %s: reflect vector %s, model %s" (show_step step)
        (show_pairs (Ledger.reflect_vector l)) (show_pairs refs);
    List.iter2
      (fun (n, before) (_, now) ->
        if now < before then fail "after %s: ref'(%s) went back %d -> %d" (show_step step) n before now)
      !last_refs refs;
    last_refs := refs;
    let dirty = List.filter_map (fun s -> if s.m_dirty then Some s.m_name else None) srcs in
    if Ledger.dirty_sources l <> dirty then
      fail "after %s: dirty [%s], model [%s]" (show_step step)
        (String.concat "," (Ledger.dirty_sources l)) (String.concat "," dirty);
    if Ledger.queue_length l <> List.length !queue then
      fail "after %s: queue length %d, model %d" (show_step step) (Ledger.queue_length l)
        (List.length !queue);
    List.iter
      (fun c ->
        let held = alive c in
        let modelled = List.exists (fun m -> m.c_node = c.c_node && m.c_scan = c.c_scan) !cache in
        if held <> modelled then
          fail "after %s: answer on %s%s %s" (show_step step) c.c_node
            (if c.c_scan then " (maintained)" else "")
            (if held then "survives in the ledger only" else "is gone from the ledger only"))
      !ever
  in
  List.iter
    (fun step ->
      (match step with
      | Idle -> ()
      | Commit (i, k, lost) ->
        let s = src i in
        s.m_truth <- s.m_truth + k;
        let u =
          {
            Message.source = s.m_name;
            prev_version = s.m_announced;
            version = s.m_truth;
            commit_time = float_of_int s.m_truth;
            send_time = float_of_int s.m_truth;
            delta = Multi_delta.empty;
          }
        in
        s.m_announced <- s.m_truth;
        s.m_sent <- s.m_sent @ [ u ];
        if not lost then deliver s u
      | Replay (i, j) -> (
        let s = src i in
        match s.m_sent with
        | [] -> ()
        | sent -> deliver s (List.nth sent (j mod List.length sent)))
      | Take (cap, applied, nodes) ->
        let before = List.map (fun s -> (s.m_name, s.m_ref)) srcs in
        let expected = model_take cap in
        let got = Ledger.take_batch l ~max:cap in
        if pairs got <> pairs expected then
          fail "take %d: ledger [%s], model [%s]" cap (show_pairs (pairs got))
            (show_pairs (pairs expected));
        (* each source's chain: from its reflected version, gapless *)
        ignore
          (List.fold_left
             (fun heads (e : Message.update) ->
               let src = e.Message.source in
               let head = List.assoc src heads in
               if e.Message.version <= List.assoc src before then
                 fail "take %d: %s@%d is covered" cap src e.Message.version;
               if e.Message.prev_version > head then
                 fail "take %d: %s@%d does not chain on %d" cap src e.Message.version head;
               if (named src).m_dirty then fail "take %d: dirty %s flowed" cap src;
               (src, e.Message.version) :: List.remove_assoc src heads)
             before got
            : (string * int) list);
        if applied then begin
          let affected = List.sort_uniq String.compare (List.map (fun n -> model_nodes.(n)) nodes) in
          let expected_dropped = drop (fun c -> (not c.c_scan) && List.mem c.c_node affected) in
          let expected_intervals =
            List.filter_map
              (fun s ->
                match List.filter (fun (e : Message.update) -> e.Message.source = s.m_name) got with
                | [] -> None
                | mine ->
                  let last = (List.nth mine (List.length mine - 1)).Message.version in
                  let from = s.m_ref in
                  s.m_ref <- last;
                  Some (s.m_name, (from, last)))
              srcs
          in
          let r = Ledger.after_batch l got ~staged:[] ~affected in
          if r.Ledger.intervals <> expected_intervals then
            fail "after_batch: intervals differ";
          if r.Ledger.dropped <> expected_dropped then
            fail "after_batch: dropped %d, model %d" r.Ledger.dropped expected_dropped;
          if r.Ledger.maintained_atoms <> 0 then fail "after_batch: atoms maintained without a stage"
        end
        else begin
          Ledger.requeue l got;
          queue := expected @ !queue
        end
      | Poll (i, lag) ->
        let s = src i in
        let v = max 0 (s.m_truth - lag) in
        let d1 = observe s v in
        let expected =
          if s.m_kind <> Ledger.Virtual_contributor && v <> s.m_seen then
            Ledger.Gap { seen = s.m_seen; dropped = d1 + mark_dirty s }
          else if d1 = 0 then Ledger.Clean
          else Ledger.Dropped d1
        in
        let got = Ledger.observe_poll l s.m_name v in
        agree (Printf.sprintf "poll %s@%d" s.m_name v) expected got;
        (match got with
        | Ledger.Gap _ ->
          if not (List.mem s.m_name (Ledger.dirty_sources l)) then
            fail "a poll gap left %s clean" s.m_name
        | Ledger.Duplicate | Ledger.Clean | Ledger.Dropped _ -> ())
      | Snapshot ss ->
        let polled = List.sort_uniq compare ss in
        let versions = List.map (fun i -> let s = src i in (s.m_name, s.m_truth, 0.0)) polled in
        let expected_dropped = List.length !cache in
        cache := [];
        List.iter
          (fun (n, v, _) ->
            let s = named n in
            s.m_ref <- v;
            s.m_seen <- max s.m_seen v;
            s.m_obs <- max s.m_obs v)
          versions;
        List.iter (fun s -> s.m_dirty <- false) srcs;
        let rec repair heads = function
          | [] -> []
          | (e : Message.update) :: rest ->
            let s = named e.Message.source in
            if e.Message.version <= s.m_ref then repair heads rest
            else begin
              let head = try List.assoc s.m_name heads with Not_found -> s.m_ref in
              if e.Message.prev_version > head then ignore (mark_dirty s : int);
              e :: repair ((s.m_name, e.Message.version) :: heads) rest
            end
        in
        queue := repair [] !queue;
        let got = Ledger.after_snapshot l versions in
        if got <> expected_dropped then
          fail "snapshot dropped %d answers, model %d" got expected_dropped;
        (* the snapshot covers what it reflects *)
        List.iter
          (fun (n, v, _) ->
            if (Ledger.reflected l n).Ledger.r_version <> v then
              fail "snapshot of %s@%d not reflected" n v;
            if List.exists (fun (e : Message.update) -> e.Message.source = n && e.Message.version <= v) !queue
            then fail "the model kept a covered entry of %s" n)
          versions
      | Store (nd, scan) ->
        let c =
          { c_node = model_nodes.(nd); c_scan = scan;
            c_marks = List.map (fun s -> (s.m_name, s.m_obs)) srcs }
        in
        let node, attrs, cond = key c in
        Ledger.cache_store l ~node ~attrs ~cond ~polled:[] ~polled_times:[] ~trace_id:None
          ~scan:(if scan then Some Fun.id else None) bag;
        if not (List.exists (fun s -> s.m_dirty) srcs) then begin
          cache := c :: List.filter (fun m -> not (m.c_node = c.c_node && m.c_scan = scan)) !cache;
          ever := c :: List.filter (fun m -> not (m.c_node = c.c_node && m.c_scan = scan)) !ever
        end);
      check_state step)
    steps;
  true

let ledger_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"transitions agree with the Sec. 6.1 model"
       ~print:show_run model_gen run_model)

let unit_cases =
  [
    Alcotest.test_case "cap bounds the batch" `Quick take_batch_cap;
    Alcotest.test_case "stale entries are dropped" `Quick
      take_batch_stale_drop;
    Alcotest.test_case "a version gap holds the source back" `Quick
      take_batch_gap_holds_back;
    Alcotest.test_case "the depth gauge counts held-back entries" `Quick
      depth_gauge_counts_held_back;
    Alcotest.test_case "sources chain independently" `Quick
      take_batch_multi_source;
    Alcotest.test_case "enqueue costs constant words" `Quick
      enqueue_constant_words;
  ]

let () =
  Alcotest.run "batching"
    [
      ("take_batch queue discipline", unit_cases);
      ("ledger model", [ ledger_model ]);
      ( "batched vs one-at-a-time (differential)",
        List.map diff_case scenarios );
    ]
