open Relalg
open Delta
open Vdp
open Sim
open Sources
open Storage

type delays = { comm_delay : float; q_proc_delay : float }

let default_delays = { comm_delay = 0.05; q_proc_delay = 0.01 }

module Config = struct
  type t = {
    flush_interval : float;
    op_time : float;
    eca_enabled : bool;
    key_based_enabled : bool;
    poll_timeout : float option;
    poll_retries : int;
    poll_backoff : float;
    version_check_interval : float option;
    release_history : bool;
    answer_cache_enabled : bool;
    trace_enabled : bool;
    trace_capacity : int;
    max_batch : int;
    delays : string -> delays;
  }

  let make ?(flush_interval = 1.0) ?(op_time = 0.0001) ?(eca_enabled = true)
      ?(key_based_enabled = true) ?poll_timeout ?(poll_retries = 3)
      ?(poll_backoff = 0.25) ?version_check_interval
      ?(release_history = false) ?(answer_cache_enabled = true)
      ?(trace_enabled = true) ?(trace_capacity = 4096) ?(max_batch = 64)
      ?(delays = fun _ -> default_delays) () =
    if max_batch < 1 then
      invalid_arg "Med.Config.make: max_batch must be at least 1";
    {
      flush_interval;
      op_time;
      eca_enabled;
      key_based_enabled;
      poll_timeout;
      poll_retries;
      poll_backoff;
      version_check_interval;
      release_history;
      answer_cache_enabled;
      trace_enabled;
      trace_capacity;
      max_batch;
      delays;
    }

  let default = make ()
end

type config = Config.t

type reflect_entry = Version of int | Current

type staleness = { st_source : string; st_version : int; st_age : float }

type event =
  | Update_tx of {
      ut_time : float;
      ut_reflect : (string * int) list;
      ut_atoms : int;
      ut_txs : int;
      ut_intervals : (string * (int * int)) list;
      ut_exports : (string * Rel_delta.t) list;
    }
  | Query_tx of {
      qt_time : float;
      qt_node : string;
      qt_attrs : string list;
      qt_cond : Predicate.t;
      qt_answer : Bag.t;
      qt_reflect : (string * reflect_entry) list;
      qt_stale : staleness list;
      qt_bound : (string * float) list;
    }

type stats = {
  registry : Obs.Metrics.t;
  update_txs : Obs.Metrics.counter;
  query_txs : Obs.Metrics.counter;
  queries_from_store : Obs.Metrics.counter;
  polls : Obs.Metrics.counter;
  polled_tuples : Obs.Metrics.counter;
  propagated_atoms : Obs.Metrics.counter;
  temps_built : Obs.Metrics.counter;
  key_based_constructions : Obs.Metrics.counter;
  ops_update : Obs.Metrics.counter;
  ops_query : Obs.Metrics.counter;
  messages_received : Obs.Metrics.counter;
  atoms_received : Obs.Metrics.counter;
  poll_retries : Obs.Metrics.counter;
  poll_failures : Obs.Metrics.counter;
  self_maintained_txs : Obs.Metrics.counter;
  slo_polls : Obs.Metrics.counter;
  slo_refusals : Obs.Metrics.counter;
  degraded_answers : Obs.Metrics.counter;
  gaps_detected : Obs.Metrics.counter;
  dup_messages_dropped : Obs.Metrics.counter;
  resyncs : Obs.Metrics.counter;
  update_deferrals : Obs.Metrics.counter;
  version_checks : Obs.Metrics.counter;
  cache_hits : Obs.Metrics.counter;
  cache_misses : Obs.Metrics.counter;
  cache_invalidations : Obs.Metrics.counter;
  coalesced_txs : Obs.Metrics.counter;
  annihilated_pairs : Obs.Metrics.counter;
  batch_size : Obs.Metrics.histogram;
  update_tx_time : Obs.Metrics.histogram;
  query_tx_time : Obs.Metrics.histogram;
  poll_rtt : Obs.Metrics.histogram;
  queue_depth : Obs.Metrics.gauge;
}

let fresh_stats () =
  let m = Obs.Metrics.create () in
  let c ?help name = Obs.Metrics.counter m ?help name in
  {
    registry = m;
    update_txs = c "update_txs";
    query_txs = c "query_txs";
    queries_from_store = c "queries_from_store";
    polls = c "polls";
    polled_tuples = c "polled_tuples";
    propagated_atoms = c "propagated_atoms";
    temps_built = c "temps_built";
    key_based_constructions = c "key_based_constructions";
    ops_update = c "ops_update";
    ops_query = c "ops_query";
    messages_received = c "messages_received";
    atoms_received = c "atoms_received";
    poll_retries = c "poll_retries";
    poll_failures = c "poll_failures";
    self_maintained_txs =
      c "self_maintained_txs"
        ~help:"update transactions applied without any source poll";
    slo_polls =
      c "slo_polls" ~help:"forced polls issued to satisfy a freshness SLO";
    slo_refusals =
      c "slo_refusals" ~help:"queries refused: no strategy met max_staleness";
    degraded_answers = c "degraded_answers";
    gaps_detected = c "gaps_detected";
    dup_messages_dropped = c "dup_messages_dropped";
    resyncs = c "resyncs";
    update_deferrals = c "update_deferrals";
    version_checks = c "version_checks";
    cache_hits = c "cache_hits";
    cache_misses = c "cache_misses";
    cache_invalidations = c "cache_invalidations";
    coalesced_txs =
      c "coalesced_txs"
        ~help:"constituent update transactions folded into batches";
    annihilated_pairs =
      c "annihilated_pairs"
        ~help:"+t/-t atom pairs cancelled while coalescing batch deltas";
    batch_size =
      Obs.Metrics.histogram m "batch_size"
        ~help:"announcements coalesced per applied batch";
    update_tx_time =
      Obs.Metrics.histogram m "update_tx_time"
        ~help:"simulated seconds per applied update transaction";
    query_tx_time =
      Obs.Metrics.histogram m "query_tx_time"
        ~help:"simulated seconds per query transaction";
    poll_rtt =
      Obs.Metrics.histogram m "poll_rtt"
        ~help:"simulated seconds per poll incl. retries and backoff";
    queue_depth = Obs.Metrics.gauge m "queue_depth";
  }

type leaf_parent = {
  lp_node : string;
  lp_leaf : string;
  lp_source : string;
  lp_def : Expr.t;
  lp_columns : (string * string) list;
  lp_filter : Rel_delta.t -> Rel_delta.t;
  mutable lp_poll : Source_db.prepared option;
}

type node_plan = {
  np_mat : string list;
  np_leaf : leaf_parent option;
  np_children : (string * Schema.t) list;
  np_delta : Delta_plan.t;
  np_stage : (Table.t * (Rel_delta.t -> Rel_delta.t)) option;
  np_keyed : (string * Schema.t * string list) list;
  np_rule : Derived_from.rule;
}

type derived = {
  d_steps : Derived_from.step list;
  d_leaf_parents : leaf_parent list;
  d_down : (string * node_plan) list;
  d_parents : (string, string list) Hashtbl.t;
  d_nodes : (string, node_plan) Hashtbl.t;
  d_index_plan : (string * string) list;
      (** the (leaf, column) pairs keyed polls can name *)
  d_plans : (Expr.t, Plan.t) Hashtbl.t;
      (** the value plans {!eval} runs, keyed by the expression below a
          request's top-level select/project/rename chain: a
          definition, or a restricted definition narrowed to a set of
          wanted attributes — finitely many per VDP *)
}

type t = {
  engine : Engine.t;
  vdp : Graph.t;
  ann : Annotation.t;
  tables : (string, Table.t) Hashtbl.t;
  mutex : Engine.Mutex.t;
  config : config;
  trace : Obs.Trace.t;
  source_tbl : (string, Source_db.t) Hashtbl.t;
  leaf_reads : (string, Source_db.prepared) Hashtbl.t;
  ledger : Ledger.t;
  stats : stats;
  mutable log : event list;
  mutable initialized : bool;
  derived : derived;
  mutable subscribers : (event -> unit) list;
}

exception Mediator_error of string

type poll_exhausted = {
  pe_source : string;
  pe_attempts : int;
  pe_error : Source_db.poll_error;
}

exception Poll_failed of poll_exhausted

exception Desync of string

let err fmt = Format.kasprintf (fun s -> raise (Mediator_error s)) fmt

let () =
  Printexc.register_printer (function
    | Poll_failed { pe_source; pe_attempts; pe_error } ->
      Some
        (Printf.sprintf "Poll_failed: source %S after %d attempt(s): %s"
           pe_source pe_attempts
           (Source_db.poll_error_to_string pe_error))
    | _ -> None)

(* read on every query and update, so taken from the static plan; a
   leaf has none, and raises the annotation's own error *)
let mat_attrs t node =
  match Hashtbl.find t.derived.d_nodes node with
  | np -> np.np_mat
  | exception Not_found -> Annotation.materialized_attrs t.ann node

(* Join-key index columns per node: wherever a definition joins a
   stored child, IUP's ΔA ⋈ B_old propagation probes the sibling's
   pre-update table on a join-key column, so index them up front. *)
let join_index_plan vdp =
  let specs : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let add name keys =
    let cur = match Hashtbl.find_opt specs name with Some l -> l | None -> [] in
    Hashtbl.replace specs name (List.sort_uniq String.compare (keys @ cur))
  in
  let schema_of e = Expr.schema_of (fun n -> (Graph.node vdp n).Graph.schema) e in
  let rec walk = function
    | Expr.Base _ -> ()
    | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Rename (_, e) -> walk e
    | Expr.Join (a, p, b) ->
      let lk, rk = Bag.join_keys (schema_of a) (schema_of b) p in
      (match a with Expr.Base n -> add n lk | _ -> ());
      (match b with Expr.Base n -> add n rk | _ -> ());
      walk a;
      walk b
    | Expr.Union (a, b) | Expr.Diff (a, b) ->
      walk a;
      walk b
  in
  List.iter
    (fun node ->
      match node.Graph.kind with
      | Graph.Leaf _ -> ()
      | Graph.Derived _ -> walk (Graph.def vdp node.Graph.name))
    (Graph.nodes vdp);
  fun name ~mat ->
    (* only columns the materialized projection retains *)
    List.filter
      (fun a -> List.mem a mat)
      (match Hashtbl.find_opt specs name with Some l -> l | None -> [])

let leaf_origins vdp node a =
  let schema = Graph.schema_env vdp in
  let rec go node a =
    if Graph.is_leaf vdp node then [ (node, a) ]
    else
      List.concat_map (fun (b, c) -> go b c)
        (Inc_eval.origins ~schema (Graph.def vdp node) a)
  in
  go node a

(* The (leaf, column) pairs a keyed poll can name, at the sources the
   mediator polls after initialization (virtual and hybrid
   contributors): the leaf columns behind (1) the columns the update
   steps' reads can be restricted on ([Derived_from.step_restrictable])
   and, with the key-based construction on, (2) the keys of the keyed
   children of a node with virtual attributes, by which it polls. Only
   a derived child with virtual attributes is ever polled (a request
   never names a leaf). *)
let source_index_plan vdp ann ~key_based ~steps ~nodes ~kinds =
  let polled =
    List.concat_map (fun (child, a) ->
        if Graph.is_leaf vdp child || Annotation.virtual_attrs ann child = []
        then []
        else leaf_origins vdp child a)
  in
  let restricted =
    List.concat_map (fun st -> polled (Derived_from.step_restrictable vdp st)) steps
  in
  let keyed =
    if not key_based then []
    else
      Hashtbl.fold
        (fun node np acc ->
          if Annotation.virtual_attrs ann node = [] then acc
          else
            polled
              (List.concat_map
                 (fun (child, _, key) -> List.map (fun k -> (child, k)) key)
                 np.np_keyed)
            @ acc)
        nodes []
  in
  List.sort_uniq compare
    (List.filter
       (fun (leaf, _) ->
         kinds (Graph.source_of_leaf vdp leaf) <> Ledger.Materialized_contributor)
       (restricted @ keyed))

(* Every annotation-dependent fact the processors read, computed once
   in {!create} (the annotation never changes afterwards). Per derived
   node it also compiles what the processors run repeatedly: a value
   plan of the definition (resync/initialization rebuilds); a value and
   a delta plan of the full-width restricted definition (the IUP's
   kernel pass), the delta plan compiled against the children's
   declared schemas with index joins prepared into the stored tables;
   a leaf-parent's filter (its definition as one fused pass over the
   leaf's deltas) and poll data (source, definition, and the leaf
   column behind each attribute); the node's VAP closure rule
   ([Derived_from.rule]: the static half of [derived_from] and of the
   restricted definition); and the projection of the node's deltas
   onto its table. A per-request VAP restriction is a top-level
   select/project chain, compiled per call over the plan below it in
   [d_plans]. *)
let build_derived vdp ann ~key_based ~kinds ~tables =
  let d_parents = Hashtbl.create 16 in
  let d_nodes = Hashtbl.create 16 in
  let d_plans = Hashtbl.create 16 in
  let schema = Graph.schema_env vdp in
  let index ~name ~left ~on ~test ~filter =
    match Hashtbl.find_opt tables name with
    | Some table -> Table.delta_join table ~left ~on ?test ?filter ()
    | None -> None
  in
  List.iter
    (fun node ->
      let name = node.Graph.name in
      Hashtbl.replace d_parents name (Graph.parents vdp name);
      match node.Graph.kind with
      | Graph.Leaf _ -> ()
      | Graph.Derived def ->
        ignore (Plan.of_expr ~memo:d_plans def : Plan.t);
        let rule = Derived_from.rule vdp name in
        let full =
          Derived_from.restrict rule ~attrs:(Schema.attrs node.Graph.schema)
            ~cond:Predicate.True
        in
        ignore (Plan.of_expr ~memo:d_plans full : Plan.t);
        let children = Graph.children vdp name in
        (* Example 2.3's key-based construction: the SPJ node's children
           whose whole key the node materializes *)
        let mat = Annotation.materialized_attrs ann name in
        let keyed =
          if not (Expr.is_spj def) then []
          else
            List.filter_map
              (fun child ->
                let cs = (Graph.node vdp child).Graph.schema in
                let key = Schema.key cs in
                if key <> [] && List.for_all (fun k -> List.mem k mat) key then
                  Some (child, cs, key)
                else None)
              children
        in
        Hashtbl.replace d_nodes name
          {
            np_mat = mat;
            np_leaf =
              (match children with
              | [ leaf ] when Graph.is_leaf vdp leaf ->
                Some
                  {
                    lp_node = name;
                    lp_leaf = leaf;
                    lp_source = Graph.source_of_leaf vdp leaf;
                    lp_def = def;
                    lp_columns =
                      List.filter_map
                        (fun a ->
                          match leaf_origins vdp name a with
                          | [ (base, col) ] when String.equal base leaf ->
                            Some (a, col)
                          | _ -> None)
                        (Schema.attrs node.Graph.schema);
                    lp_filter = Delta_plan.unary (schema leaf) def;
                    lp_poll = None;
                  }
              | _ -> None);
            np_children = List.map (fun c -> (c, schema c)) children;
            np_delta = Delta_plan.of_expr ~index ~schema full;
            np_stage =
              Option.map
                (fun table ->
                  ( table,
                    if mat = Schema.attrs node.Graph.schema then Fun.id
                    else Delta_plan.unary node.Graph.schema (Expr.project mat (Expr.base name)) ))
                (Hashtbl.find_opt tables name);
            np_keyed = keyed;
            np_rule = rule;
          })
    (Graph.nodes vdp);
  let d_steps = Derived_from.update_steps vdp ann in
  {
    d_steps;
    d_leaf_parents =
      List.filter_map
        (fun node ->
          match Hashtbl.find_opt d_nodes node.Graph.name with
          | Some { np_leaf = Some lp; _ } -> Some lp
          | Some _ | None -> None)
        (Graph.nodes vdp);
    d_down =
      List.rev
        (List.filter_map
           (fun name ->
             Option.map (fun np -> (name, np)) (Hashtbl.find_opt d_nodes name))
           (Graph.topo_order vdp));
    d_parents;
    d_nodes;
    d_index_plan =
      source_index_plan vdp ann ~key_based ~steps:d_steps ~nodes:d_nodes ~kinds;
    d_plans;
  }

let eval t ~env expr = Plan.run (Plan.of_expr ~memo:t.derived.d_plans expr) ~env

let update_steps t = t.derived.d_steps
let leaf_parents t = t.derived.d_leaf_parents
let nodes_down t = t.derived.d_down

let node_parents t node =
  match Hashtbl.find_opt t.derived.d_parents node with
  | Some ps -> ps
  | None -> []

let node_plan t node =
  match Hashtbl.find_opt t.derived.d_nodes node with
  | Some p -> p
  | None -> err "%S is not a derived node" node

let index_plan t src =
  List.filter
    (fun (leaf, _) -> String.equal (Graph.source_of_leaf t.vdp leaf) src)
    t.derived.d_index_plan

let create ~engine ~vdp ~annotation ?(config = Config.default) ~sources () =
  let source_tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace source_tbl (Source_db.name s) s) sources;
  (* every VDP source must be present and agree on leaf schemas *)
  List.iter
    (fun src_name ->
      match Hashtbl.find_opt source_tbl src_name with
      | None -> err "VDP references source %S but none was supplied" src_name
      | Some src ->
        List.iter
          (fun leaf ->
            let declared = (Graph.node vdp leaf).Graph.schema in
            let actual =
              try Source_db.schema src leaf
              with Source_db.Source_error msg -> err "%s" msg
            in
            if not (Schema.equal declared actual) then
              err "leaf %S: VDP schema %s disagrees with source schema %s"
                leaf
                (Schema.to_string declared)
                (Schema.to_string actual))
          (Graph.leaves_of_source vdp src_name))
    (Graph.sources vdp);
  let tables = Hashtbl.create 16 in
  let indexes_of = join_index_plan vdp in
  List.iter
    (fun node ->
      let name = node.Graph.name in
      match node.Graph.kind with
      | Graph.Leaf _ -> ()
      | Graph.Derived _ ->
        let mat = Annotation.materialized_attrs annotation name in
        if mat <> [] then
          Hashtbl.replace tables name
            (Table.create ~indexes:(indexes_of name ~mat) ~name
               (Schema.project node.Graph.schema mat)))
    (Graph.nodes vdp);
  (* per source, the upward closure of its leaves (every node whose
     value can depend on it: the answer cache's invalidation unit) and
     its classification of Sec. 4 (which portions it feeds) *)
  let sources =
    List.map
      (fun src ->
        let closure =
          List.sort_uniq String.compare
            (List.concat_map (Graph.ancestors vdp) (Graph.leaves_of_source vdp src))
        in
        let feeds marked = List.exists (fun n -> marked annotation n <> []) closure in
        ( src,
          (if not (feeds Annotation.materialized_attrs) then Ledger.Virtual_contributor
           else if feeds Annotation.virtual_attrs then Ledger.Hybrid_contributor
           else Ledger.Materialized_contributor),
          closure ))
      (Graph.sources vdp)
  in
  let ledger = Ledger.create sources in
  let t =
    {
      engine;
      vdp;
      ann = annotation;
      tables;
      mutex = Engine.Mutex.create ();
      config;
      trace =
        Obs.Trace.create
          ~capacity:config.Config.trace_capacity
          ~enabled:config.Config.trace_enabled
          ~now:(fun () -> Engine.now engine)
          ~ops_counter:Eval.tuple_ops ();
      source_tbl;
      leaf_reads = Hashtbl.create 8;
      ledger;
      stats = fresh_stats ();
      log = [];
      initialized = false;
      derived =
        build_derived vdp annotation
          ~key_based:config.Config.key_based_enabled
          ~kinds:(Ledger.contributor_kind ledger) ~tables;
      subscribers = [];
    }
  in
  t

let source t name =
  match Hashtbl.find_opt t.source_tbl name with
  | Some s -> s
  | None -> err "no source %S" name

let export_schemas t =
  List.map (fun n -> (n.Graph.name, n.Graph.schema)) (Graph.exports t.vdp)

let is_covered t ~node ~attrs =
  let mat = mat_attrs t node in
  List.for_all (fun a -> List.mem a mat) attrs

let node_table t node = Hashtbl.find_opt t.tables node

let store_env t name = Option.map Table.contents (node_table t name)

(* ---- the Sec. 6.1 ledger's transitions, instrumented ----
   {!Ledger} decides; each function below turns what it decided into
   the counters, trace events, charges and releases it costs. *)

let dropped t n = Obs.Metrics.add t.stats.cache_invalidations n

(* A gap counts and records a gap_detected root event: the source, the
   version that revealed it (an announcement's [prev_version] and
   [version], a poll's [answer_version]), [seen] and the detector. *)
let report t ~source ~via ?prev_version version = function
  | Ledger.Gap { seen; dropped = n } ->
    Obs.Metrics.incr t.stats.gaps_detected;
    let sp = Obs.Trace.root_event t.trace "gap_detected" in
    Obs.Trace.set_attr t.trace sp "source" source;
    (match prev_version with
    | Some p ->
      Obs.Trace.set_attri t.trace sp "prev_version" p;
      Obs.Trace.set_attri t.trace sp "version" version
    | None -> Obs.Trace.set_attri t.trace sp "answer_version" version);
    Obs.Trace.set_attri t.trace sp "seen" seen;
    Obs.Trace.set_attr t.trace sp "via" via;
    dropped t n
  | Ledger.Dropped n -> dropped t n
  | Ledger.Clean | Ledger.Duplicate -> ()

let enqueue t (u : Message.update) =
  Obs.Metrics.incr t.stats.messages_received;
  Obs.Metrics.add t.stats.atoms_received (Multi_delta.atom_count u.Message.delta);
  match Ledger.enqueue t.ledger u with
  | Ledger.Duplicate ->
    Obs.Metrics.incr t.stats.dup_messages_dropped;
    let sp = Obs.Trace.root_event t.trace "dup_dropped" in
    Obs.Trace.set_attr t.trace sp "source" u.Message.source;
    Obs.Trace.set_attri t.trace sp "version" u.Message.version
  | outcome ->
    report t ~source:u.Message.source ~via:"announcement"
      ~prev_version:u.Message.prev_version u.Message.version outcome;
    let depth = Ledger.queue_length t.ledger in
    Obs.Metrics.set t.stats.queue_depth (float_of_int depth);
    let sp = Obs.Trace.root_event t.trace "enqueue" in
    Obs.Trace.set_attr t.trace sp "source" u.Message.source;
    Obs.Trace.set_attri t.trace sp "version" u.Message.version;
    Obs.Trace.set_attri t.trace sp "atoms"
      (Multi_delta.atom_count u.Message.delta);
    Obs.Trace.set_attri t.trace sp "depth" depth

let observe_poll t ~via source version =
  let outcome = Ledger.observe_poll t.ledger source version in
  report t ~source ~via version outcome;
  outcome

let take_batch t =
  let batch = Ledger.take_batch t.ledger ~max:t.config.Config.max_batch in
  Obs.Metrics.set t.stats.queue_depth
    (float_of_int (Ledger.queue_length t.ledger));
  batch

let after_batch t entries ~staged ~affected =
  let r = Ledger.after_batch t.ledger entries ~staged ~affected in
  Eval.charge_tuple_ops r.Ledger.maintained_atoms;
  dropped t r.Ledger.dropped;
  (* bounded-history support: versions below what we now reflect will
     never be polled or checked again by this mediator *)
  if t.config.Config.release_history then
    List.iter
      (fun (s, v) -> Source_db.release (source t s) ~upto:v)
      (Ledger.reflect_vector t.ledger);
  r.Ledger.intervals

let after_snapshot t versions =
  dropped t (Ledger.after_snapshot t.ledger versions)

let cache_serve t ~node ~attrs ~cond serve =
  if not t.config.answer_cache_enabled then None
  else
    let served = Ledger.cache_serve t.ledger ~node ~attrs ~cond serve in
    Obs.Metrics.incr
      (if Option.is_some served then t.stats.cache_hits
       else t.stats.cache_misses);
    served

(* One record per transaction: the checker's log and every subscriber
   read the same event. The initialization snapshot is logged but
   reaches no subscriber, which starts from a full read anyway. *)
let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let emit t e =
  t.log <- e :: t.log;
  if t.initialized then List.iter (fun f -> f e) t.subscribers

let events t = List.rev t.log

let charge_ops t kind ops =
  (match kind with
  | `Update -> Obs.Metrics.add t.stats.ops_update ops
  | `Query -> Obs.Metrics.add t.stats.ops_query ops);
  if t.config.op_time > 0.0 && ops > 0 then
    Engine.sleep t.engine (float_of_int ops *. t.config.op_time)

(* --- Theorem 7.2, online ----------------------------------------------

   Per-answer freshness bound: for each source, an instant w (the
   freshness {e witness}) at which the served data is known to have
   been current at that source; the reported bound is [now - w].
   Witnesses:

   - a source polled during this transaction: the poll answer's
     [state_time] (ECA compensation preserves exactly that state);
   - an announcing (materialized/hybrid) contributor: the reflected
     version's [r_send_time] — at flush time the flushed version was
     the source's current version;
   - an unpolled virtual contributor: the reflect entry is [Current],
     which carries no staleness by construction (bound 0);
   - a stale-marked source of a degraded answer: the reflected
     version's commit time (the marker's age), the honest worst case.

   The source commit superseding the witnessed version can only happen
   at or after w, so the checker's measured staleness
   [now - next_commit] never exceeds the reported [now - w]. *)
let answer_bound t ?(polled_times = []) ?(stale = []) () =
  let now = Engine.now t.engine in
  List.map
    (fun src ->
      let witness =
        match List.assoc_opt src polled_times with
        | Some w -> w
        | None ->
          if List.exists (fun m -> String.equal m.st_source src) stale then
            (Ledger.reflected t.ledger src).r_commit_time
          else if Ledger.contributor_kind t.ledger src = Ledger.Virtual_contributor
          then now
          else (Ledger.reflected t.ledger src).r_send_time
      in
      (src, Float.max 0.0 (now -. witness)))
    (Graph.sources t.vdp)

(* Poll with bounded retry and exponential backoff. [config.poll_retries]
   is the total attempt budget; each failed attempt doubles the wait,
   starting from [config.poll_backoff]. Exhaustion raises {!Poll_failed}
   so the caller can degrade or defer instead of crashing the process. *)
let poll_with_retry t src requests =
  let src_name = Source_db.name src in
  let budget = max 1 t.config.poll_retries in
  Obs.Trace.with_span t.trace "poll" (fun poll_sp ->
      Obs.Trace.set_attr t.trace poll_sp "source" src_name;
      let t0 = Engine.now t.engine in
      let rec attempt n backoff =
        let outcome =
          Obs.Trace.with_span t.trace "attempt" (fun sp ->
              Obs.Trace.set_attri t.trace sp "n" n;
              let r =
                Source_db.try_poll src ?timeout:t.config.poll_timeout requests
              in
              (match r with
              | Ok _ -> Obs.Trace.set_attr t.trace sp "result" "ok"
              | Error e ->
                Obs.Trace.set_attr t.trace sp "result"
                  (Source_db.poll_error_to_string e));
              r)
        in
        match outcome with
        | Ok a ->
          Obs.Trace.set_attri t.trace poll_sp "attempts" n;
          Obs.Metrics.observe t.stats.poll_rtt (Engine.now t.engine -. t0);
          a
        | Error e ->
          if n >= budget then begin
            Obs.Metrics.incr t.stats.poll_failures;
            Obs.Trace.set_attri t.trace poll_sp "attempts" n;
            Obs.Trace.set_attr t.trace poll_sp "outcome" "exhausted";
            Obs.Metrics.observe t.stats.poll_rtt (Engine.now t.engine -. t0);
            raise
              (Poll_failed
                 { pe_source = src_name; pe_attempts = n; pe_error = e })
          end
          else begin
            Obs.Metrics.incr t.stats.poll_retries;
            Engine.sleep t.engine backoff;
            attempt (n + 1) (backoff *. 2.0)
          end
      in
      attempt 1 t.config.poll_backoff)
