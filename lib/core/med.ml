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

type queue_entry = {
  q_source : string;
  q_version : int;
  q_prev_version : int;
  q_commit_time : float;
  q_send_time : float;
  q_delta : Multi_delta.t;
}

type reflected = {
  r_version : int;
  r_commit_time : float;
  r_send_time : float;
}

type contributor_kind =
  | Materialized_contributor
  | Hybrid_contributor
  | Virtual_contributor

type reflect_entry = Version of int | Current

type staleness = { st_source : string; st_version : int; st_age : float }

type event =
  | Update_tx of {
      ut_time : float;
      ut_reflect : (string * int) list;
      ut_atoms : int;
      ut_txs : int;
      ut_intervals : (string * (int * int)) list;
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

type cached_answer = {
  mutable ca_answer : Bag.t;
      (** for a maintained entry, brought up to date after every delta
          its table absorbs (bags are persistent, so answers already
          handed out stay valid) *)
  ca_polled : (string * int) list;
  ca_polled_times : (string * float) list;
  ca_trace_id : int option;
      (** polled versions (and their poll state times — the freshness
          witnesses) of the VAP that produced the answer, and the
          query_tx span that computed it; replayed into the reflect
          vector, bound and provenance of every cache hit *)
  ca_scan : (Rel_delta.t -> Rel_delta.t) option;
      (** for an answer the store rung computed by scanning the node's
          table, π_attrs σ_cond over the table's deltas, compiled once:
          the IUP's delta maintains such an answer instead of dropping
          it *)
  mutable ca_absorbed : int;
      (** delta atoms maintained into the answer since its last hit *)
}

type cache = {
  entries : (string * string list * Predicate.t, cached_answer) Hashtbl.t;
      (** [Fresh] answers by (node, attrs, cond) *)
  polled_hw : (string, int) Hashtbl.t;
      (** highest source version observed per source (announcements and
          poll answers alike); an advance invalidates the source's
          closure in the answer cache *)
}

type export_event =
  | Export_delta of {
      ee_time : float;
      ee_reflect : (string * int) list;
      ee_deltas : (string * Rel_delta.t) list;
    }
  | Export_snapshot of { es_time : float }

type leaf_parent = {
  lp_node : string;
  lp_leaf : string;
  lp_source : string;
  lp_def : Expr.t;
  lp_columns : (string * string) list;
  lp_filter : Rel_delta.t -> Rel_delta.t;
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
  d_source_closure : (string, string list) Hashtbl.t;
      (** source → upward closure of its leaves: every node whose value
          can depend on the source, the invalidation unit of the answer
          cache *)
  d_kinds : (string, contributor_kind) Hashtbl.t;
  d_index_plan : (string * string) list;
      (** the (leaf, column) pairs keyed polls can name *)
  d_plans : (Expr.t, Plan.t) Hashtbl.t;
      (** the value plans {!eval} runs, keyed by the expression below a
          request's top-level select/project/rename chain: a
          definition, or a restricted definition narrowed to a set of
          wanted attributes — finitely many per VDP *)
}

type ledger = {
  queue : queue_entry Queue.t;
  mutable reflected : (string * reflected) list;
  mutable seen : (string * int) list;
  mutable dirty : string list;
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
  ledger : ledger;
  stats : stats;
  mutable log : event list;
  mutable initialized : bool;
  derived : derived;
  cache : cache;
  mutable export_subs : (export_event -> unit) list;
}

exception Mediator_error of string

type poll_exhausted = {
  pe_source : string;
  pe_attempts : int;
  pe_error : Source_db.poll_error;
}

exception Poll_failed of poll_exhausted

exception Desync of string
(** Raised mid-transaction when a polled answer reflects source
    versions the mediator never received announcements for (a dropped
    message); the transaction must abort and resync before ECA can be
    trusted again. *)

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
         Hashtbl.find kinds (Graph.source_of_leaf vdp leaf)
         <> Materialized_contributor)
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
let build_derived vdp ann ~key_based ~tables =
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
  let d_source_closure = Hashtbl.create 8 in
  let d_kinds = Hashtbl.create 8 in
  List.iter
    (fun src ->
      let closure =
        List.sort_uniq String.compare
          (List.concat_map
             (fun leaf -> Graph.ancestors vdp leaf)
             (Graph.leaves_of_source vdp src))
      in
      Hashtbl.replace d_source_closure src closure;
      (* the classification of Sec. 4: which portions the source feeds *)
      let feeds marked = List.exists (fun n -> marked ann n <> []) closure in
      Hashtbl.replace d_kinds src
        (match
           ( feeds Annotation.materialized_attrs,
             feeds Annotation.virtual_attrs )
         with
        | true, true -> Hybrid_contributor
        | true, false -> Materialized_contributor
        | false, _ -> Virtual_contributor))
    (Graph.sources vdp);
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
    d_source_closure;
    d_kinds;
    d_index_plan =
      source_index_plan vdp ann ~key_based ~steps:d_steps ~nodes:d_nodes
        ~kinds:d_kinds;
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

let source_closure t src =
  match Hashtbl.find_opt t.derived.d_source_closure src with
  | Some ns -> ns
  | None -> []

let contributor_kind t src =
  match Hashtbl.find_opt t.derived.d_kinds src with
  | Some k -> k
  | None -> Virtual_contributor

(* an announcing contributor's heartbeat finds lost announcements; a
   virtual one's staleness is resolved by polling at query time —
   unless cached answers can be served without polling, in which case
   the heartbeat must observe version advances for them *)
let watched_sources t =
  List.filter
    (fun src ->
      contributor_kind t src <> Virtual_contributor
      || t.config.Config.answer_cache_enabled)
    (Graph.sources t.vdp)

let index_plan t src =
  List.filter
    (fun (leaf, _) -> String.equal (Graph.source_of_leaf t.vdp leaf) src)
    t.derived.d_index_plan

(* ---- query answer cache ----
   Keyed by (node, attrs, cond); holds only [Fresh] answers. Hits are
   served with a reflect vector recomputed at serve time from the
   entry's recorded polled versions, so reflect entries of sources the
   answer does not depend on stay monotone. Two classes of entry:

   - A scan-served store answer π_attrs σ_cond T (the store rung read
     all of T's table) is maintained: after the IUP applies ΔT to the
     table, {!after_batch} applies π_attrs σ_cond ΔT to the answer. No
     invalidation trigger drops it; it goes on resync snapshots, when a
     source its node can see turns dirty ({!mark_dirty}), and once the
     delta atoms it absorbed since its last hit reach its table's
     support — by then maintaining it has cost one recompute.
   - Every other answer is invalidated: the upward closure of an
     announcing source at {!enqueue}; the IUP's affected closure after
     tables are updated; the closure of any source whose polled
     version is observed to advance ({!observe_source_version} —
     covers dropped announcements from virtual contributors); and a
     wholesale flush on resync snapshots. *)

let cache_serve t ~node ~attrs ~cond serve =
  if not t.config.answer_cache_enabled then None
  else
    let served =
      match Hashtbl.find_opt t.cache.entries (node, attrs, cond) with
      | None -> None
      | Some ca -> (
        match
          serve ~answer:ca.ca_answer ~polled:ca.ca_polled
            ~polled_times:ca.ca_polled_times ~trace_id:ca.ca_trace_id
        with
        | Some r ->
          (* a hit restarts the entry's eviction count *)
          ca.ca_absorbed <- 0;
          Some r
        | None -> None)
    in
    Obs.Metrics.incr
      (if Option.is_some served then t.stats.cache_hits
       else t.stats.cache_misses);
    served

let cache_store t ~node ~attrs ~cond ~polled ?(polled_times = []) ?trace_id
    ?(scanned = false) answer =
  (* a [Fresh] answer was computed with no source dirty; one that turned
     dirty since (an announcement arriving while the query charged its
     ops) has already dropped its closure, so do not put it back *)
  if t.config.answer_cache_enabled && t.ledger.dirty = [] then
    Hashtbl.replace t.cache.entries (node, attrs, cond)
      {
        ca_answer = answer;
        ca_polled = polled;
        ca_polled_times = polled_times;
        ca_trace_id = trace_id;
        ca_scan =
          (match Hashtbl.find_opt t.tables node with
          | Some table when scanned ->
            Some
              (Delta_plan.unary (Table.schema table)
                 (Expr.project attrs (Expr.select cond (Expr.base node))))
          | Some _ | None -> None);
        ca_absorbed = 0;
      }

(* drop the entries [doomed] picks, counted as invalidations *)
let cache_drop t doomed =
  if Hashtbl.length t.cache.entries > 0 then begin
    let n = ref 0 in
    Hashtbl.filter_map_inplace
      (fun key ca ->
        if doomed key ca then begin
          incr n;
          None
        end
        else Some ca)
      t.cache.entries;
    Obs.Metrics.add t.stats.cache_invalidations !n
  end

let on_nodes nodes (n, _, _) = List.exists (String.equal n) nodes

(* drop every invalidated-class answer against one of the nodes;
   maintained entries stay *)
let cache_invalidate_nodes t nodes =
  if nodes <> [] then
    cache_drop t (fun key ca -> Option.is_none ca.ca_scan && on_nodes nodes key)

(* π_attrs σ_cond commutes with applying a delta, so a scan-served
   answer on a staged node absorbs π_attrs σ_cond ΔT — one tuple op
   per atom of ΔT — unless that brings its absorbed atoms up to the
   table's support, which evicts it *)
let cache_maintain t staged =
  if staged <> [] then
    cache_drop t (fun (n, _, _) ca ->
        match
          ( ca.ca_scan,
            List.find_opt (fun (node, _, _) -> String.equal node n) staged )
        with
        | Some maintain, Some (_, table, d) ->
          let atoms = Rel_delta.atom_count d in
          ca.ca_absorbed <- ca.ca_absorbed + atoms;
          if ca.ca_absorbed >= Table.support_cardinal table then true
          else begin
            Eval.charge_tuple_ops atoms;
            ca.ca_answer <-
              Rel_delta.apply ca.ca_answer (maintain d);
            false
          end
        | _ -> false)

(* the high-water mark advance behind {!observe_source_version} *)
let observe_version t src version =
  let prev =
    match Hashtbl.find_opt t.cache.polled_hw src with Some v -> v | None -> 0
  in
  if version > prev then begin
    Hashtbl.replace t.cache.polled_hw src version;
    if t.config.answer_cache_enabled then
      cache_invalidate_nodes t (source_closure t src)
  end

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
  let reflected =
    List.map
      (fun s -> (s, { r_version = 0; r_commit_time = 0.0; r_send_time = 0.0 }))
      (Graph.sources vdp)
  in
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
      ledger =
        {
          queue = Queue.create ();
          reflected;
          seen = List.map (fun s -> (s, 0)) (Graph.sources vdp);
          dirty = [];
        };
      stats = fresh_stats ();
      log = [];
      initialized = false;
      derived =
        build_derived vdp annotation
          ~key_based:config.Config.key_based_enabled ~tables;
      cache = { entries = Hashtbl.create 32; polled_hw = Hashtbl.create 8 };
      export_subs = [];
    }
  in
  t

let source t name =
  match Hashtbl.find_opt t.source_tbl name with
  | Some s -> s
  | None -> err "no source %S" name

(* Mediator-as-source (the paper's composability claim): downstream
   tiers — the federation coordinator in particular — subscribe to
   learn when export relations changed (post-apply deltas) or were
   rebuilt wholesale (resync snapshot), without reaching into the
   transaction internals. Subscribers run synchronously inside the
   transaction and must not block. *)
let subscribe_exports t f = t.export_subs <- t.export_subs @ [ f ]

let notify_exports t ev = List.iter (fun f -> f ev) t.export_subs

let export_schemas t =
  List.map (fun n -> (n.Graph.name, n.Graph.schema)) (Graph.exports t.vdp)

let is_covered t ~node ~attrs =
  let mat = mat_attrs t node in
  List.for_all (fun a -> List.mem a mat) attrs

let node_table t node = Hashtbl.find_opt t.tables node

let store_env t name = Option.map Table.contents (node_table t name)

let reflected_version t src_name =
  match List.assoc_opt src_name t.ledger.reflected with
  | Some r -> r
  | None -> err "source %S is not tracked" src_name

let set_reflected t src_name r =
  t.ledger.reflected <-
    (src_name, r) :: List.remove_assoc src_name t.ledger.reflected

let seen_version t src_name =
  match List.assoc_opt src_name t.ledger.seen with
  | Some v -> v
  | None -> err "source %S is not tracked" src_name

let note_seen t src_name v =
  if v > seen_version t src_name then
    t.ledger.seen <- (src_name, v) :: List.remove_assoc src_name t.ledger.seen

let observe_source_version t src_name version =
  observe_version t src_name version;
  seen_version t src_name

let mark_dirty t src_name =
  if not (List.mem src_name t.ledger.dirty) then begin
    t.ledger.dirty <- src_name :: t.ledger.dirty;
    (* an answer over the source's gap is not [Fresh]: drop every
       cached answer the source can reach, maintained ones included *)
    let closure = source_closure t src_name in
    cache_drop t (fun key _ -> on_nodes closure key)
  end

let dirty_sources t = t.ledger.dirty

let gap_event t ~source ~via attrs =
  Obs.Metrics.incr t.stats.gaps_detected;
  let sp = Obs.Trace.root_event t.trace "gap_detected" in
  Obs.Trace.set_attr t.trace sp "source" source;
  List.iter (fun (k, v) -> Obs.Trace.set_attri t.trace sp k v) attrs;
  Obs.Trace.set_attr t.trace sp "via" via;
  mark_dirty t source

(* ---- the update queue: two rules, each coded once ----
   The chain check: a delta whose predecessor is [prev] applies on top
   of version [from] (a higher [prev] means a lost announcement). The
   covered test: the entry's effect is already in the store. *)
let chains ~from prev = prev <= from

let covered t e = e.q_version <= (reflected_version t e.q_source).r_version

(* the version [e] must chain onto, in a walk that has passed
   [heads] (the last version met per source) *)
let chain_from t heads e =
  match List.assoc_opt e.q_source heads with
  | Some v -> v
  | None -> (reflected_version t e.q_source).r_version

let queue_length t = Queue.length t.ledger.queue

let enqueue t (u : Message.update) =
  Obs.Metrics.incr t.stats.messages_received;
  Obs.Metrics.add t.stats.atoms_received (Multi_delta.atom_count u.Message.delta);
  let seen = seen_version t u.Message.source in
  if u.Message.version <= seen then begin
    (* a duplicated announcement (faulty channel): versions only move
       forward, so anything at or below what we have seen is a replay
       of a delta already queued or reflected — applying it twice would
       double-count *)
    Obs.Metrics.incr t.stats.dup_messages_dropped;
    let sp = Obs.Trace.root_event t.trace "dup_dropped" in
    Obs.Trace.set_attr t.trace sp "source" u.Message.source;
    Obs.Trace.set_attri t.trace sp "version" u.Message.version
  end
  else begin
    if not (chains ~from:seen u.Message.prev_version) then begin
      (* the delta's predecessor never arrived: an announcement was
         lost in transit. The queue no longer composes to the source's
         state, so ECA cannot be trusted — mark the source for resync. *)
      gap_event t ~source:u.Message.source ~via:"announcement"
        [
          ("prev_version", u.Message.prev_version);
          ("version", u.Message.version);
          ("seen", seen);
        ]
    end;
    note_seen t u.Message.source u.Message.version;
    (* announced data supersedes any cached answer that can see the
       source; also advances the observed high-water mark so a later
       poll returning this same version does not re-invalidate *)
    observe_version t u.Message.source u.Message.version;
    let entry =
      {
        q_source = u.Message.source;
        q_version = u.Message.version;
        q_prev_version = u.Message.prev_version;
        q_commit_time = u.Message.commit_time;
        q_send_time = u.Message.send_time;
        q_delta = u.Message.delta;
      }
    in
    Queue.add entry t.ledger.queue;
    let depth = queue_length t in
    Obs.Metrics.set t.stats.queue_depth (float_of_int depth);
    let sp = Obs.Trace.root_event t.trace "enqueue" in
    Obs.Trace.set_attr t.trace sp "source" u.Message.source;
    Obs.Trace.set_attri t.trace sp "version" u.Message.version;
    Obs.Trace.set_attri t.trace sp "atoms"
      (Multi_delta.atom_count u.Message.delta);
    Obs.Trace.set_attri t.trace sp "depth" depth
  end

(* put [entries] back at the head of the queue, in order *)
let requeue t = function
  | [] -> ()
  | entries ->
    let front = Queue.of_seq (List.to_seq entries) in
    Queue.transfer t.ledger.queue front;
    Queue.transfer front t.ledger.queue

(* Group-commit drain (see the interface). A dirty source's entries
   chain onto a lost delta, so the walk steps over them, leaving them
   in place until a resync repairs the source. *)
let take_batch t =
  let q = t.ledger.queue in
  let rec go taken n held heads =
    if Queue.is_empty q || n >= t.config.Config.max_batch then (taken, held)
    else
      let e = Queue.peek q in
      if List.mem e.q_source t.ledger.dirty then
        go taken n (Queue.take q :: held) heads
      else if covered t e then (
        ignore (Queue.take q : queue_entry);
        go taken n held heads)
      else if not (chains ~from:(chain_from t heads e) e.q_prev_version) then
        (taken, held)
      else
        go (Queue.take q :: taken) (n + 1) held
          ((e.q_source, e.q_version) :: List.remove_assoc e.q_source heads)
  in
  let taken, held = go [] 0 [] [] in
  requeue t (List.rev held);
  Obs.Metrics.set t.stats.queue_depth (float_of_int (queue_length t));
  List.rev taken

(* The batch's bookkeeping once its deltas are in the tables (see the
   interface): the answer cache first, then ref'. *)
let after_batch t entries ~staged ~affected =
  (* the tables behind any cached answer in the affected closure just
     changed: scan-served store answers take the same deltas; the
     rest, cached since the announcements arrived (computed from
     pre-update tables), must not be served again *)
  cache_maintain t staged;
  cache_invalidate_nodes t affected;
  (* advance ref' per source (Sec. 6.1) by one version *interval* —
     (from, to] in a single jump. The freshness witness keeps the
     OLDEST constituent's commit and send times: every batched
     transaction is at least that old, so the reported bound stays an
     over-approximation of the true staleness of anything the batch
     folded in (Theorem 7.2 stays sound under coalescing). Every taken
     entry is newer than its source's reflected version, so every
     source in the batch advances. *)
  let per_source =
    List.fold_left
      (fun acc e ->
        match List.assoc_opt e.q_source acc with
        | Some (first, _) ->
          (e.q_source, (first, e)) :: List.remove_assoc e.q_source acc
        | None -> (e.q_source, (e, e)) :: acc)
      [] entries
  in
  let intervals =
    List.rev_map
      (fun (src, (first, last)) ->
        let from = (reflected_version t src).r_version in
        set_reflected t src
          {
            r_version = last.q_version;
            r_commit_time = first.q_commit_time;
            r_send_time = first.q_send_time;
          };
        (src, (from, last.q_version)))
      per_source
  in
  (* bounded-history support: versions below what we now reflect will
     never be polled or checked again by this mediator *)
  if t.config.Config.release_history then
    List.iter
      (fun s ->
        Source_db.release (source t s) ~upto:(reflected_version t s).r_version)
      (Graph.sources t.vdp);
  intervals

(* The snapshot's polls yield, so announcements kept arriving — one
   may reveal a new gap in a source already polled. Recompute the
   dirty set from the surviving entries; a blanket clear would lose
   that repair. *)
let after_snapshot t versions =
  (* every cached answer predates the snapshot *)
  Obs.Metrics.add t.stats.cache_invalidations
    (Hashtbl.length t.cache.entries);
  Hashtbl.reset t.cache.entries;
  List.iter
    (fun (src, version, state_time) ->
      observe_version t src version;
      set_reflected t src
        {
          r_version = version;
          r_commit_time = state_time;
          r_send_time = state_time;
        };
      note_seen t src version)
    versions;
  let kept = Queue.create () in
  let heads = ref [] in
  t.ledger.dirty <- [];
  Queue.iter
    (fun e ->
      if not (covered t e) then begin
        Queue.add e kept;
        if not (chains ~from:(chain_from t !heads e) e.q_prev_version) then
          mark_dirty t e.q_source;
        heads := (e.q_source, e.q_version) :: List.remove_assoc e.q_source !heads
      end)
    t.ledger.queue;
  Queue.clear t.ledger.queue;
  Queue.transfer kept t.ledger.queue

let unseen_delta t ~pending ~source ~leaf =
  let schema = (Graph.node t.vdp leaf).Graph.schema in
  let from_pending =
    match Multi_delta.find pending leaf with
    | Some d -> d
    | None -> Rel_delta.empty schema
  in
  Queue.fold
    (fun acc e ->
      if String.equal e.q_source source && not (covered t e) then
        match Multi_delta.find e.q_delta leaf with
        | Some d -> Rel_delta.smash acc d
        | None -> acc
      else acc)
    from_pending t.ledger.queue

let log_event t e = t.log <- e :: t.log
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
      match List.assoc_opt src polled_times with
      | Some w -> (src, Float.max 0.0 (now -. w))
      | None ->
        if List.exists (fun m -> String.equal m.st_source src) stale then
          (src, Float.max 0.0 (now -. (reflected_version t src).r_commit_time))
        else (
          match contributor_kind t src with
          | Virtual_contributor -> (src, 0.0)
          | Materialized_contributor | Hybrid_contributor ->
            (src, Float.max 0.0 (now -. (reflected_version t src).r_send_time))))
    (Graph.sources t.vdp)

(* Poll with bounded retry and exponential backoff. [config.poll_retries]
   is the total attempt budget; each failed attempt doubles the wait,
   starting from [config.poll_backoff]. Exhaustion raises {!Poll_failed}
   so the caller can degrade or defer instead of crashing the process. *)
let poll_with_retry t src ?keys queries =
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
                Source_db.try_poll src ?timeout:t.config.poll_timeout ?keys queries
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
