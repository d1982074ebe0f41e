open Relalg
open Vdp
open Sim
open Sources
open Storage

type t = Med.t

let create = Med.create

let connect (t : Med.t) () =
  let handler (msg : Message.t) =
    match msg with
    | Message.Update u -> Med.enqueue t u
    | Message.Answer (ivar, a) ->
      (* a faulty channel can duplicate the answer message; only the
         first copy wakes the poller (or none, if it already timed
         out and will never read the ivar — still fill it so the
         invariant "delivered answers are filled" holds) *)
      if not (Engine.Ivar.is_filled ivar) then
        Engine.Ivar.fill t.Med.engine ivar a
  in
  List.iter
    (fun src_name ->
      let d = t.Med.config.Med.Config.delays src_name in
      let src = Med.source t src_name in
      Source_db.connect src ~comm_delay:d.Med.comm_delay
        ~q_proc_delay:d.Med.q_proc_delay handler;
      List.iter
        (fun leaf ->
          Hashtbl.replace t.Med.leaf_reads leaf
            (Source_db.prepare src (Expr.base leaf)))
        (Graph.leaves_of_source t.Med.vdp src_name))
    (Graph.sources t.Med.vdp);
  (* each leaf-parent's poll is prepared once, keyed on the leaf
     columns of its source's index plan *)
  List.iter
    (fun (lp : Med.leaf_parent) ->
      let keys =
        List.filter_map
          (fun (leaf, col) -> if String.equal leaf lp.Med.lp_leaf then Some col else None)
          (Med.index_plan t lp.Med.lp_source)
      in
      lp.Med.lp_poll <-
        Some (Source_db.prepare (Med.source t lp.Med.lp_source) ~keys lp.Med.lp_def))
    (Med.leaf_parents t);
  Iup.start_flusher t;
  (* anti-entropy heartbeat: an empty-query poll answers with the
     source's current version; a mismatch against the versions seen in
     announcements reveals a silently dropped one and marks the source
     for resync. Without it, a dropped FINAL announcement would never
     be discovered — nothing later arrives to reveal the gap. *)
  match t.Med.config.Med.Config.version_check_interval with
  | None -> ()
  | Some period ->
    (* a virtual contributor's staleness is resolved by polling at query
       time, unless cached answers are served without polling: then the
       heartbeat must observe its version advances for them *)
    let watched =
      List.filter
        (fun src ->
          Ledger.contributor_kind t.Med.ledger src <> Ledger.Virtual_contributor
          || t.Med.config.Med.Config.answer_cache_enabled)
        (Graph.sources t.Med.vdp)
    in
    let rec checker () =
      Engine.sleep t.Med.engine period;
      if t.Med.initialized then
        List.iter
          (fun src_name ->
            match
              Source_db.try_poll (Med.source t src_name)
                ?timeout:t.Med.config.Med.Config.poll_timeout []
            with
            | Ok a ->
              Obs.Metrics.incr t.Med.stats.Med.version_checks;
              (* a gap marks the source for resync; a virtual
                 contributor has no ECA baseline to repair, only cached
                 answers to invalidate *)
              ignore
                (Med.observe_poll t ~via:"heartbeat" src_name
                   a.Message.answer_version
                  : Ledger.outcome)
            | Error _ -> ())
          watched;
      checker ()
    in
    Engine.spawn t.Med.engine checker

let initialize (t : Med.t) =
  if t.Med.initialized then Med.err "mediator already initialized";
  Engine.Mutex.with_lock t.Med.engine t.Med.mutex (fun () ->
      Resync.snapshot t;
      t.Med.initialized <- true)

(* selection conditions inside a leaf-parent's definition *)
(* conditions in the leaf (source) namespace: conditions above a
   renaming are rewritten through its inverse *)
let rec def_conditions = function
  | Expr.Base _ -> []
  | Expr.Select (p, e) -> p :: def_conditions e
  | Expr.Project (_, e) -> def_conditions e
  | Expr.Rename (mapping, e) ->
    let inverse = List.map (fun (a, b) -> (b, a)) mapping in
    List.map (Predicate.rename inverse) (def_conditions e)
  | Expr.Join _ | Expr.Union _ | Expr.Diff _ -> []

(* translate an attribute of the leaf-parent's (renamed) namespace
   back to the source relation's namespace, composing the inverses of
   every renaming in the definition, outermost first *)
let rec to_source_attr def a =
  match def with
  | Expr.Base _ -> a
  | Expr.Select (_, e) | Expr.Project (_, e) -> to_source_attr e a
  | Expr.Rename (mapping, e) ->
    let inverse = List.map (fun (o, n) -> (n, o)) mapping in
    let a' = match List.assoc_opt a inverse with Some o -> o | None -> a in
    to_source_attr e a'
  | Expr.Join _ | Expr.Union _ | Expr.Diff _ -> a

let enable_source_filtering (t : Med.t) =
  List.iter
    (fun leaf_node ->
      let leaf = leaf_node.Graph.name in
      let src = Med.source t (Graph.source_of_leaf t.Med.vdp leaf) in
      match Graph.parents t.Med.vdp leaf with
      | [] -> ()
      | lps ->
        let per_lp =
          List.map
            (fun lp ->
              let def = Graph.def t.Med.vdp lp in
              let cond =
                Predicate.simplify (Predicate.conj (def_conditions def))
              in
              (* the node's attributes live in the renamed namespace;
                 the source filter needs its own names *)
              let node_attrs =
                List.map (to_source_attr def)
                  (Schema.attrs (Graph.node t.Med.vdp lp).Graph.schema)
              in
              (node_attrs @ Predicate.attrs cond, cond))
            lps
        in
        let attrs =
          List.sort_uniq String.compare (List.concat_map fst per_lp)
        in
        let cond =
          Predicate.simplify (Predicate.disj (List.map snd per_lp))
        in
        Source_db.set_filter src ~relation:leaf ~attrs ~cond)
    (Graph.leaves t.Med.vdp)

let query = Qp.query

(* Theorem 7.2's a-priori vector f̄. Only the sources in scope that the
   VAP actually polls contribute to the polling term: a materialized
   contributor is served from the store, so a query never waits on its
   round-trip. *)
type delay_profile = {
  ann_delay : string -> float;
  comm_delay : string -> float;
  q_proc_delay : string -> float;
  u_hold_delay : float;
  u_proc_delay : float;
  q_proc_delay_med : float;
}

let theorem_7_2_bound ~sources ~contributor profile src =
  let polling_term =
    List.fold_left
      (fun acc k ->
        if contributor k = Ledger.Materialized_contributor then acc
        else acc +. profile.q_proc_delay k +. profile.comm_delay k)
      0.0 sources
  in
  match contributor src with
  | Ledger.Materialized_contributor | Ledger.Hybrid_contributor ->
    profile.ann_delay src +. profile.comm_delay src +. profile.u_hold_delay
    +. profile.u_proc_delay +. polling_term
  | Ledger.Virtual_contributor -> polling_term +. profile.q_proc_delay_med

(* f̄ for a node, over the node's sources and the delays the simulation
   actually models: announcement holding (the period for [Periodic]
   sources, infinity for never-announcing ones), channel and source
   query-processing delays fixed at [connect], the mediator's flush
   interval, and observed mean transaction processing times. *)
let freshness_bound (t : Med.t) ~node =
  let sources =
    List.sort_uniq String.compare
      (List.map
         (Graph.source_of_leaf t.Med.vdp)
         (List.filter (Graph.is_leaf t.Med.vdp)
            (Graph.descendants t.Med.vdp node)))
  in
  let mean h =
    let n = Obs.Metrics.histogram_count h in
    if n = 0 then 0.0 else Obs.Metrics.histogram_sum h /. float_of_int n
  in
  let db = Med.source t in
  let profile =
    {
      ann_delay = (fun s -> Source_db.ann_delay (db s));
      comm_delay = (fun s -> Source_db.comm_delay (db s));
      q_proc_delay = (fun s -> Source_db.q_proc_delay (db s));
      u_hold_delay = t.Med.config.Med.Config.flush_interval;
      u_proc_delay = mean t.Med.stats.Med.update_tx_time;
      q_proc_delay_med = mean t.Med.stats.Med.query_tx_time;
    }
  in
  List.map
    (fun s ->
      ( s,
        theorem_7_2_bound ~sources ~contributor:(Ledger.contributor_kind t.Med.ledger)
          profile s ))
    sources

let subscribe_exports = Med.subscribe_exports
let process_updates = Iup.update_transaction

let annotation (t : Med.t) = t.Med.ann
let events = Med.events
let stats (t : Med.t) = t.Med.stats
let trace (t : Med.t) = t.Med.trace
let metrics (t : Med.t) = t.Med.stats.Med.registry
let contributor_kind (t : Med.t) = Ledger.contributor_kind t.Med.ledger

let store_bytes (t : Med.t) =
  Hashtbl.fold (fun _ tb acc -> acc + Table.bytes_estimate tb) t.Med.tables 0

let queue_length (t : Med.t) = Ledger.queue_length t.Med.ledger

let describe (t : Med.t) =
  let kind_str src =
    match Ledger.contributor_kind t.Med.ledger src with
    | Ledger.Materialized_contributor -> "materialized-contributor"
    | Ledger.Hybrid_contributor -> "hybrid-contributor"
    | Ledger.Virtual_contributor -> "virtual-contributor"
  in
  Format.asprintf
    "@[<v>== VDP ==@,%a@,== Annotation ==@,%a@,== Rulebase ==@,%s@,== Sources \
     ==@,%a@]"
    Graph.pp t.Med.vdp Annotation.pp t.Med.ann
    (Rules.describe t.Med.vdp)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt src ->
         Format.fprintf fmt "%s: %s" src (kind_str src)))
    (Graph.sources t.Med.vdp)
