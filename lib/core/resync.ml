open Relalg
open Vdp
open Sim
open Sources
open Storage

(* Re-initialize-style snapshot: poll every source for the full
   contents of its leaves (one source transaction each), rebuild every
   materialized table bottom-up, reset the reflect vector, and drop
   queued announcements the snapshot already covers.

   Two-phase so a mid-way poll failure leaves the mediator untouched:
   all polls complete before any state mutates — otherwise a partially
   advanced reflect vector would disagree with tables never rebuilt. *)
let snapshot ?(trigger = "init") (t : Med.t) =
  Obs.Trace.with_span t.Med.trace "snapshot" (fun sp ->
  Obs.Trace.set_attr t.Med.trace sp "trigger" trigger;
  let answers =
    List.filter_map
      (fun src_name ->
        let src = Med.source t src_name in
        let leaves = Graph.leaves_of_source t.Med.vdp src_name in
        if leaves = [] then None
        else begin
          let whole l =
            {
              Source_db.rq_prepared =
                (match Hashtbl.find_opt t.Med.leaf_reads l with
                | Some read -> read
                | None -> Med.err "leaf %S read before its source connected" l);
              rq_attrs = None;
              rq_cond = Predicate.True;
              rq_key = None;
            }
          in
          let answer =
            Med.poll_with_retry t src (List.map (fun l -> (l, whole l)) leaves)
          in
          Obs.Metrics.incr t.Med.stats.Med.polls;
          Some (src_name, answer)
        end)
      (Graph.sources t.Med.vdp)
  in
  let leaf_values : (string, Bag.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, answer) ->
      List.iter
        (fun (l, b) -> Hashtbl.replace leaf_values l b)
        answer.Message.results)
    answers;
  (* reset the reflect vector, drop every cached answer and the queued
     entries the snapshot covers; recompute the dirty set *)
  Med.after_snapshot t
    (List.map
       (fun (src_name, answer) ->
         (src_name, answer.Message.answer_version, answer.Message.state_time))
       answers);
  (* populate bottom-up *)
  let values : (string, Bag.t) Hashtbl.t = Hashtbl.create 16 in
  let env name =
    match Hashtbl.find_opt values name with
    | Some b -> Some b
    | None -> Hashtbl.find_opt leaf_values name
  in
  (* a table adopts its value's storage unless a leaf answer (possibly
     the source's own relation) or another node's value shares it: two
     holders updating one storage would walk each other's updates *)
  let shared_elsewhere node b =
    let shares n v = (not (String.equal n node)) && Bag.shares b v in
    Hashtbl.fold (fun n v acc -> acc || shares n v) values false
    || Hashtbl.fold (fun n v acc -> acc || shares n v) leaf_values false
  in
  List.iter
    (fun node ->
      let value = Med.eval t ~env (Graph.def t.Med.vdp node) in
      Hashtbl.replace values node value;
      match Med.node_table t node with
      | Some table ->
        let b = Bag.project (Med.mat_attrs t node) value in
        Table.load table (if shared_elsewhere node b then Bag.copy b else b)
      | None -> ())
    (Graph.topo_order t.Med.vdp);
  Med.emit t
    (Med.Update_tx
       {
         ut_time = Engine.now t.Med.engine;
         ut_reflect = Ledger.reflect_vector t.Med.ledger;
         ut_atoms = 0;
         ut_txs = 0;
         ut_intervals = [];
         ut_exports = [];
       }))

let resync_if_dirty (t : Med.t) =
  match Ledger.dirty_sources t.Med.ledger with
  | [] -> ()
  | dirty ->
    Obs.Metrics.incr t.Med.stats.Med.resyncs;
    Obs.Trace.with_span t.Med.trace "resync" (fun sp ->
        Obs.Trace.set_attr t.Med.trace sp "sources"
          (String.concat "," (List.sort String.compare dirty));
        snapshot ~trigger:"gap" t)
