(* The IUP kernel (Sec. 6.4). Everything the annotation fixes was
   compiled into the mediator's derived table at [Med.create]: each
   leaf-parent's filter, each update step's reads, each node's delta
   plan with its join terms and prepared index joins, and the
   projection of each node's deltas onto its table. A pass does only
   what its batch decides: which leaf-parents and steps the delta
   reaches, the key sets of the reads, the VAP requests, whether a
   temporary shadows a table, and which children changed. *)

open Relalg
open Delta
open Vdp
open Sim
open Sources
open Storage

(* a leaf delta through a leaf-parent's compiled filter *)
let leaf_parent_delta (lp : Med.leaf_parent) (delta : Multi_delta.t) =
  match Multi_delta.find delta lp.Med.lp_leaf with
  | None -> None
  | Some d ->
    let filtered = lp.Med.lp_filter d in
    if Rel_delta.is_empty filtered then None else Some (lp.Med.lp_node, filtered)

(* The group-commit transaction body, caller-locked:
   [update_transaction] wraps {!drain} in the mediator mutex; the QP
   calls {!drain} directly under its own lock when an SLO forces a
   queue drain mid-query (the engine mutex is not reentrant). One call
   applies ONE batch of up to [config.max_batch] contiguous
   announcements as a single kernel pass. *)
let run (t : Med.t) =
      (* a detected announcement gap makes the queue unusable for the
         affected source — rebuild from a snapshot before processing.
         If the source is still unreachable, keep deferring: a later
         flusher tick retries after the fault heals. *)
      (try Resync.resync_if_dirty t with Med.Poll_failed _ -> ());
      let entries = Med.take_batch t in
      if entries = [] then false
      else
        let trace = t.Med.trace in
        Obs.Trace.batch trace ~entries:(List.length entries) (fun () ->
        let tx_start = Engine.now t.Med.engine in
        (* the constituent transactions, each as a child span: the
           batch is their atomic application *)
        List.iter
          (fun e ->
            Obs.Trace.update_tx trace ~source:e.Message.source
              ~version:e.Message.version ~prev_version:e.Message.prev_version
              ~atoms:(Multi_delta.atom_count e.Message.delta))
          entries;
        try
        let ops_before = Eval.tuple_ops () in
        (* (1) smash the batch into one coalesced super-delta; the
           signed-bag semigroup fold cancels +t/−t churn pairs before
           any evaluation sees them *)
        let raw_atoms =
          List.fold_left
            (fun acc e -> acc + Multi_delta.atom_count e.Message.delta)
            0 entries
        in
        let delta =
          List.fold_left
            (fun acc e -> Multi_delta.smash acc e.Message.delta)
            Multi_delta.empty entries
        in
        let coalesced_atoms = Multi_delta.atom_count delta in
        let annihilated = (raw_atoms - coalesced_atoms) / 2 in
        Obs.Trace.coalesced trace ~atoms:coalesced_atoms ~raw_atoms;
        (* (2) IUP Preparation: filter through leaf-parents, close the
           affected set upward, and find the children whose values the
           fired rules will read — among those, the ones not covered by
           materialized data become VAP requests *)
        let lp_deltas, affected, process, requests =
          Obs.Trace.temp_determination trace (fun () ->
        let lp_deltas =
          List.filter_map
            (fun lp -> leaf_parent_delta lp delta)
            (Med.leaf_parents t)
        in
        (* affected set: upward closure of changed leaf-parents *)
        let affected = Hashtbl.create 16 in
        let rec mark node =
          if not (Hashtbl.mem affected node) then begin
            Hashtbl.add affected node ();
            List.iter mark (Med.node_parents t node)
          end
        in
        List.iter (fun (n, _) -> mark n) lp_deltas;
        let changed name = Hashtbl.mem affected name in
        let process =
          List.filter
            (fun step -> changed step.Derived_from.s_node)
            (Med.update_steps t)
        in
        (* the processed nodes' value reads of the non-leaf children
           [only] lists, as requests, each narrowed to the rows the
           fired rule can join with the leaf-parent deltas: a read's
           key set is computed only once it is a request *)
        let reads only =
          List.concat_map
            (fun step ->
              match only step with
              | [] -> []
              | only ->
                List.map
                  (fun (child, b, cond) ->
                    { Vap.r_node = child; r_attrs = b; r_cond = cond })
                  (Derived_from.step_reads ~only step ~changed
                     ~known:(fun n -> List.assoc_opt n lp_deltas)))
            process
        in
        (* a temp shadows its table for the whole kernel pass, so once
           a node gets one (requested, or added by the VAP closure),
           every read of it joins its request — a reader the store
           covers included — and no reader sees rows restricted for
           another. The first requests are the uncovered reads, so
           only a covered read of a temp's node can grow them. *)
        let rec settle requests ~first =
          let closed = Vap.closure t requests in
          let temps = List.map (fun c -> c.Vap.r_node) closed.Vap.c_requests in
          if
            requests = []
            || first
               && not
                    (List.exists
                       (fun step ->
                         List.exists
                           (fun (child, _) ->
                             List.mem child temps
                             && not (List.mem child step.Derived_from.s_uncovered))
                           step.Derived_from.s_reads)
                       process)
          then closed
          else
            let grown = reads (fun _ -> temps) in
            if List.length grown = List.length requests then closed
            else settle grown ~first:false
        in
        let requests =
          settle ~first:true (reads (fun step -> step.Derived_from.s_uncovered))
        in
        Obs.Trace.determined trace ~affected:(Hashtbl.length affected)
          ~requests:requests.Vap.c_asked;
        (lp_deltas, affected, process, requests))
        in
        (* (3) populate temporaries at the pre-update state, from the
           closure [settle] already computed *)
        let vap_result =
          if requests.Vap.c_asked = 0 then
            { Vap.temps = []; polled_versions = []; polled_times = [] }
          else Vap.build t ~kind:(`Update delta) requests
        in
        let env name =
          match List.assoc_opt name vap_result.Vap.temps with
          | Some b -> Some b
          | None -> Med.store_env t name
        in
        (* a temp shadows its table: the kernel pass joins the temp,
           not the table's prepared index join *)
        let shadowed name = List.mem_assoc name vap_result.Vap.temps in
        (* (4) kernel pass: upward traversal in topological order.
           Deltas are computed everywhere against PRE-update values
           (the telescoped rules account for simultaneity internally),
           so table applications are deferred until the pass is done. *)
        let deltas_tbl : (string, Rel_delta.t) Hashtbl.t = Hashtbl.create 16 in
        let to_apply = ref [] in
        let stage node d =
          match (Med.node_plan t node).Med.np_stage with
          | Some (table, project) ->
            to_apply := (node, table, project d) :: !to_apply
          | None -> ()
        in
        Obs.Trace.kernel_pass trace (fun () ->
        List.iter
          (fun (n, d) ->
            Hashtbl.replace deltas_tbl n d;
            stage n d)
          lp_deltas;
        List.iter
          (fun { Derived_from.s_node = node; _ } ->
            let np = Med.node_plan t node in
            if List.exists (fun (c, _) -> Hashtbl.mem deltas_tbl c) np.Med.np_children
            then
              Obs.Trace.delta trace ~node (fun () ->
              (* an unchanged child contributes an empty delta over
                 its DECLARED schema: falling through to the store's
                 bag would narrow the schema to the materialized
                 attributes and break the plan's projections when a
                 batch touches only some of a union's branches *)
              let child_delta c =
                match Hashtbl.find_opt deltas_tbl c with
                | Some d -> Some d
                | None ->
                  Option.map Rel_delta.empty (List.assoc_opt c np.Med.np_children)
              in
              let d =
                Delta_plan.run ~shadowed ~env ~deltas:child_delta np.Med.np_delta
              in
              Obs.Trace.delta_atoms trace (Rel_delta.atom_count d);
              if not (Rel_delta.is_empty d) then begin
                Hashtbl.replace deltas_tbl node d;
                Obs.Metrics.add t.Med.stats.Med.propagated_atoms
                  (Rel_delta.atom_count d);
                stage node d
              end))
          process;
        Obs.Trace.kernel_nodes trace (Hashtbl.length deltas_tbl));
        Obs.Trace.apply trace ~tables:(List.length !to_apply) (fun () ->
            List.iter
              (fun (_, table, d) -> Table.apply_delta table d)
              !to_apply);
        (* the answer cache and ref' follow the applied batch *)
        let intervals =
          Med.after_batch t entries ~staged:!to_apply
            ~affected:(Hashtbl.fold (fun n () acc -> n :: acc) affected [])
        in
        (* the batch's record, emitted before the compute charge: a
           subscribed mirror commits at the instant the store changed *)
        let ut_exports =
          if t.Med.subscribers = [] then []
          else
            List.filter_map
              (fun (n : Graph.node) ->
                match Hashtbl.find_opt deltas_tbl n.Graph.name with
                | Some d when not (Rel_delta.is_empty d) ->
                  Some (n.Graph.name, d)
                | _ -> None)
              (Graph.exports t.Med.vdp)
        in
        Med.emit t
          (Med.Update_tx
             {
               ut_time = Engine.now t.Med.engine;
               ut_reflect = Ledger.reflect_vector t.Med.ledger;
               ut_atoms = Multi_delta.atom_count delta;
               ut_txs = List.length entries;
               ut_intervals = intervals;
               ut_exports;
             });
        Obs.Metrics.incr t.Med.stats.Med.update_txs;
        Obs.Metrics.add t.Med.stats.Med.coalesced_txs (List.length entries);
        Obs.Metrics.add t.Med.stats.Med.annihilated_pairs annihilated;
        Obs.Metrics.observe t.Med.stats.Med.batch_size
          (float_of_int (List.length entries));
        Med.charge_ops t `Update (Eval.tuple_ops () - ops_before);
        (* a transaction that propagated real deltas through derived
           nodes without a single VAP request touched no source: the
           store (auxiliary views included) covered every value the
           fired rules read — the view maintained itself *)
        let self_maintained = process <> [] && requests.Vap.c_asked = 0 in
        if self_maintained then
          Obs.Metrics.incr t.Med.stats.Med.self_maintained_txs;
        Obs.Trace.batch_outcome trace
          (if self_maintained then Obs.Trace.Self_maintained else Obs.Trace.Applied);
        Obs.Metrics.observe t.Med.stats.Med.update_tx_time
          (Engine.now t.Med.engine -. tx_start);
        true
        with (Med.Poll_failed _ | Med.Desync _) as exn ->
          (* abort: put the work back untouched (no table was modified
             — applications happen only after the kernel pass, which
             the poll precedes) and let a later tick retry or resync *)
          Ledger.requeue t.Med.ledger entries;
          Obs.Metrics.incr t.Med.stats.Med.update_deferrals;
          Obs.Trace.batch_outcome trace
            (Obs.Trace.Deferred (Printexc.to_string exn));
          false)

(* Empty the queue completely: one [run] per batch until a pass
   applies nothing (empty queue, or every remaining entry deferred).
   Returns whether any batch was applied. *)
let drain (t : Med.t) =
  let rec go applied = if run t then go true else applied in
  go false

let update_transaction (t : Med.t) =
  Engine.Mutex.with_lock t.Med.engine t.Med.mutex (fun () -> drain t)

let start_flusher (t : Med.t) =
  let rec loop () =
    Engine.sleep t.Med.engine t.Med.config.Med.Config.flush_interval;
    ignore (update_transaction t);
    loop ()
  in
  Engine.spawn t.Med.engine loop
