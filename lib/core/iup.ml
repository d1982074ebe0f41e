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
        Obs.Trace.with_span trace "batch_tx" (fun tx_sp ->
        Obs.Trace.set_attri trace tx_sp "entries" (List.length entries);
        let tx_start = Engine.now t.Med.engine in
        (* the constituent transactions, each as a child span: the
           batch is their atomic application *)
        List.iter
          (fun e ->
            Obs.Trace.with_span trace "update_tx" (fun sp ->
                Obs.Trace.set_attr trace sp "source" e.Message.source;
                Obs.Trace.set_attri trace sp "version" e.Message.version;
                Obs.Trace.set_attri trace sp "prev_version"
                  e.Message.prev_version;
                Obs.Trace.set_attri trace sp "atoms"
                  (Multi_delta.atom_count e.Message.delta)))
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
        Obs.Trace.set_attri trace tx_sp "atoms" coalesced_atoms;
        Obs.Trace.set_attri trace tx_sp "raw_atoms" raw_atoms;
        Obs.Trace.set_attri trace tx_sp "annihilated_pairs" annihilated;
        (* (2) IUP Preparation: filter through leaf-parents, close the
           affected set upward, and find the children whose values the
           fired rules will read — among those, the ones not covered by
           materialized data become VAP requests *)
        let lp_deltas, affected, process, requests =
          Obs.Trace.with_span trace "temp_determination" (fun det_sp ->
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
        (* the processed nodes' value reads of non-leaf children, as
           requests, each narrowed to the rows the fired rule can join
           with the leaf-parent deltas *)
        let reads =
          List.concat_map
            (fun step ->
              List.map
                (fun (child, b, cond) ->
                  { Vap.r_node = child; r_attrs = b; r_cond = cond })
                (Derived_from.step_reads step ~changed
                   ~known:(fun n -> List.assoc_opt n lp_deltas)))
            process
        in
        (* a temp shadows its table for the whole kernel pass, so once
           a node gets one (requested, or added by the VAP closure),
           every read of it joins its request — a reader the store
           covers included — and no reader sees rows restricted for
           another *)
        let rec settle requests =
          let closed = Vap.closure t requests in
          if requests = [] then closed
          else
            let grown =
              List.filter
                (fun r ->
                  List.exists
                    (fun c -> String.equal c.Vap.r_node r.Vap.r_node)
                    closed.Vap.c_requests)
                reads
            in
            if List.length grown = List.length requests then closed
            else settle grown
        in
        let requests =
          settle
            (List.filter
               (fun r ->
                 not (Med.is_covered t ~node:r.Vap.r_node ~attrs:r.Vap.r_attrs))
               reads)
        in
        Obs.Trace.set_attri trace det_sp "affected" (Hashtbl.length affected);
        Obs.Trace.set_attri trace det_sp "requests" requests.Vap.c_asked;
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
        Obs.Trace.with_span trace "kernel_pass" (fun kp_sp ->
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
              Obs.Trace.with_span trace "delta" (fun d_sp ->
              Obs.Trace.set_attr trace d_sp "node" node;
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
              Obs.Trace.set_attri trace d_sp "atoms" (Rel_delta.atom_count d);
              if not (Rel_delta.is_empty d) then begin
                Hashtbl.replace deltas_tbl node d;
                Obs.Metrics.add t.Med.stats.Med.propagated_atoms
                  (Rel_delta.atom_count d);
                stage node d
              end))
          process;
        Obs.Trace.set_attri trace kp_sp "nodes" (Hashtbl.length deltas_tbl));
        Obs.Trace.with_span trace "apply" (fun ap_sp ->
            Obs.Trace.set_attri trace ap_sp "tables" (List.length !to_apply);
            List.iter
              (fun (_, table, d) -> Table.apply_delta table d)
              !to_apply);
        (* the answer cache and ref' follow the applied batch *)
        let intervals =
          Med.after_batch t entries ~staged:!to_apply
            ~affected:(Hashtbl.fold (fun n () acc -> n :: acc) affected [])
        in
        (* mediator-as-source: surface the export relations' deltas to
           downstream subscribers (the federation coordinator) now that
           the tables reflect them *)
        if t.Med.export_subs <> [] then begin
          let ee_deltas =
            List.filter_map
              (fun (n : Graph.node) ->
                match Hashtbl.find_opt deltas_tbl n.Graph.name with
                | Some d when not (Rel_delta.is_empty d) ->
                  Some (n.Graph.name, d)
                | _ -> None)
              (Graph.exports t.Med.vdp)
          in
          Med.notify_exports t
            (Med.Export_delta
               {
                 ee_time = Engine.now t.Med.engine;
                 ee_reflect = Ledger.reflect_vector t.Med.ledger;
                 ee_deltas;
               })
        end;
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
        if process <> [] && requests.Vap.c_asked = 0 then begin
          Obs.Metrics.incr t.Med.stats.Med.self_maintained_txs;
          Obs.Trace.set_attr trace tx_sp "served" "self_maintained"
        end;
        Obs.Trace.set_attr trace tx_sp "outcome" "applied";
        Obs.Metrics.observe t.Med.stats.Med.update_tx_time
          (Engine.now t.Med.engine -. tx_start);
        Med.log_event t
          (Med.Update_tx
             {
               ut_time = Engine.now t.Med.engine;
               ut_reflect = Ledger.reflect_vector t.Med.ledger;
               ut_atoms = Multi_delta.atom_count delta;
               ut_txs = List.length entries;
               ut_intervals = intervals;
             });
        true
        with (Med.Poll_failed _ | Med.Desync _) as exn ->
          (* abort: put the work back untouched (no table was modified
             — applications happen only after the kernel pass, which
             the poll precedes) and let a later tick retry or resync *)
          Ledger.requeue t.Med.ledger entries;
          Obs.Metrics.incr t.Med.stats.Med.update_deferrals;
          Obs.Trace.set_attr trace tx_sp "outcome" "deferred";
          Obs.Trace.set_attr trace tx_sp "error" (Printexc.to_string exn);
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
