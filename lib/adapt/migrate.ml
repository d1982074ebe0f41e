open Relalg
open Vdp
open Sim
open Storage
open Squirrel

type node_change = {
  c_node : string;
  c_from : string list;
  c_to : string list;
}

type plan = {
  p_old : Annotation.t;
  p_new : Annotation.t;
  p_changes : node_change list;
}

let diff vdp ~old_ann ~new_ann =
  let changes =
    List.filter_map
      (fun node ->
        let name = node.Graph.name in
        let from_ = Annotation.materialized_attrs old_ann name in
        let to_ = Annotation.materialized_attrs new_ann name in
        if from_ = to_ then None
        else Some { c_node = name; c_from = from_; c_to = to_ })
      (Graph.non_leaves vdp)
  in
  { p_old = old_ann; p_new = new_ann; p_changes = changes }

let is_noop p = p.p_changes = []

let gained c = List.filter (fun a -> not (List.mem a c.c_from)) c.c_to
let lost c = List.filter (fun a -> not (List.mem a c.c_to)) c.c_from

let promotions p =
  List.filter_map
    (fun c -> match gained c with [] -> None | g -> Some (c.c_node, g))
    p.p_changes

let demotions p =
  List.filter_map
    (fun c -> match lost c with [] -> None | l -> Some (c.c_node, l))
    p.p_changes

let describe p =
  let part verb sign moves =
    match moves with
    | [] -> []
    | _ ->
      [
        verb ^ " "
        ^ String.concat ", "
            (List.map
               (fun (n, attrs) ->
                 Format.sprintf "%s{%s}" n
                   (String.concat ","
                      (List.map (fun a -> sign ^ a) attrs)))
               moves);
      ]
  in
  match part "promote" "+" (promotions p) @ part "demote" "-" (demotions p) with
  | [] -> "no-op"
  | parts -> String.concat "; " parts

let apply (t : Med.t) plan =
  Engine.Mutex.with_lock t.Med.engine t.Med.mutex (fun () ->
      if not t.Med.initialized then
        Med.err "cannot migrate an uninitialized mediator";
      if not (Annotation.equal t.Med.ann plan.p_old) then
        Med.err "stale migration plan: annotation changed since diff";
      Obs.Trace.with_span t.Med.trace "migration"
        ~attrs:[ ("plan", describe plan) ]
        (fun mig_sp ->
      let ops_before = Eval.tuple_ops () in
      (* one VAP construction (under the OLD annotation, so Eager
         Compensation lines polled answers up with the store's
         reflected state) for every node gaining attributes *)
      let requests =
        List.filter_map
          (fun c ->
            if c.c_to <> [] && gained c <> [] then
              Some
                { Vap.r_node = c.c_node; r_attrs = c.c_to; r_cond = Predicate.True }
            else None)
          plan.p_changes
      in
      let vap =
        if requests = [] then
          { Vap.temps = []; polled_versions = []; polled_times = [] }
        else Vap.build t ~kind:`Query requests
      in
      (* capture the new contents before any table is dropped. Only
         nodes we explicitly requested take their VAP temporary —
         [vap.temps] also holds closure-internal temporaries for
         descendants of rebuilt nodes, carrying whatever attributes
         the PARENT rebuild needed, not [c_to]; a shrink-only node
         must project its existing table instead *)
      let new_contents =
        List.filter_map
          (fun c ->
            if c.c_to = [] then None
            else
              let value =
                if gained c <> [] then
                  match List.assoc_opt c.c_node vap.Vap.temps with
                  | Some temp -> Bag.project c.c_to temp
                  | None ->
                    Med.err "migration: no temporary built for %S" c.c_node
                else
                  match Med.node_table t c.c_node with
                  | Some table -> Bag.project c.c_to (Table.contents table)
                  | None ->
                    Med.err
                      "migration: %S shrinks but has no table to project"
                      c.c_node
              in
              Some (c.c_node, value))
          plan.p_changes
      in
      let indexes_of = Med.join_index_plan t.Med.vdp in
      List.iter
        (fun c ->
          (match Med.node_table t c.c_node with
          | Some _ -> Store.drop_table t.Med.store c.c_node
          | None -> ());
          match List.assoc_opt c.c_node new_contents with
          | None -> ()
          | Some value ->
            let schema = (Graph.node t.Med.vdp c.c_node).Graph.schema in
            let table =
              Store.create_table t.Med.store
                ~indexes:(indexes_of c.c_node ~mat:c.c_to)
                ~name:c.c_node
                (Schema.project schema c.c_to)
            in
            Table.load table value)
        plan.p_changes;
      t.Med.ann <- plan.p_new;
      (* the annotation epoch changed: relevant sets, contributor
         kinds, and invalidation closures are all stale, and any
         cached answer's reflect entries may flip between
         polled-version and reflected-version semantics — drop both
         caches and recompile the (restricted) definition plans *)
      Med.invalidate_derived t;
      Med.cache_flush t;
      Med.warm_plans t;
      (* polled virtual-contributor sources now back materialized data
         at the snapshot the poll returned: advance their reflected
         versions and drop queue entries the snapshot covers (the
         initialize-time bookkeeping) *)
      List.iter
        (fun (src, v) ->
          if v > (Med.reflected_version t src).Med.r_version then begin
            let time =
              match List.assoc_opt src vap.Vap.polled_times with
              | Some x -> x
              | None -> Engine.now t.Med.engine
            in
            Med.set_reflected t src
              {
                Med.r_version = v;
                r_from_version = (Med.reflected_version t src).Med.r_version;
                r_commit_time = time;
                r_send_time = time;
              }
          end)
        vap.Vap.polled_versions;
      t.Med.queue <-
        List.filter
          (fun e ->
            e.Med.q_version
            > (Med.reflected_version t e.Med.q_source).Med.r_version)
          t.Med.queue;
      let ops = Eval.tuple_ops () - ops_before in
      Obs.Metrics.incr t.Med.stats.Med.migrations;
      Obs.Trace.set_attri mig_sp "mig_ops" ops;
      Med.charge_ops t `Migrate ops;
      ops))
