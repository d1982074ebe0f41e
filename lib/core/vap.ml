(* The VAP (Sec. 6.3). Everything the annotation fixes was compiled
   into the mediator's derived table at [Med.create]: each derived
   node's closure rule (the static half of [derived_from] and of the
   restricted definition) and each leaf-parent's poll data (source,
   definition, key columns) and filter; [Mediator.connect] prepared
   each leaf-parent's definition at its source. A run derives per
   request only what the request decides: the closure's attribute and
   condition merges, the poll's attributes, condition and key, the
   compensation by the
   unseen delta (nothing when that is empty), and the narrowed
   definitions of inner temporaries. *)

open Relalg
open Delta
open Vdp
open Sources

type request = { r_node : string; r_attrs : string list; r_cond : Predicate.t }

type result = {
  temps : (string * Bag.t) list;
  polled_versions : (string * int) list;
  polled_times : (string * float) list;
}

type closed = { c_asked : int; c_requests : request list }

(* a request's attrs always cover its condition's attributes *)
let with_cond_attrs attrs cond =
  if cond == Predicate.True then attrs
  else
    match
      List.filter (fun a -> not (List.mem a attrs)) (Predicate.attrs cond)
    with
    | [] -> attrs
    | extra -> attrs @ extra

(* one temporary per node: the merged request [(B ∪ A', f ∨ g)] *)
type entry = {
  e_node : string;
  mutable e_attrs : string list;
  mutable e_cond : Predicate.t;
}

let find node entries = List.find_opt (fun e -> String.equal e.e_node node) entries

(* Merge a request into [entries]; true when that changed them. [or_]
   is idempotent but may rebuild an equal key set, so a widened
   condition is one that differs under [Predicate.equal] — a total
   order, in which a NaN constant equals itself. *)
let merge entries node attrs cond =
  let attrs = with_cond_attrs attrs cond in
  match find node !entries with
  | None ->
    entries := { e_node = node; e_attrs = attrs; e_cond = cond } :: !entries;
    true
  | Some e ->
    let grown = List.filter (fun a -> not (List.mem a e.e_attrs)) attrs in
    let cond' = Predicate.or_ e.e_cond cond in
    let widened = not (cond' == e.e_cond || Predicate.equal cond' e.e_cond) in
    if grown <> [] then e.e_attrs <- e.e_attrs @ grown;
    if widened then e.e_cond <- cond';
    grown <> [] || widened

let request e = { r_node = e.e_node; r_attrs = e.e_attrs; r_cond = e.e_cond }

let close (t : Med.t) requests =
  let entries = ref [] in
  let closing = ref false in
  List.iter
    (fun r ->
      (* a leaf or unknown node has no plan: [node_plan] rejects it *)
      let np = Med.node_plan t r.r_node in
      if np.Med.np_rule.Derived_from.ru_reads <> [] then closing := true;
      ignore (merge entries r.r_node r.r_attrs r.r_cond : bool))
    requests;
  (* parents before children, iterated to fixpoint: a request on any
     node makes its temporary shadow the store table during inner
     evaluation, so the temp must also carry every attribute some
     OTHER parent of that node needs — even a parent the store alone
     would have covered, and even one discovered on a later pass
     (multi-node requests over diamond-shaped VDPs hit both). A node
     whose children are all leaves reads nothing: a set of such
     requests is closed as merged. *)
  let changed = ref !closing in
  while !changed do
    changed := false;
    List.iter
      (fun (node, np) ->
        let rule = np.Med.np_rule in
        if rule.Derived_from.ru_reads <> [] then
          match find node !entries with
          | None -> ()
          | Some e ->
            List.iter
              (fun (child, b, g) ->
                if
                  (not (Med.is_covered t ~node:child ~attrs:b))
                  || Option.is_some (find child !entries)
                then if merge entries child b g then changed := true)
              (Derived_from.reads rule ~attrs:e.e_attrs ~cond:e.e_cond))
      (Med.nodes_down t)
  done;
  {
    c_asked = List.length requests;
    c_requests =
      List.filter_map
        (fun (node, _) -> Option.map request (find node !entries))
        (Med.nodes_down t);
  }

let closure t = function
  | [] -> { c_asked = 0; c_requests = [] }
  | requests -> close t requests

(* The key a leaf-parent poll names: a key-set conjunct of the
   request's condition on an attribute that copies one column of the
   leaf. Only the request's own condition is looked at, never a
   selection inside the definition (such as a constant filter the
   whole relation passes in halves). *)
let poll_key (lp : Med.leaf_parent) r =
  List.find_map
    (fun (a, vs) ->
      Option.map
        (fun col -> { Source_db.k_column = col; k_values = vs })
        (List.assoc_opt a lp.Med.lp_columns))
    (Predicate.key_sets r.r_cond)

(* a leaf-parent request as the source answers it: [π_attrs σ_cond]
   of the definition prepared at connect *)
let poll_request (lp : Med.leaf_parent) r =
  match lp.Med.lp_poll with
  | None -> Med.err "leaf-parent %S polled before its source connected" lp.Med.lp_node
  | Some prepared ->
    {
      Source_db.rq_prepared = prepared;
      rq_attrs = Some r.r_attrs;
      rq_cond = r.r_cond;
      rq_key = poll_key lp r;
    }

let build_inner (t : Med.t) ~pending closed =
  let reqs = closed.c_requests in
  let lp_reqs, inner_reqs =
    List.partition_map
      (fun r ->
        match (Med.node_plan t r.r_node).Med.np_leaf with
        | Some lp -> Either.Left (r, lp)
        | None -> Either.Right r)
      reqs
  in
  (* one temporary per closed request, so one entry per node *)
  let temps = ref [] in
  let polled_versions = ref [] in
  let polled_times = ref [] in
  (* group leaf-parent requests by source; one poll per source *)
  let by_source = Hashtbl.create 4 in
  List.iter
    (fun ((_, lp) as req) ->
      let src = lp.Med.lp_source in
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_source src)
      in
      Hashtbl.replace by_source src (req :: existing))
    lp_reqs;
  Hashtbl.iter
    (fun src_name pairs ->
      let src = Med.source t src_name in
      let answer =
        Med.poll_with_retry t src
          (List.map (fun (r, lp) -> (r.r_node, poll_request lp r)) pairs)
      in
      Obs.Metrics.incr t.Med.stats.Med.polls;
      Obs.Metrics.add t.Med.stats.Med.polled_tuples
        (List.fold_left
           (fun acc (_, b) -> acc + Bag.cardinal b)
           0 answer.Message.results);
      (* any polled answer observes the source's current version. A gap
         (a dropped or overtaken announcement) breaks ECA's
         precondition: the unseen delta no longer describes what the
         answer contains, so compensation would corrupt the view *)
      (match
         Med.observe_poll t ~via:"desync" src_name
           answer.Message.answer_version
       with
      | Ledger.Gap { seen; _ } ->
        raise
          (Med.Desync
             (Printf.sprintf "answer from %s reflects v%d but v%d announced"
                src_name answer.Message.answer_version seen))
      | Ledger.Clean | Ledger.Dropped _ | Ledger.Duplicate -> ());
      let contributor = Ledger.contributor_kind t.Med.ledger src_name in
      (match contributor with
      | Ledger.Virtual_contributor ->
        (* [state_time] is the instant the answered version was current
           at the source — the freshness witness {!Med.answer_bound}
           reports against. Announcing contributors are deliberately
           not recorded here: ECA compensates their temporaries back to
           the reflected state, whose witness is [r_send_time]. *)
        polled_versions :=
          (src_name, answer.Message.answer_version) :: !polled_versions;
        polled_times :=
          (src_name, answer.Message.state_time) :: !polled_times
      | Ledger.Materialized_contributor | Ledger.Hybrid_contributor -> ());
      List.iter
        (fun (r, lp) ->
          let polled = List.assoc r.r_node answer.Message.results in
          let value =
            if
              contributor <> Ledger.Virtual_contributor
              && t.Med.config.Med.Config.eca_enabled
            then
              Obs.Trace.with_span t.Med.trace "eca" (fun sp ->
                  Obs.Trace.set_attr t.Med.trace sp "source" src_name;
                  Obs.Trace.set_attr t.Med.trace sp "node" r.r_node;
                  (* Eager Compensation: roll the polled answer back to
                     the reflected state *)
                  let unseen =
                    Ledger.unseen_delta t.Med.ledger ~pending ~source:src_name
                      ~leaf:lp.Med.lp_leaf
                      ~schema:(Graph.node t.Med.vdp lp.Med.lp_leaf).Graph.schema
                  in
                  Obs.Trace.set_attri t.Med.trace sp "unseen_atoms"
                    (Rel_delta.atom_count unseen);
                  (* nothing unseen: the answer is the reflected state *)
                  if Rel_delta.is_empty unseen then polled
                  else
                    let comp = Rel_delta.inverse unseen in
                    let through_def = lp.Med.lp_filter comp in
                    let through_req =
                      Rel_delta.project r.r_attrs
                        (if Predicate.equal r.r_cond Predicate.True then
                           through_def
                         else Rel_delta.select r.r_cond through_def)
                    in
                    Rel_delta.apply polled through_req)
            else polled
          in
          temps := (r.r_node, value) :: !temps)
        pairs)
    by_source;
  (* inner temporaries bottom-up: the closed requests come parents
     before children *)
  List.iter
    (fun r ->
      let node = r.r_node in
      Obs.Trace.with_span t.Med.trace "temp" (fun sp ->
          Obs.Trace.set_attr t.Med.trace sp "node" node;
          let env name =
            match List.assoc_opt name !temps with
            | Some b -> Some b
            | None -> Med.store_env t name
          in
          let def =
            Derived_from.restrict (Med.node_plan t node).Med.np_rule
              ~attrs:r.r_attrs ~cond:r.r_cond
          in
          let with_sel =
            if Predicate.equal r.r_cond Predicate.True then def
            else Expr.select r.r_cond def
          in
          let value = Med.eval t ~env (Expr.project r.r_attrs with_sel) in
          Obs.Trace.set_attri t.Med.trace sp "tuples" (Bag.cardinal value);
          temps := (node, value) :: !temps))
    (List.rev inner_reqs);
  Obs.Metrics.add t.Med.stats.Med.temps_built (List.length !temps);
  {
    temps = !temps;
    polled_versions = !polled_versions;
    polled_times = !polled_times;
  }

let build (t : Med.t) ~kind closed =
  Obs.Trace.with_span t.Med.trace "vap" (fun sp ->
      Obs.Trace.set_attr t.Med.trace sp "kind"
        (match kind with `Query -> "query" | `Update _ -> "update");
      let pending =
        match kind with `Query -> Multi_delta.empty | `Update d -> d
      in
      let r = build_inner t ~pending closed in
      Obs.Trace.set_attri t.Med.trace sp "temps" (List.length r.temps);
      r)
