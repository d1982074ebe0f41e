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

(* a request's attrs always cover its condition's attributes *)
let normalize r =
  let extra =
    List.filter (fun a -> not (List.mem a r.r_attrs)) (Predicate.attrs r.r_cond)
  in
  { r with r_attrs = r.r_attrs @ extra }

(* The key a leaf-parent poll names: a key-set conjunct of the
   request's condition, its attribute mapped through the definition's
   renames to a column of the leaf relation. Only the request's own
   condition is looked at, never a selection inside the definition
   (such as a constant filter the whole relation passes in halves). *)
let poll_key (t : Med.t) r ~leaf =
  List.find_map
    (fun (a, vs) ->
      match Med.leaf_origins t.Med.vdp r.r_node a with
      | [ (base, col) ] when String.equal base leaf ->
        Some
          { Source_db.k_relation = leaf; k_column = col; k_values = vs }
      | _ -> None)
    (Predicate.key_sets r.r_cond)

let merge_into table r =
  let r = normalize r in
  match Hashtbl.find_opt table r.r_node with
  | None -> Hashtbl.replace table r.r_node (r.r_attrs, r.r_cond)
  | Some (attrs, cond) ->
    let attrs =
      attrs @ List.filter (fun a -> not (List.mem a attrs)) r.r_attrs
    in
    (* [or_] is idempotent: merging the same condition twice must not
       grow the predicate, or the closure fixpoint never settles *)
    Hashtbl.replace table r.r_node (attrs, Predicate.or_ cond r.r_cond)

let closure (t : Med.t) requests =
  let table : (string, string list * Predicate.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun r ->
      if Graph.is_leaf t.Med.vdp r.r_node then
        Med.err "VAP request for leaf %S" r.r_node;
      merge_into table r)
    requests;
  (* parents before children, iterated to fixpoint: a request on any
     node makes its temporary shadow the store table during inner
     evaluation, so the temp must also carry every attribute some
     OTHER parent of that node needs — even a parent the store alone
     would have covered, and even one discovered on a later pass
     (multi-node requests over diamond-shaped VDPs hit both) *)
  let order = List.rev (Graph.topo_order t.Med.vdp) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun node ->
        match Hashtbl.find_opt table node with
        | None -> ()
        | Some (attrs, cond) ->
          List.iter
            (fun (child, b, g) ->
              if not (Graph.is_leaf t.Med.vdp child) then
                if
                  (not (Med.is_covered t ~node:child ~attrs:b))
                  || Hashtbl.mem table child
                then begin
                  let before = Hashtbl.find_opt table child in
                  merge_into table { r_node = child; r_attrs = b; r_cond = g };
                  if Hashtbl.find_opt table child <> before then changed := true
                end)
            (Derived_from.derived_from t.Med.vdp ~node ~attrs ~cond))
      order
  done;
  List.filter_map
    (fun node ->
      match Hashtbl.find_opt table node with
      | Some (attrs, cond) ->
        Some { r_node = node; r_attrs = attrs; r_cond = cond }
      | None -> None)
    order

let build_inner (t : Med.t) ~pending requests =
  let reqs =
    Obs.Trace.with_span t.Med.trace "closure" (fun sp ->
        let reqs = closure t requests in
        Obs.Trace.set_attri t.Med.trace sp "requests" (List.length requests);
        Obs.Trace.set_attri t.Med.trace sp "closed" (List.length reqs);
        reqs)
  in
  let lp_reqs, inner_reqs =
    List.partition_map
      (fun r ->
        match (Med.node_plan t r.r_node).Med.np_leaf with
        | Some lp -> Either.Left (r, lp)
        | None -> Either.Right r)
      reqs
  in
  let temps : (string, Bag.t) Hashtbl.t = Hashtbl.create 8 in
  let polled_versions = ref [] in
  let polled_times = ref [] in
  (* group leaf-parent requests by source; one poll per source *)
  let by_source = Hashtbl.create 4 in
  List.iter
    (fun ((_, lp) as req) ->
      let src = Graph.source_of_leaf t.Med.vdp lp.Med.lp_leaf in
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_source src)
      in
      Hashtbl.replace by_source src (req :: existing))
    lp_reqs;
  Hashtbl.iter
    (fun src_name pairs ->
      let src = Med.source t src_name in
      let queries =
        List.map
          (fun (r, _leaf) ->
            let def = Graph.def t.Med.vdp r.r_node in
            let with_sel =
              if Predicate.equal r.r_cond Predicate.True then def
              else Expr.select r.r_cond def
            in
            (r.r_node, Expr.project r.r_attrs with_sel))
          pairs
      in
      let keys =
        List.filter_map
          (fun (r, lp) ->
            Option.map (fun k -> (r.r_node, k)) (poll_key t r ~leaf:lp.Med.lp_leaf))
          pairs
      in
      let answer = Med.poll_with_retry t src ~keys queries in
      Obs.Metrics.incr t.Med.stats.Med.polls;
      Obs.Metrics.add t.Med.stats.Med.polled_tuples
        (List.fold_left
           (fun acc (_, b) -> acc + Bag.cardinal b)
           0 answer.Message.results);
      (* any polled answer is an observation of the source's current
         version; an advance past the high-water mark invalidates
         cached answers in the source's closure *)
      let seen =
        Med.observe_source_version t src_name answer.Message.answer_version
      in
      let contributor = Med.contributor_kind t src_name in
      (match contributor with
      | Med.Virtual_contributor ->
        (* [state_time] is the instant the answered version was current
           at the source — the freshness witness {!Med.answer_bound}
           reports against. Announcing contributors are deliberately
           not recorded here: ECA compensates their temporaries back to
           the reflected state, whose witness is [r_send_time]. *)
        polled_versions :=
          (src_name, answer.Message.answer_version) :: !polled_versions;
        polled_times :=
          (src_name, answer.Message.state_time) :: !polled_times
      | Med.Materialized_contributor | Med.Hybrid_contributor ->
        (* ECA precondition check: the poll flushed all pending
           announcements ahead of the answer, so on a reliable FIFO
           channel the seen version equals the answer's. Any mismatch
           means an announcement was dropped (answer ahead) or the
           answer overtook one (reordering) — either way the unseen
           delta no longer describes what the answer contains, so
           compensation would corrupt the view. *)
        if answer.Message.answer_version <> seen then begin
          (* the repair this triggers must be attributable in the
             trace: every resync needs a preceding gap_detected *)
          Med.gap_event t ~source:src_name ~via:"desync"
            [ ("answer_version", answer.Message.answer_version); ("seen", seen) ];
          raise
            (Med.Desync
               (Printf.sprintf
                  "answer from %s reflects v%d but v%d announced" src_name
                  answer.Message.answer_version seen))
        end);
      List.iter
        (fun (r, lp) ->
          let polled = List.assoc r.r_node answer.Message.results in
          let value =
            if
              contributor <> Med.Virtual_contributor
              && t.Med.config.Med.Config.eca_enabled
            then
              Obs.Trace.with_span t.Med.trace "eca" (fun sp ->
                  Obs.Trace.set_attr t.Med.trace sp "source" src_name;
                  Obs.Trace.set_attr t.Med.trace sp "node" r.r_node;
                  (* Eager Compensation: roll the polled answer back to
                     the reflected state *)
                  let unseen =
                    Med.unseen_delta t ~pending ~source:src_name
                      ~leaf:lp.Med.lp_leaf
                  in
                  Obs.Trace.set_attri t.Med.trace sp "unseen_atoms"
                    (Rel_delta.atom_count unseen);
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
          Hashtbl.replace temps r.r_node value)
        pairs)
    by_source;
  (* inner temporaries bottom-up *)
  let inner_in_topo =
    List.filter
      (fun node -> List.exists (fun r -> String.equal r.r_node node) inner_reqs)
      (Graph.topo_order t.Med.vdp)
  in
  List.iter
    (fun node ->
      let r = List.find (fun r -> String.equal r.r_node node) inner_reqs in
      Obs.Trace.with_span t.Med.trace "temp" (fun sp ->
          Obs.Trace.set_attr t.Med.trace sp "node" node;
          let env name =
            match Hashtbl.find_opt temps name with
            | Some b -> Some b
            | None -> Med.store_env t name
          in
          let def =
            Derived_from.restrict_def t.Med.vdp ~node ~attrs:r.r_attrs
              ~cond:r.r_cond
          in
          let with_sel =
            if Predicate.equal r.r_cond Predicate.True then def
            else Expr.select r.r_cond def
          in
          let value = Med.eval t ~env (Expr.project r.r_attrs with_sel) in
          Obs.Trace.set_attri t.Med.trace sp "tuples" (Bag.cardinal value);
          Hashtbl.replace temps node value))
    inner_in_topo;
  Obs.Metrics.add t.Med.stats.Med.temps_built (Hashtbl.length temps);
  {
    temps = Hashtbl.fold (fun k v acc -> (k, v) :: acc) temps [];
    polled_versions = !polled_versions;
    polled_times = !polled_times;
  }

let build (t : Med.t) ~kind requests =
  Obs.Trace.with_span t.Med.trace "vap" (fun sp ->
      Obs.Trace.set_attr t.Med.trace sp "kind"
        (match kind with `Query -> "query" | `Update _ -> "update");
      let pending =
        match kind with `Query -> Multi_delta.empty | `Update d -> d
      in
      let r = build_inner t ~pending requests in
      Obs.Trace.set_attri t.Med.trace sp "temps" (List.length r.temps);
      r)
