open Relalg
open Vdp
open Sim
open Sources
open Storage

(* the ledger's reflect vector, with a virtual contributor's entry
   taken from the answer's polls ([Current] when unpolled) *)
let reflect_vector (t : Med.t) ~polled =
  List.map
    (fun (src, v) ->
      match Ledger.contributor_kind t.Med.ledger src with
      | Ledger.Virtual_contributor -> (
        match List.assoc_opt src polled with
        | Some v -> (src, Med.Version v)
        | None -> (src, Med.Current))
      | Ledger.Materialized_contributor | Ledger.Hybrid_contributor ->
        (src, Med.Version v))
    (Ledger.reflect_vector t.Med.ledger)

let dedup attrs = List.sort_uniq String.compare attrs

type quality = Fresh | Stale of Med.staleness list

type answer = {
  tuples : Bag.t;
  quality : quality;
  reflect : (string * Med.reflect_entry) list;
  bound : (string * float) list;
  trace_id : int option;
}

type slo_miss = {
  sm_node : string;
  sm_slo : float;
  sm_bound : (string * float) list;
}

exception Slo_unsatisfiable of slo_miss

let () =
  Printexc.register_printer (function
    | Slo_unsatisfiable m ->
      Some
        (Printf.sprintf "Slo_unsatisfiable(%s: slo %g, achievable %s)"
           m.sm_node m.sm_slo
           (String.concat ", "
              (List.map
                 (fun (s, b) -> Printf.sprintf "%s=%g" s b)
                 m.sm_bound)))
    | _ -> None)

let bound_ok bound slo = List.for_all (fun (_, b) -> b <= slo +. 1e-9) bound

let staleness_of (t : Med.t) srcs =
  let now = Engine.now t.Med.engine in
  List.map
    (fun s ->
      let r = Ledger.reflected t.Med.ledger s in
      {
        Med.st_source = s;
        st_version = r.Ledger.r_version;
        st_age = now -. r.Ledger.r_commit_time;
      })
    (List.sort_uniq String.compare srcs)

(* every query transaction starts by repairing known gaps; if the
   source is still unreachable the dirty mark stays and the answer
   will carry staleness markers for it *)
let pre_repair (t : Med.t) =
  try Resync.resync_if_dirty t with Med.Poll_failed _ -> ()

let base_stale (t : Med.t) =
  match Ledger.dirty_sources t.Med.ledger with
  | [] -> []
  | dirty -> staleness_of t dirty

(* [σ_cond table], or [π_attrs σ_cond table] given [attrs], reading
   only rows the condition can pass: with a key-set conjunct on an
   indexed column, one probe per distinct non-Null key and the whole
   condition on the probed rows, each passing row projected as it is
   added; otherwise (or when the keys outnumber the stored rows) a
   scan. One tuple op per probe and per row read. Also says whether it
   scanned: a scanned answer costs the whole table to recompute, so
   the answer cache maintains it instead.

   A projected whole-table read returns a copy, never the table's live
   version: a scan-served answer is cached and then updated in place
   by {!Med.after_batch} while {!Table.apply_delta} updates the
   table, and the two would fork one diff chain into two live
   branches, so that every later access to either walks a path that
   grows with every atom of ΔT. Without [attrs] the rows may be the
   live version, for a caller that drops them within the
   transaction. *)
let read_store ?attrs table cond =
  let probe =
    List.find_map
      (fun (a, vs) ->
        if Table.has_index_on table a then
          Some (a, vs)
        else None)
      (Predicate.key_sets cond)
  in
  match probe with
  | Some (a, keys)
    when List.compare_length_with keys (Table.support_cardinal table) < 0 ->
    let test = Predicate.compile cond in
    let schema = Table.schema table in
    let bu =
      Bag.builder ~size:(List.length keys)
        (match attrs with
        | None -> schema
        | Some attrs -> Schema.project schema attrs)
    in
    let proj = Option.map Tuple.projector attrs in
    let read = ref 0 in
    List.iter
      (fun v ->
        Table.probe table a v (fun tuple m ->
            incr read;
            if test tuple then
              Bag.badd bu
                (match proj with None -> tuple | Some p -> p tuple)
                m))
      keys;
    Eval.charge_tuple_ops !read;
    (Bag.seal bu, false)
  | Some _ | None -> (
    Eval.charge_tuple_ops (Table.support_cardinal table);
    let rows = Bag.select cond (Table.contents table) in
    match attrs with
    | None -> (rows, true)
    | Some attrs ->
      let answer = Bag.project attrs rows in
      ( (if Bag.shares answer (Table.contents table) then Bag.copy answer
         else answer),
        true ))

(* Example 2.3 generalized: every virtual attribute comes from a child
   whose key [node] materializes, which then determines it (the FD
   argument holds per child). Children in the order their attributes
   are first needed. *)
let key_based_plan (t : Med.t) ~node ~needed =
  if not t.Med.config.Med.Config.key_based_enabled then None
  else
    let mat = Med.mat_attrs t node in
    let virtual_needed = List.filter (fun a -> not (List.mem a mat)) needed in
    if virtual_needed = [] then None
    else
      let keyed = (Med.node_plan t node).Med.np_keyed in
      let rec pick chosen = function
        | [] -> Some (List.rev chosen)
        | a :: rest -> (
          match List.find_opt (fun (_, cs, _) -> Schema.mem cs a) keyed with
          | None -> None
          | Some (child, _, key) ->
            pick
              (if List.mem_assoc child chosen then chosen
               else (child, key) :: chosen)
              rest)
      in
      pick [] virtual_needed

(* The semijoin restriction of a keyed child: per key column, the
   values [own] holds. A Null key joins a Null child key but passes no
   [=], so it leaves its column unrestricted. *)
let semijoin_keys own key =
  List.filter_map
    (fun k ->
      let get = Tuple.keyer1 k in
      let seen = Value.Tbl.create 64 in
      let has_null = ref false in
      let vs = ref [] in
      Bag.iter
        (fun tuple _ ->
          match get tuple with
          | Value.Null -> has_null := true
          | v ->
            if not (Value.Tbl.mem seen v) then begin
              Value.Tbl.replace seen v ();
              vs := v :: !vs
            end)
        own;
      if !has_null then None else Some (k, List.rev !vs))
    key

(* A key set the restricted condition already holds (a point query on
   the key holds its own) is not conjoined twice. *)
let semijoin_cond cond ~attrs keys =
  let held = Predicate.restrict_to cond attrs in
  let held_sets =
    List.map (fun (a, vs) -> Predicate.one_of a vs) (Predicate.key_sets held)
  in
  let semijoin =
    List.filter
      (fun p -> not (List.exists (Predicate.equal p) held_sets))
      (List.map (fun (k, vs) -> Predicate.one_of k vs) keys)
  in
  Predicate.conj (List.filter (fun p -> p <> Predicate.True) (held :: semijoin))

(* Children the general construction polls: those it reads at
   attributes the store does not cover. *)
let general_polls (t : Med.t) ~node ~needed ~cond =
  List.length
    (List.filter
       (fun (child, b, _) -> not (Med.is_covered t ~node:child ~attrs:b))
       (Derived_from.reads (Med.node_plan t node).Med.np_rule ~attrs:needed
          ~cond))

(* Example 2.3 as a semijoin: the materialized part first, then from
   each keyed child only the rows under the keys that part holds — a
   probe of a stored child, a keyed poll of a virtual one, all in one
   VAP run. Returns the answer, [π_attrs σ_cond] of the joined rows,
   and the VAP result, or [None] when the general construction is
   cheaper: the materialized part is the whole stored node, so its
   keys restrict nothing the join would not, and the plan polls no
   fewer children. *)
let key_based (t : Med.t) ~node ~needed ~attrs ~cond children =
  let mat = Med.mat_attrs t node in
  let table =
    match Med.node_table t node with
    | Some table -> table
    | None -> Med.err "key-based plan on unmaterialized node %S" node
  in
  let virtual_needed = List.filter (fun a -> not (List.mem a mat)) needed in
  let reads =
    List.map
      (fun (child, key) ->
        let cs = (Graph.node t.Med.vdp child).Graph.schema in
        let c_needed =
          dedup
            (key
            @ List.filter (Schema.mem cs) (virtual_needed @ Predicate.attrs cond))
        in
        ( child,
          key,
          cs,
          c_needed,
          Med.is_covered t ~node:child ~attrs:c_needed ))
      children
  in
  let polls =
    List.length (List.filter (fun (_, _, _, _, covered) -> not covered) reads)
  in
  let own_cond = Predicate.restrict_to cond mat in
  (* the materialized part restricts the children only when a
     condition on materialized attributes leaves some rows out; an
     unconditioned one is the whole node, not worth reading unless the
     plan polls fewer children anyway *)
  let own_rows, restricted =
    if own_cond = Predicate.True then (None, false)
    else
      let rows = fst (read_store table own_cond) in
      (Some rows, Bag.support_cardinal rows < Table.support_cardinal table)
  in
  if
    not
      (restricted || polls = 0 || polls < general_polls t ~node ~needed ~cond)
  then None
  else
    let own_rows =
      match own_rows with
      | Some rows -> rows
      | None -> fst (read_store table own_cond)
    in
    let own =
      Bag.project
        (dedup
           (List.concat_map snd children
           @ List.filter (fun a -> List.mem a mat) needed))
        own_rows
    in
    let parts =
      List.map
        (fun (child, key, cs, c_needed, covered) ->
          let keys = if restricted then semijoin_keys own key else [] in
          let c_cond = semijoin_cond cond ~attrs:(Schema.attrs cs) keys in
          if List.exists (fun (_, vs) -> vs = []) keys then
            `Rows (Bag.empty (Schema.project cs c_needed))
          else if covered then
            `Rows
              (Bag.project c_needed
                 (fst
                    (read_store (Option.get (Med.node_table t child)) c_cond)))
          else `Poll { Vap.r_node = child; r_attrs = c_needed; r_cond = c_cond })
        reads
    in
    let requests =
      List.filter_map (function `Poll r -> Some r | `Rows _ -> None) parts
    in
    let res =
      if requests = [] then
        { Vap.temps = []; polled_versions = []; polled_times = [] }
      else Vap.build t ~kind:`Query (Vap.closure t requests)
    in
    let rows = function
      | `Rows b -> b
      | `Poll r -> List.assoc r.Vap.r_node res.Vap.temps
    in
    (* π_attrs σ_cond (own ⋈ part_1 ⋈ … ⋈ part_n) in one streamed pass:
       each join probes a key table over its part with the rows the
       join before it emits, and the last one's rows are filtered and
       projected into the answer's builder, so no joined or filtered
       bag is built *)
    let rec pipe schema scan = function
      | [] ->
        let bu = Bag.builder (Schema.project schema attrs) in
        let test = Predicate.compile cond and proj = Tuple.projector attrs in
        scan (fun tuple m -> if test tuple then Bag.badd bu (proj tuple) m);
        Bag.seal bu
      | part :: rest ->
        let b = rows part in
        pipe (Schema.join schema (Bag.schema b))
          (fun emit -> Bag.join_into schema scan b emit)
          rest
    in
    Some (pipe (Bag.schema own) (fun emit -> Bag.iter emit own) parts, res)

(* SLO escalation: any announcing contributor whose reflected send
   time already lags beyond the requested bound gets an {e empty}
   poll — the source flushes pending announcements before answering
   and the channel is FIFO, so by the time the answer is back every
   outstanding delta is enqueued — after which the update queue is
   drained in place (the mediator mutex is held, so this calls the
   unlocked transaction body). Virtual contributors need no escalation:
   the ladder below polls them anyway.

   Returns [(escalated, witnesses)]: for every polled source whose
   version the drained queue actually caught up to, the poll's
   [state_time] is a fresh freshness witness (at that instant the
   source had nothing newer than what we now reflect). A source the
   drain could NOT catch up to (lost announcements, resync deferred)
   gets no witness — its bound must stay honest about the old
   reflected state. *)
let slo_prepoll (t : Med.t) ~slo =
  let now = Engine.now t.Med.engine in
  let laggards =
    List.filter
      (fun s ->
        match Ledger.contributor_kind t.Med.ledger s with
        | Ledger.Virtual_contributor -> false
        | Ledger.Materialized_contributor | Ledger.Hybrid_contributor ->
          now -. (Ledger.reflected t.Med.ledger s).Ledger.r_send_time > slo)
      (Graph.sources t.Med.vdp)
  in
  if laggards = [] then (false, [])
  else begin
    let polled =
      Obs.Trace.slo_poll t.Med.trace ~sources:(String.concat "," laggards)
        (fun () ->
          let polled =
            List.filter_map
              (fun src_name ->
                match Med.poll_with_retry t (Med.source t src_name) [] with
                | a ->
                  Obs.Metrics.incr t.Med.stats.Med.slo_polls;
                  (* the flush's announcements were lost in transit —
                     the heartbeat idiom: a gap marks for resync *)
                  ignore
                    (Med.observe_poll t ~via:"slo_poll" src_name
                       a.Message.answer_version
                      : Ledger.outcome);
                  Some
                    (src_name, a.Message.state_time, a.Message.answer_version)
                | exception (Med.Poll_failed _ | Med.Desync _) ->
                  (* unreachable source: let the ladder degrade and the
                     final bound check refuse *)
                  None)
              laggards
          in
          ignore (Iup.drain t : bool);
          polled)
    in
    let witnesses =
      List.filter_map
        (fun (src, w, v) ->
          if (Ledger.reflected t.Med.ledger src).Ledger.r_version >= v then
            Some (src, w)
          else None)
        polled
    in
    (true, witnesses)
  end

(* Cache a [Fresh] answer when the config enables the cache. A store
   answer read by a scan of the node's table ([scanned]) is maintained
   with π_attrs σ_cond over the table's deltas, compiled here once,
   instead of invalidated. *)
let cache_store (t : Med.t) ~node ~attrs ~cond ~polled ~polled_times ~trace_id
    ~scanned answer =
  if t.Med.config.Med.Config.answer_cache_enabled then
    Ledger.cache_store t.Med.ledger ~node ~attrs ~cond ~polled ~polled_times
      ~trace_id
      ~scan:
        (match Med.node_table t node with
        | Some table when scanned ->
          Some
            (Delta.Delta_plan.unary (Table.schema table)
               (Expr.project attrs (Expr.select cond (Expr.base node))))
        | Some _ | None -> None)
      answer

let validate_request (t : Med.t) node attrs cond =
  let n = Graph.node t.Med.vdp node in
  if not n.Graph.export then Med.err "%S is not an export relation" node;
  let schema = n.Graph.schema in
  let attrs = match attrs with Some a -> a | None -> Schema.attrs schema in
  List.iter
    (fun a ->
      if not (Schema.mem schema a) then
        Med.err "export %S has no attribute %S" node a)
    (attrs @ Predicate.attrs cond);
  attrs

let query (t : Med.t) ~node ?attrs ?(cond = Predicate.True) ?max_staleness ()
    =
  let attrs = validate_request t node attrs cond in
  Engine.Mutex.with_lock t.Med.engine t.Med.mutex (fun () ->
      pre_repair t;
      (* the transaction clock starts before SLO escalation: a forced
         flush-and-drain is part of serving this query, and its
         round-trips must show up in query_tx_time *)
      let tx_start = Engine.now t.Med.engine in
      (* freshness SLO, step 1: announcing contributors whose reflected
         state already lags beyond the bound are force-flushed and the
         queue drained before any strategy is considered *)
      let escalated, prepoll_times =
        match max_staleness with
        | None -> (false, [])
        | Some slo -> slo_prepoll t ~slo
      in
      (* strategy-supplied witnesses win over prepoll witnesses: the
         bound takes the first entry per source, and a strategy's own
         poll is always at least as recent *)
      let with_prepoll polled_times = polled_times @ prepoll_times in
      let slo_met bound =
        match max_staleness with
        | None -> true
        | Some slo -> bound_ok bound slo
      in
      let ops_before = Eval.tuple_ops () in
      let needed = dedup (attrs @ Predicate.attrs cond) in
      (* the one record of a served query, cache hit or computed:
         count it, charge its ops (which advances the simulated clock
         before the histogram reads it), time it, and emit it with its
         reflect vector and bound *)
      let record ~stale ~bound ~polled ~trace_id answer =
        Obs.Metrics.incr t.Med.stats.Med.query_txs;
        if stale <> [] then Obs.Metrics.incr t.Med.stats.Med.degraded_answers;
        Med.charge_ops t `Query (Eval.tuple_ops () - ops_before);
        Obs.Metrics.observe t.Med.stats.Med.query_tx_time
          (Engine.now t.Med.engine -. tx_start);
        let reflect = reflect_vector t ~polled in
        Med.emit t
          (Med.Query_tx
             {
               qt_time = Engine.now t.Med.engine;
               qt_node = node;
               qt_attrs = attrs;
               qt_cond = cond;
               qt_answer = answer;
               qt_reflect = reflect;
               qt_stale = stale;
               qt_bound = bound;
             });
        {
          tuples = answer;
          quality = (if stale = [] then Fresh else Stale stale);
          reflect;
          bound;
          trace_id;
        }
      in
      (* answer cache: a surviving entry is what recomputing would
         give — a maintained store answer took every delta its table
         did, and any other entry saw no delta, table change or newer
         source version on a node it can see — serve it as Fresh. The
         reflect vector is recomputed at serve time from the entry's
         recorded polled versions: entries for sources the answer does
         not depend on stay monotone with the mediator's current state,
         and the bound from the entry's recorded poll times and the
         current reflected send times, exactly as for a computed answer
         (a hit charges no ops, so the clock has not moved since).
         A hit records no span of its own — the whole path is two hash
         lookups, and trace allocation must not dominate it (e16); the
         answer instead carries the id of the query_tx span that
         originally computed it, and the hit shows up in the
         cache_hits counter and the query_tx_time histogram. An entry
         that cannot meet the SLO is bypassed, not evicted: the
         computed answer below will overwrite it. *)
      let hit =
        Med.cache_serve t ~node ~attrs ~cond
          (fun ~answer ~polled ~polled_times ~trace_id ->
            let bound =
              Med.answer_bound t ~polled_times:(with_prepoll polled_times) ()
            in
            if slo_met bound then Some (answer, polled, trace_id, bound)
            else None)
      in
      match hit with
      | Some (answer, polled, trace_id, bound) ->
        record ~stale:[] ~bound ~polled ~trace_id answer
      | None ->
      Obs.Trace.query_tx t.Med.trace ~node (fun trace_id ->
      let finish ?(stale = []) ?(polled_times = []) ?(scanned = false) ~served answer
          polled =
        let polled_times = with_prepoll polled_times in
        let bound = Med.answer_bound t ~polled_times ~stale () in
        (* freshness SLO, step 2: the chosen strategy's answer must
           actually meet the bound — if even a forced poll could not
           (source down, or the round-trip itself exceeds the SLO),
           refuse with a typed error rather than serve a lie *)
        (match max_staleness with
        | Some slo when not (bound_ok bound slo) ->
          Obs.Metrics.incr t.Med.stats.Med.slo_refusals;
          Obs.Trace.served t.Med.trace "refused";
          raise
            (Slo_unsatisfiable
               { sm_node = node; sm_slo = slo; sm_bound = bound })
        | Some _ | None -> ());
        Obs.Trace.served t.Med.trace (if escalated then "slo_poll" else served);
        let a = record ~stale ~bound ~polled ~trace_id answer in
        (* only answers the checker may hold to full validity are
           worth replaying; degraded answers must be recomputed *)
        if stale = [] then
          cache_store t ~node ~attrs ~cond ~polled ~polled_times ~trace_id
            ~scanned answer;
        a
      in
      (* fresh data unreachable: serve what the store has — the
         materialized subset of the requested attributes, under the
         conditions those attributes can express — marked stale *)
      let degrade ~exn srcs =
        match Med.node_table t node with
        | Some table ->
          let mat = Med.mat_attrs t node in
          let avail = List.filter (fun a -> List.mem a mat) attrs in
          if avail = [] then raise exn;
          Obs.Trace.query_error t.Med.trace (Printexc.to_string exn);
          finish ~stale:(staleness_of t srcs) ~served:"degraded"
            (fst
               (read_store ~attrs:avail table
                  (Predicate.restrict_to cond mat)))
            []
        | None -> raise exn
      in
      let with_degrade f =
        try f ()
        with
        | Med.Poll_failed pe as exn ->
          degrade ~exn (pe.pe_source :: Ledger.dirty_sources t.Med.ledger)
        | Med.Desync _ as exn -> degrade ~exn (Ledger.dirty_sources t.Med.ledger)
      in
      if Med.is_covered t ~node ~attrs:needed then begin
        let table = Option.get (Med.node_table t node) in
        Obs.Metrics.incr t.Med.stats.Med.queries_from_store;
        let answer, scanned = read_store ~attrs table cond in
        finish ~stale:(base_stale t) ~scanned ~served:"store" answer []
      end
      else
        with_degrade @@ fun () -> begin
        let general () =
          let res =
            Vap.build t ~kind:`Query
              (Vap.closure t
                 [ { Vap.r_node = node; r_attrs = needed; r_cond = cond } ])
          in
          (* the temporary is already π_needed σ_cond node: the closure
             never widens a lone request's own condition *)
          let temp = List.assoc node res.Vap.temps in
          finish ~stale:(base_stale t) ~polled_times:res.Vap.polled_times
            ~served:"vap" (Bag.project attrs temp)
            res.Vap.polled_versions
        in
        match
          Option.bind (key_based_plan t ~node ~needed)
            (key_based t ~node ~needed ~attrs ~cond)
        with
        | Some (answer, res) ->
          Obs.Metrics.incr t.Med.stats.Med.key_based_constructions;
          finish ~stale:(base_stale t) ~polled_times:res.Vap.polled_times
            ~served:"key_based" answer res.Vap.polled_versions
        | None -> general ()
      end))
