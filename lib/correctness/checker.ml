open Relalg
open Vdp
open Sources
open Squirrel

type violation = {
  v_time : float;
  v_kind :
    [ `Validity
    | `Chronology
    | `Order
    | `Freshness of string * float
    | `Bound of string * float ];
  v_detail : string;
}

type report = {
  checked_queries : int;
  degraded_queries : int;
  update_batches : int;
  batched_txs : int;
  violations : violation list;
  max_staleness : (string * float) list;
}

let consistent r =
  List.for_all
    (fun v ->
      match v.v_kind with `Freshness _ | `Bound _ -> true | _ -> false)
    r.violations

let bound_violations r =
  List.filter (fun v -> match v.v_kind with `Bound _ -> true | _ -> false)
    r.violations

(* --- history access --------------------------------------------------- *)

let source_table sources =
  let tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace tbl (Source_db.name s) s) sources;
  tbl

let version_at src time =
  List.fold_left
    (fun acc (t, v, _) -> if t <= time && v > acc then v else acc)
    0
    (Source_db.history src)

(* environment mapping leaf relations to their state under a version
   assignment *)
let env_of_assignment ~vdp ~src_tbl assignment leaf =
  match Graph.node_opt vdp leaf with
  | Some { Graph.kind = Graph.Leaf { source }; _ } -> (
    match Hashtbl.find_opt src_tbl source with
    | None -> None
    | Some src ->
      let version =
        match List.assoc_opt source assignment with
        | Some v -> v
        | None -> Source_db.version src
      in
      List.assoc_opt leaf (Source_db.state_at_version src version))
  | Some _ | None -> None

let staleness src version time =
  match Source_db.next_commit_time_after src version with
  | Some next when next <= time -> time -. next
  | Some _ | None -> 0.0

(* --- the self-report validating checker ------------------------------- *)

let check ~vdp ~sources ~events () =
  let src_tbl = source_table sources in
  let violations = ref [] in
  let max_stale : (string, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace max_stale (Source_db.name s) 0.0) sources;
  let violate time kind detail =
    violations := { v_time = time; v_kind = kind; v_detail = detail } :: !violations
  in
  let checked = ref 0 in
  let degraded = ref 0 in
  let batches = ref 0 in
  let batched = ref 0 in
  (* Per-source running max: a source omitted from one event's vector
     must keep its high-water mark, or a later backwards move slips
     through (replacing the whole vector, as a previous version did,
     forgot marks on every omission). *)
  let high_water : (string, int) Hashtbl.t = Hashtbl.create 8 in
  (* versions actually applied by update transactions (batch intervals
     and snapshot reflect vectors) — queries never raise this chain *)
  let applied_water : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let check_monotone time vector =
    List.iter
      (fun (src, v) ->
        (match Hashtbl.find_opt high_water src with
        | Some prev when v < prev ->
          violate time `Order
            (Printf.sprintf
               "reflect(%s) moved backwards: version %d after %d" src v prev)
        | Some _ | None -> ());
        match Hashtbl.find_opt high_water src with
        | Some prev when prev >= v -> ()
        | Some _ | None -> Hashtbl.replace high_water src v)
      vector
  in
  List.iter
    (fun event ->
      match event with
      | Med.Update_tx { ut_time; ut_reflect; ut_txs; ut_intervals; _ } ->
        (* a batch is its constituent transactions applied atomically:
           each advertised interval (from, to] must be non-empty and
           start at or above the versions this mediator already
           APPLIED — a [from] below the applied chain means some
           constituent version entered the store twice. The chain is
           kept separately from [high_water], which queries also raise
           through [Current] resolution without any application. *)
        if ut_txs > 0 then begin
          incr batches;
          batched := !batched + ut_txs
        end;
        List.iter
          (fun (src, (v_from, v_to)) ->
            if v_to <= v_from then
              violate ut_time `Order
                (Printf.sprintf
                   "batch advanced %s by an empty interval (%d, %d]" src
                   v_from v_to);
            match Hashtbl.find_opt applied_water src with
            | Some hw when v_from < hw ->
              violate ut_time `Order
                (Printf.sprintf
                   "batch interval (%d, %d] of %s overlaps versions \
                    already applied (high-water %d)"
                   v_from v_to src hw)
            | Some _ | None -> ())
          ut_intervals;
        (* the reflect vector itself must be monotone over the APPLIED
           chain (snapshot rebuilds advance it without intervals), and it raises the high-water marks later queries
           are judged against.  It is NOT judged against query-raised
           marks: a query's virtual poll legitimately observes source
           versions whose announcements are still queued behind a
           small [max_batch], so the store's reflect vector lags what
           queries saw without any misordering of applied updates. *)
        List.iter
          (fun (src, v) ->
            (match Hashtbl.find_opt applied_water src with
            | Some hw when v < hw ->
              violate ut_time `Order
                (Printf.sprintf
                   "reflect(%s) moved backwards: version %d after %d" src v
                   hw)
            | Some _ | None -> ());
            (match Hashtbl.find_opt applied_water src with
            | Some hw when hw >= v -> ()
            | Some _ | None -> Hashtbl.replace applied_water src v);
            match Hashtbl.find_opt high_water src with
            | Some hw when hw >= v -> ()
            | Some _ | None -> Hashtbl.replace high_water src v)
          ut_reflect
      | Med.Query_tx
          {
            qt_time;
            qt_node;
            qt_attrs;
            qt_cond;
            qt_answer;
            qt_reflect;
            qt_stale;
            qt_bound;
          }
        ->
        incr checked;
        let time = qt_time in
        (* resolve Current entries to the version current at query time *)
        let resolved =
          List.map
            (fun (src_name, entry) ->
              let src = Hashtbl.find src_tbl src_name in
              match entry with
              | Med.Version v -> (src_name, v)
              | Med.Current -> (src_name, version_at src time))
            qt_reflect
        in
        (* chronology *)
        List.iter
          (fun (src_name, v) ->
            let src = Hashtbl.find src_tbl src_name in
            let ct = Source_db.commit_time_of_version src v in
            if ct > time +. 1e-9 then
              violate time `Chronology
                (Printf.sprintf
                   "%s version %d committed at %g, after query time %g"
                   src_name v ct time))
          resolved;
        (* order preservation *)
        check_monotone time resolved;
        (* validity — not enforced for degraded answers: a stale-marked
           answer deliberately serves a restricted projection of old
           data, so it need not equal ν(reflect); chronology and order
           above still apply to it *)
        if qt_stale <> [] then incr degraded
        else begin
          let env = env_of_assignment ~vdp ~src_tbl resolved in
          let expected =
            Bag.project qt_attrs
              (Bag.select qt_cond
                 (Eval.eval ~env (Graph.expanded_def vdp qt_node)))
          in
          if not (Bag.equal expected qt_answer) then
            violate time `Validity
              (Format.asprintf
                 "query on %s at %g: answer differs from ν(reflect)@;\
                  expected %a@;got %a"
                 qt_node time Bag.pp expected Bag.pp qt_answer)
        end;
        (* staleness bookkeeping + online-bound validation: when the
           answer carried a per-source bound (Theorem 7.2 brought
           online), the independently measured staleness must never
           exceed it — a smaller self-reported bound is a lie about
           freshness *)
        List.iter
          (fun (src_name, v) ->
            let src = Hashtbl.find src_tbl src_name in
            let s = staleness src v time in
            if s > Hashtbl.find max_stale src_name then
              Hashtbl.replace max_stale src_name s;
            match List.assoc_opt src_name qt_bound with
            | Some b when s > b +. 1e-9 ->
              violate time (`Bound (src_name, s))
                (Printf.sprintf
                   "query at %g: observed staleness %g of %s exceeds the \
                    answer's reported bound %g"
                   time s src_name b)
            | Some _ | None -> ())
          resolved)
    events;
  {
    checked_queries = !checked;
    degraded_queries = !degraded;
    update_batches = !batches;
    batched_txs = !batched;
    violations = List.rev !violations;
    max_staleness =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) max_stale []);
  }

let check_freshness report ~bound =
  List.filter_map
    (fun (src, s) ->
      let b = bound src in
      if s > b +. 1e-9 then
        Some
          {
            v_time = 0.0;
            v_kind = `Freshness (src, s);
            v_detail =
              Printf.sprintf
                "source %s: observed staleness %g exceeds bound %g" src s b;
          }
      else None)
    report.max_staleness

(* --- search-based checkers (Remark 3.1) ------------------------------- *)

type observation = { o_time : float; o_export : string; o_state : Bag.t }

let rec cartesian = function
  | [] -> [ [] ]
  | (src, versions) :: rest ->
    let tails = cartesian rest in
    List.concat_map
      (fun v -> List.map (fun tail -> (src, v) :: tail) tails)
      versions

let valid_vectors ~vdp ~src_tbl ~chronology obs =
  let expanded = Graph.expanded_def vdp obs.o_export in
  let candidates =
    Hashtbl.fold
      (fun name src acc ->
        let versions =
          List.filter_map
            (fun (t, v, _) ->
              if (not chronology) || t <= obs.o_time +. 1e-9 then Some v
              else None)
            (Source_db.history src)
        in
        (name, versions) :: acc)
      src_tbl []
  in
  List.filter
    (fun assignment ->
      let env = env_of_assignment ~vdp ~src_tbl assignment in
      Bag.equal (Eval.eval ~env expanded) obs.o_state)
    (cartesian candidates)

let vector_le a b =
  List.for_all
    (fun (src, v) ->
      match List.assoc_opt src b with Some v' -> v <= v' | None -> true)
    a

let pseudo_consistent ~vdp ~sources observations =
  let src_tbl = source_table sources in
  let obs = List.sort (fun a b -> Float.compare a.o_time b.o_time) observations in
  let vectors =
    List.map (fun o -> valid_vectors ~vdp ~src_tbl ~chronology:false o) obs
  in
  (* every pair t1 <= t2 must admit vectors v1 <= v2 *)
  let rec pairs = function
    | [] -> true
    | v1 :: rest ->
      List.for_all
        (fun v2 ->
          List.exists
            (fun a -> List.exists (fun b -> vector_le a b) v2)
            v1)
        rest
      && pairs rest
  in
  List.for_all (fun v -> v <> []) vectors && pairs vectors

let consistent_assignment ~vdp ~sources observations =
  let src_tbl = source_table sources in
  let obs = List.sort (fun a b -> Float.compare a.o_time b.o_time) observations in
  let vectors =
    List.map (fun o -> (o, valid_vectors ~vdp ~src_tbl ~chronology:true o)) obs
  in
  let rec search prev = function
    | [] -> Some []
    | (o, candidates) :: rest ->
      List.find_map
        (fun v ->
          if vector_le prev v then
            match search v rest with
            | Some tail -> Some ((o.o_time, v) :: tail)
            | None -> None
          else None)
        candidates
  in
  search [] vectors
