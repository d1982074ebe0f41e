open Relalg
open Vdp
open Sim
open Sources

type stats = {
  mutable sq_queries : int;
  mutable sq_polls : int;
  mutable sq_tuples_fetched : int;
  mutable sq_ops : int;
}

type t = {
  engine : Engine.t;
  vdp : Graph.t;
  source_tbl : (string, Source_db.t) Hashtbl.t;
  stats : stats;
  mutable connected : bool;
}

let create ~engine ~vdp ~sources () =
  let source_tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace source_tbl (Source_db.name s) s) sources;
  {
    engine;
    vdp;
    source_tbl;
    stats = { sq_queries = 0; sq_polls = 0; sq_tuples_fetched = 0; sq_ops = 0 };
    connected = false;
  }

let connect t ?(delays = fun _ -> (0.05, 0.01)) () =
  let handler (msg : Message.t) =
    match msg with
    | Message.Update _ -> () (* a pure-virtual mediator ignores updates *)
    | Message.Answer (ivar, a) ->
      (* guard against duplicated answer messages on a faulty channel *)
      if not (Engine.Ivar.is_filled ivar) then Engine.Ivar.fill t.engine ivar a
  in
  Hashtbl.iter
    (fun _ src ->
      let comm_delay, q_proc_delay = delays (Source_db.name src) in
      Source_db.connect src ~comm_delay ~q_proc_delay handler)
    t.source_tbl;
  t.connected <- true

(* replace every maximal select/project chain over a single leaf by a
   fetch from its source *)
let decompose vdp expr =
  let fetches = ref [] in
  let counter = ref 0 in
  let leaf_of e =
    match Expr.base_names e with
    | [ l ] when Graph.is_leaf vdp l && Expr.is_select_project_of l e -> Some l
    | _ -> None
  in
  let rec go e =
    match leaf_of e with
    | Some leaf ->
      incr counter;
      let label = Printf.sprintf "fetch_%d" !counter in
      fetches := (label, leaf, e) :: !fetches;
      Expr.base label
    | None -> (
      match e with
      | Expr.Base _ -> e (* non-leaf base cannot occur in expanded defs *)
      | Expr.Select (p, e) -> Expr.Select (p, go e)
      | Expr.Project (a, e) -> Expr.Project (a, go e)
      | Expr.Rename (m, e) -> Expr.Rename (m, go e)
      | Expr.Join (a, p, b) -> Expr.Join (go a, p, go b)
      | Expr.Union (a, b) -> Expr.Union (go a, go b)
      | Expr.Diff (a, b) -> Expr.Diff (go a, go b))
  in
  let rewritten = go expr in
  (rewritten, !fetches)

let query t ~node ?attrs ?(cond = Predicate.True) () =
  if not t.connected then invalid_arg "Query_shipper.query: not connected";
  let n = Graph.node t.vdp node in
  let attrs =
    match attrs with Some a -> a | None -> Schema.attrs n.Graph.schema
  in
  let expanded = Graph.expanded_def t.vdp node in
  let rewritten, fetches = decompose t.vdp expanded in
  (* one source transaction per source *)
  let by_source = Hashtbl.create 4 in
  List.iter
    (fun (label, leaf, sub) ->
      let src = Graph.source_of_leaf t.vdp leaf in
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_source src) in
      Hashtbl.replace by_source src ((label, sub) :: existing))
    fetches;
  let fetched : (string, Bag.t) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun src_name queries ->
      let src = Hashtbl.find t.source_tbl src_name in
      (* each fetch is a chain over one leaf, prepared per query: the
         baseline keeps no plan *)
      let requests =
        List.map
          (fun (label, sub) ->
            ( label,
              {
                Source_db.rq_prepared = Source_db.prepare src sub;
                rq_attrs = None;
                rq_cond = Predicate.True;
                rq_key = None;
              } ))
          queries
      in
      let answer =
        match Source_db.try_poll src requests with
        | Ok answer -> answer
        | Error e -> Source_db.err "%s" (Source_db.poll_error_to_string e)
      in
      t.stats.sq_polls <- t.stats.sq_polls + 1;
      List.iter
        (fun (label, bag) ->
          t.stats.sq_tuples_fetched <- t.stats.sq_tuples_fetched + Bag.cardinal bag;
          Hashtbl.replace fetched label bag)
        answer.Message.results)
    by_source;
  let ops_before = Eval.tuple_ops () in
  let result =
    Bag.project attrs
      (Bag.select cond
         (Eval.eval ~env:(Hashtbl.find_opt fetched) rewritten))
  in
  t.stats.sq_ops <- t.stats.sq_ops + (Eval.tuple_ops () - ops_before);
  t.stats.sq_queries <- t.stats.sq_queries + 1;
  result

let stats t = t.stats
