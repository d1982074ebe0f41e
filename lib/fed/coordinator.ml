open Relalg
open Delta
open Vdp
open Sim
open Sources
open Squirrel

type shard = {
  sh_id : int;
  sh_sources : (string * Adapter.t) list;
  sh_med : Mediator.t;
  mutable sh_alive : bool;
}

type t = {
  f_engine : Engine.t;
  f_vdp : Graph.t;
  f_key : string;
  f_config : Med.config;
  f_shards : shard array;
  f_mutex : Engine.Mutex.t;
      (* runs fed-level query transactions one at a time, so a shard's
         update transactions queue behind at most one fed sub-query
         rather than behind every fed query waiting on that shard's
         mediator; the scatter inside a transaction still overlaps
         across shards. e18's makespans depend on this order. *)
  f_metrics : Obs.Metrics.t;
  f_queries : Obs.Metrics.counter;
  f_fanouts : Obs.Metrics.counter;
  f_single_shard : Obs.Metrics.counter;
  f_degraded : Obs.Metrics.counter;
  f_routed_txs : Obs.Metrics.counter;
  f_routed_atoms : Obs.Metrics.counter;
  f_shard_resyncs : Obs.Metrics.counter;
}

let err fmt = Format.kasprintf failwith fmt

let create ~engine ~vdp ~key ~shards ~make_sources
    ?(annotation = Annotation.fully_materialized)
    ?(config = Med.Config.default) () =
  if shards <= 0 then err "Coordinator.create: shards must be positive";
  List.iter
    (fun (leaf : Graph.node) ->
      if not (Schema.mem leaf.Graph.schema key) then
        err "Coordinator.create: leaf %S lacks partition key %S" leaf.Graph.name
          key)
    (Graph.leaves vdp);
  let metrics = Obs.Metrics.create () in
  let c name = Obs.Metrics.counter metrics name in
  let t =
    {
      f_engine = engine;
      f_vdp = vdp;
      f_key = key;
      f_config = config;
      f_shards = [||];
      f_mutex = Engine.Mutex.create ();
      f_metrics = metrics;
      f_queries = c "fed_queries";
      f_fanouts = c "fed_fanouts";
      f_single_shard = c "fed_single_shard";
      f_degraded = c "fed_degraded_answers";
      f_routed_txs = c "fed_routed_txs";
      f_routed_atoms = c "fed_routed_atoms";
      f_shard_resyncs = c "fed_shard_resyncs";
    }
  in
  let annotation = annotation vdp in
  let mk_shard i =
    let sources = make_sources ~shard:i in
    let med =
      Mediator.create ~engine ~vdp ~annotation ~config
        ~sources:(List.map Adapter.db sources) ()
    in
    Mediator.connect med ();
    (* mediator-as-source: each shard's export change stream drives the
       coordinator's resync bookkeeping *)
    Mediator.subscribe_exports med (function
      | Med.Export_delta _ -> ()
      | Med.Export_snapshot _ -> Obs.Metrics.incr t.f_shard_resyncs);
    {
      sh_id = i;
      sh_sources =
        List.map (fun s -> (Adapter.name s, s)) sources;
      sh_med = med;
      sh_alive = true;
    }
  in
  { t with f_shards = Array.init shards mk_shard }

let shard_count t = Array.length t.f_shards
let shard t i = t.f_shards.(i)
let mediator t i = t.f_shards.(i).sh_med
let metrics t = t.f_metrics
let vdp t = t.f_vdp

let shard_source sh name =
  match List.assoc_opt name sh.sh_sources with
  | Some s -> s
  | None -> err "shard %d has no source %S" sh.sh_id name

let load t relation bag =
  let shards = Array.length t.f_shards in
  let src_name = Graph.source_of_leaf t.f_vdp relation in
  Array.iteri
    (fun i part -> Adapter.load (shard_source t.f_shards.(i) src_name) relation part)
    (Partition.split_bag ~shards ~key:t.f_key bag)

let initialize t =
  ignore
    (Engine.parallel t.f_engine
       (Array.to_list
          (Array.map (fun sh () -> Mediator.initialize sh.sh_med) t.f_shards))
      : unit list)

(* Route an update transaction: split the delta by key ownership and
   commit each shard's slice at that shard's own source databases.
   Non-blocking: commits only stage announcements. *)
let commit t md =
  let shards = Array.length t.f_shards in
  let parts = Partition.split_delta ~shards ~key:t.f_key md in
  Array.iteri
    (fun i part ->
      if not (Multi_delta.is_empty part) then begin
        (* group the slice's relations by owning source *)
        let by_source : (string, Multi_delta.t ref) Hashtbl.t =
          Hashtbl.create 4
        in
        List.iter
          (fun (rel, d) ->
            let src = Graph.source_of_leaf t.f_vdp rel in
            match Hashtbl.find_opt by_source src with
            | Some md -> md := Multi_delta.add !md rel d
            | None -> Hashtbl.add by_source src (ref (Multi_delta.singleton rel d)))
          (Multi_delta.bindings part);
        Hashtbl.iter
          (fun src md ->
            Adapter.commit (shard_source t.f_shards.(i) src) !md)
          by_source
      end)
    parts;
  Obs.Metrics.incr t.f_routed_txs;
  Obs.Metrics.add t.f_routed_atoms (Multi_delta.atom_count md)

(* Staleness markers standing in for a dead shard: the coordinator can
   say exactly which versions of the shard's sources the federation
   answer still covers (what the shard had reflected when it died) —
   prefixed with the shard id so a degraded answer names the lost
   shard, not the healthy ones. *)
let dead_markers t sh =
  let now = Engine.now t.f_engine in
  List.map
    (fun src ->
      let r = Ledger.reflected sh.sh_med.Med.ledger src in
      {
        Med.st_source = Printf.sprintf "shard%d:%s" sh.sh_id src;
        st_version = r.Ledger.r_version;
        st_age = now -. r.Ledger.r_commit_time;
      })
    (Graph.sources t.f_vdp)

let validate t node attrs cond =
  let n = Graph.node t.f_vdp node in
  if not n.Graph.export then err "%S is not an export relation" node;
  let schema = n.Graph.schema in
  let attrs = match attrs with Some a -> a | None -> Schema.attrs schema in
  List.iter
    (fun a ->
      if not (Schema.mem schema a) then
        err "export %S has no attribute %S" node a)
    (attrs @ Predicate.attrs cond);
  (attrs, Schema.project schema attrs)

let query t ~node ?attrs ?(cond = Predicate.True) () =
  let attrs, out_schema = validate t node attrs cond in
  Engine.Mutex.with_lock t.f_engine t.f_mutex (fun () ->
      Obs.Metrics.incr t.f_queries;
      let shards = Array.length t.f_shards in
      let target_ids =
        match Partition.targets ~shards ~key:t.f_key cond with
        | Partition.All_shards -> List.init shards Fun.id
        | Partition.Some_shards ids -> ids
      in
      let alive, dead =
        List.partition (fun i -> t.f_shards.(i).sh_alive) target_ids
      in
      let ask i () =
        Mediator.query t.f_shards.(i).sh_med ~node ~attrs ~cond ()
      in
      let answers =
        match alive with
        | [] -> []
        | [ i ] ->
          Obs.Metrics.incr t.f_single_shard;
          [ ask i () ]
        | _ ->
          Obs.Metrics.incr t.f_fanouts;
          Engine.parallel t.f_engine (List.map ask alive)
      in
      let dead_stale =
        List.concat_map (fun i -> dead_markers t t.f_shards.(i)) dead
      in
      let quality =
        Merge.merge_quality
          ((if dead_stale = [] then Qp.Fresh else Qp.Stale dead_stale)
          :: List.map (fun (a : Qp.answer) -> a.Qp.quality) answers)
      in
      (match quality with
      | Qp.Fresh -> ()
      | Qp.Stale _ -> Obs.Metrics.incr t.f_degraded);
      {
        Qp.tuples =
          List.fold_left
            (fun acc (a : Qp.answer) -> Bag.union acc a.Qp.tuples)
            (Bag.empty out_schema) answers;
        quality;
        reflect =
          Merge.merge_reflect
            (List.map (fun (a : Qp.answer) -> a.Qp.reflect) answers);
        bound =
          Merge.merge_bound ~stale:dead_stale
            (List.map (fun (a : Qp.answer) -> a.Qp.bound) answers);
        trace_id = None;
      })

(* --- failure injection ------------------------------------------------ *)

let set_links sh up =
  List.iter
    (fun (_, s) -> Source_db.set_link_up (Adapter.db s) up)
    sh.sh_sources

let kill t i =
  let sh = t.f_shards.(i) in
  if sh.sh_alive then begin
    sh.sh_alive <- false;
    set_links sh false
  end

let revive t i =
  let sh = t.f_shards.(i) in
  if not sh.sh_alive then begin
    sh.sh_alive <- true;
    set_links sh true
  end

let partition_links t i up = set_links t.f_shards.(i) up

(* --- lifecycle -------------------------------------------------------- *)

let run_to_quiescence t =
  let total f =
    Array.fold_left (fun acc sh -> acc + f sh.sh_med) 0 t.f_shards
  in
  Workload.Scenario.quiesce t.f_engine
    ~flush_interval:t.f_config.Med.Config.flush_interval
    ~queued:(fun () -> total Mediator.queue_length)
    ~received:(fun () ->
      total (fun med ->
          Obs.Metrics.value (Mediator.stats med).Med.messages_received))
    ~in_flight:(fun () ->
      List.concat_map
        (fun sh ->
          List.map
            (fun (name, a) ->
              ( Printf.sprintf "shard%d:%s" sh.sh_id name,
                Source_db.in_flight (Adapter.db a) ))
            sh.sh_sources)
        (Array.to_list t.f_shards))

let describe t =
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf)
    "federation: %d shard(s), partition key %S\n"
    (Array.length t.f_shards) t.f_key;
  Array.iter
    (fun sh ->
      let s = Mediator.stats sh.sh_med in
      let batches = Obs.Metrics.value s.Med.update_txs in
      let coalesced = Obs.Metrics.value s.Med.coalesced_txs in
      Printf.ksprintf (Buffer.add_string buf)
        "  shard%d [%s] sources=%s queue=%d update_txs=%d query_txs=%d \
         batches=%d (mean %.2f tx/batch) store=%dB\n"
        sh.sh_id
        (if sh.sh_alive then "up" else "down")
        (String.concat "," (List.map fst sh.sh_sources))
        (Mediator.queue_length sh.sh_med)
        batches
        (Obs.Metrics.value s.Med.query_txs)
        batches
        (if batches = 0 then 0.0
         else float_of_int coalesced /. float_of_int batches)
        (Mediator.store_bytes sh.sh_med))
    t.f_shards;
  Buffer.contents buf
