open Relalg
open Delta
open Sim
open Squirrel

(* A system under test: the N-shard federation and a plain single
   mediator expose the same three operations, so one driver produces
   byte-identical workloads for the differential test and the scaling
   bench. *)
type sys = {
  s_commit : Multi_delta.t -> unit;
  s_query :
    node:string -> ?attrs:string list -> ?cond:Predicate.t -> unit -> Qp.answer;
  s_quiesce : unit -> unit;
}

let of_fed fed =
  {
    s_commit = (fun md -> Coordinator.commit fed md);
    s_query =
      (fun ~node ?attrs ?cond () -> Coordinator.query fed ~node ?attrs ?cond ());
    s_quiesce = (fun () -> Coordinator.run_to_quiescence fed);
  }

(* --- workload specification ------------------------------------------- *)

type spec = {
  w_seed : int;
  w_keys : int;
  w_groups : int;
  w_txs : int;  (** update transactions (single-key replaces) *)
  w_queries : int;  (** interleaved queries *)
  w_commit_start : float;
  w_commit_horizon : float;  (** commits spread over this window *)
  w_query_start : float;
  w_query_horizon : float;
}

let default_spec =
  {
    w_seed = 42;
    w_keys = 4096;
    w_groups = 16;
    w_txs = 512;
    w_queries = 48;
    w_commit_start = 1.0;
    w_commit_horizon = 4.0;
    w_query_start = 1.25;
    w_query_horizon = 4.0;
  }

type update_choice = {
  ch_key : int;
  ch_grp : int;
  ch_amt : int;
  ch_tag : int option;  (** every fourth transaction also retags *)
}

type query_kind =
  | Point of int  (** Enriched restricted to one key: single-shard *)
  | Group_scan of int  (** Enriched restricted to one group: scatter *)
  | Hot_scan  (** full Hot export: scatter *)

let plan_updates spec =
  let rng = Workload.Datagen.state (spec.w_seed lxor 0x5eed) in
  Array.init spec.w_txs (fun i ->
      {
        ch_key = Random.State.int rng spec.w_keys;
        ch_grp = Random.State.int rng spec.w_groups;
        ch_amt = Random.State.int rng 100;
        ch_tag =
          (if i mod 4 = 0 then Some (Random.State.int rng 1000) else None);
      })

let plan_queries spec =
  let rng = Workload.Datagen.state (spec.w_seed lxor 0xcafe) in
  Array.init spec.w_queries (fun i ->
      if i mod 4 = 3 then Point (Random.State.int rng spec.w_keys)
      else if i mod 8 = 6 then Hot_scan
      else Group_scan (Random.State.int rng spec.w_groups))

let query_request = function
  | Point k ->
    ("Enriched", Predicate.(eq (attr Fed_scenario.partition_key) (int k)))
  | Group_scan g -> ("Enriched", Predicate.(eq (attr "grp") (int g)))
  | Hot_scan -> ("Hot", Predicate.True)

type outcome = {
  o_answers : (query_kind * Qp.answer) array;  (** in plan order *)
  o_finals : (string * Qp.answer) list;  (** full exports at the end *)
  o_last_done : float;
      (** simulated completion time of the last scheduled operation *)
  o_quiesced : float;  (** simulated time when the system went quiet *)
}

(* Drive one system through the deterministic mixed workload: replaces
   (and retags) scheduled over the commit window, queries over the
   query window. Shadow tables track current tuples so a replace can
   emit its deletion without asking the system. Offsets are chosen
   never to collide with flush ticks, so fed and single-mediator runs
   interleave identically. *)
let run ~engine ~(spec : spec) sys =
  let shadow_items : (int, Tuple.t) Hashtbl.t = Hashtbl.create spec.w_keys in
  let shadow_tags : (int, Tuple.t) Hashtbl.t = Hashtbl.create spec.w_keys in
  let base_items, base_tags =
    Fed_scenario.base_bags ~seed:spec.w_seed ~keys:spec.w_keys
      ~groups:spec.w_groups
  in
  Bag.iter
    (fun t _ ->
      Hashtbl.replace shadow_items
        (match Tuple.get t "k" with Value.Int k -> k | _ -> assert false)
        t)
    base_items;
  Bag.iter
    (fun t _ ->
      Hashtbl.replace shadow_tags
        (match Tuple.get t "k" with Value.Int k -> k | _ -> assert false)
        t)
    base_tags;
  let updates = plan_updates spec in
  let queries = plan_queries spec in
  let answers = Array.make spec.w_queries None in
  let last_done = ref 0.0 in
  let done_ops = ref 0 in
  let total_ops = spec.w_txs + spec.w_queries in
  (* commits: plain callbacks (non-blocking) *)
  let cdt = spec.w_commit_horizon /. float_of_int (max 1 spec.w_txs) in
  Array.iteri
    (fun j ch ->
      Engine.schedule_at engine
        ~time:(spec.w_commit_start +. (float_of_int j *. cdt) +. 0.0013)
        (fun () ->
          let old_item = Hashtbl.find shadow_items ch.ch_key in
          let new_item =
            Tuple.of_list
              [
                ("k", Value.Int ch.ch_key);
                ("grp", Value.Int ch.ch_grp);
                ("amt", Value.Int ch.ch_amt);
              ]
          in
          let md =
            Multi_delta.singleton "Items"
              (Rel_delta.insert
                 (Rel_delta.delete
                    (Rel_delta.empty Fed_scenario.schema_items)
                    old_item)
                 new_item)
          in
          let md =
            match ch.ch_tag with
            | None -> md
            | Some tag ->
              let old_tag = Hashtbl.find shadow_tags ch.ch_key in
              let new_tag =
                Tuple.of_list
                  [ ("k", Value.Int ch.ch_key); ("tag", Value.Int tag) ]
              in
              Hashtbl.replace shadow_tags ch.ch_key new_tag;
              Multi_delta.add md "Tags"
                (Rel_delta.insert
                   (Rel_delta.delete
                      (Rel_delta.empty Fed_scenario.schema_tags)
                      old_tag)
                   new_tag)
          in
          Hashtbl.replace shadow_items ch.ch_key new_item;
          sys.s_commit md;
          incr done_ops;
          last_done := Float.max !last_done (Engine.now engine)))
    updates;
  (* queries: processes (they block on scatter/mutex/ops) *)
  let qdt = spec.w_query_horizon /. float_of_int (max 1 spec.w_queries) in
  Array.iteri
    (fun j kind ->
      Engine.schedule_at engine
        ~time:(spec.w_query_start +. (float_of_int j *. qdt) +. 0.0037)
        (fun () ->
          Engine.spawn engine (fun () ->
              let node, cond = query_request kind in
              let a = sys.s_query ~node ~cond () in
              answers.(j) <- Some (kind, a);
              incr done_ops;
              last_done := Float.max !last_done (Engine.now engine))))
    queries;
  (* drain: quiescence loops until queues are empty AND every
     scheduled operation has completed *)
  let rec drain guard =
    if guard > 1000 then failwith "Fed_workload.run: workload did not drain";
    sys.s_quiesce ();
    if !done_ops < total_ops then drain (guard + 1)
  in
  drain 0;
  let quiesced = Engine.now engine in
  (* final full-table reads, outside the measured window *)
  let finals = ref [] in
  Engine.spawn engine (fun () ->
      finals :=
        [
          ("Enriched", sys.s_query ~node:"Enriched" ());
          ("Hot", sys.s_query ~node:"Hot" ());
        ]);
  (* bounded advance: the flush timer reschedules forever, so a plain
     un-bounded run would never return *)
  let rec wait n =
    if !finals = [] then begin
      if n > 1000 then failwith "Fed_workload.run: final reads never completed";
      Engine.run engine ~until:(Engine.now engine +. 1.0);
      wait (n + 1)
    end
  in
  wait 0;
  {
    o_answers =
      Array.mapi
        (fun j -> function
          | Some r -> r
          | None -> failwith (Printf.sprintf "query %d never completed" j))
        answers;
    o_finals = !finals;
    o_last_done = !last_done;
    o_quiesced = quiesced;
  }
