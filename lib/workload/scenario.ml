open Relalg
open Sim
open Sources
open Vdp
open Squirrel

type backend = [ `Relational | `Triple ]

type env = {
  engine : Engine.t;
  adapters : Adapter.t list;
  sources : Source_db.t list;
  vdp : Graph.t;
}

let make_env ~engine ~vdp adapters =
  { engine; adapters; sources = List.map Adapter.db adapters; vdp }

let source env name =
  List.find (fun a -> String.equal (Adapter.name a) name) env.adapters

(* One constructor seam for every environment below: the same scenario
   can be built over relational databases or triple stores, which is
   what the adapter differential tests diff against each other. *)
let mk_source ~backend ~engine ~name ~relations ~announce () =
  match backend with
  | `Relational ->
    Adapter.relational
      (Source_db.create ~engine ~name ~relations ~announce ())
  | `Triple ->
    Adapter.triple (Triple_store.create ~engine ~name ~relations ~announce ())

(* --- Figure 1 --------------------------------------------------------- *)

let schema_r =
  Schema.make ~key:[ "r1" ]
    [
      ("r1", Value.TInt);
      ("r2", Value.TInt);
      ("r3", Value.TInt);
      ("r4", Value.TInt);
    ]

let schema_s =
  Schema.make ~key:[ "s1" ]
    [ ("s1", Value.TInt); ("s2", Value.TInt); ("s3", Value.TInt) ]

let t_def =
  Expr.(
    project
      [ "r1"; "r3"; "s1"; "s2" ]
      (join
         ~on:(Predicate.eq_attrs "r2" "s1")
         (select Predicate.(eq (attr "r4") (int 100)) (base "R"))
         (select Predicate.(lt (attr "s3") (int 50)) (base "S"))))

let fig1_vdp () =
  let b =
    Builder.create
      ~source_of:(function
        | "R" -> Some "db1" | "S" -> Some "db2" | _ -> None)
      ~schema_of:(function
        | "R" -> Some schema_r | "S" -> Some schema_s | _ -> None)
      ()
  in
  Builder.add_export b ~name:"T" t_def;
  Builder.build b

(* r2 ranges over S's key space so the join hits; r4 is 100 half the
   time; s3 straddles the 50 threshold *)
let r_specs s_size =
  [
    { Datagen.c_attr = "r1"; c_min = 0; c_max = 0 };
    { Datagen.c_attr = "r2"; c_min = 0; c_max = max 0 (s_size - 1) };
    { Datagen.c_attr = "r3"; c_min = 0; c_max = 199 };
    { Datagen.c_attr = "r4"; c_min = 100; c_max = 101 };
  ]

let s_specs =
  [
    { Datagen.c_attr = "s1"; c_min = 0; c_max = 0 };
    { Datagen.c_attr = "s2"; c_min = 0; c_max = 99 };
    { Datagen.c_attr = "s3"; c_min = 0; c_max = 99 };
  ]

let default_s_size = 40

let fig1_update_specs = function
  | "R" -> r_specs default_s_size
  | "S" -> s_specs
  | rel -> invalid_arg ("fig1_update_specs: unknown relation " ^ rel)

let make_fig1 ?(seed = 42) ?(r_size = 60) ?(s_size = default_s_size)
    ?(announce = Source_db.Immediate) ?(backend = `Relational) () =
  let engine = Engine.create () in
  let rng = Datagen.state seed in
  let db1 =
    mk_source ~backend ~engine ~name:"db1" ~relations:[ ("R", schema_r) ]
      ~announce ()
  in
  let db2 =
    mk_source ~backend ~engine ~name:"db2" ~relations:[ ("S", schema_s) ]
      ~announce ()
  in
  Adapter.load db1 "R" (Datagen.bag rng schema_r (r_specs s_size) ~size:r_size);
  Adapter.load db2 "S" (Datagen.bag rng schema_s s_specs ~size:s_size);
  make_env ~engine ~vdp:(fig1_vdp ()) [ db1; db2 ]

let ann_ex21 vdp = Annotation.fully_materialized vdp

let ann_ex22 vdp =
  Annotation.of_list vdp
    [ ("R'", [ ("r1", Annotation.V); ("r2", Annotation.V); ("r3", Annotation.V) ]) ]

let ann_ex23 vdp =
  Annotation.of_list vdp
    [
      ("R'", [ ("r1", Annotation.V); ("r2", Annotation.V); ("r3", Annotation.V) ]);
      ("S'", [ ("s1", Annotation.V); ("s2", Annotation.V) ]);
      ( "T",
        [
          ("r1", Annotation.M);
          ("r3", Annotation.V);
          ("s1", Annotation.M);
          ("s2", Annotation.V);
        ] );
    ]

(* --- Example 5.1 ------------------------------------------------------ *)

let schema_a =
  Schema.make ~key:[ "a1" ] [ ("a1", Value.TInt); ("a2", Value.TInt) ]

let schema_b =
  Schema.make ~key:[ "b1" ] [ ("b1", Value.TInt); ("b2", Value.TInt) ]

let schema_c =
  Schema.make ~key:[ "c1" ] [ ("c1", Value.TInt); ("a1", Value.TInt) ]

let schema_d =
  Schema.make ~key:[ "d1" ] [ ("d1", Value.TInt); ("b1", Value.TInt) ]

let e_cond =
  Predicate.(
    lt (Add (Mul (attr "a1", attr "a1"), attr "a2")) (Mul (attr "b2", attr "b2")))

let ex51_vdp () =
  let b =
    Builder.create
      ~source_of:(function
        | "A" -> Some "dbA"
        | "B" -> Some "dbB"
        | "C" -> Some "dbC"
        | "D" -> Some "dbD"
        | _ -> None)
      ~schema_of:(function
        | "A" -> Some schema_a
        | "B" -> Some schema_b
        | "C" -> Some schema_c
        | "D" -> Some schema_d
        | _ -> None)
      ()
  in
  Builder.add_export b ~name:"E"
    Expr.(project [ "a1"; "a2"; "b1" ] (join ~on:e_cond (base "A") (base "B")));
  Builder.add_node b ~name:"F"
    Expr.(
      project [ "a1"; "b1" ]
        (join ~on:(Predicate.eq_attrs "c1" "d1") (base "C") (base "D")));
  Builder.add_export b ~name:"G"
    Expr.(diff (project [ "a1"; "b1" ] (base "E")) (base "F"));
  Builder.build b

let ex51_specs size =
  let key = { Datagen.c_attr = "k"; c_min = 0; c_max = 0 } in
  function
  | "A" ->
    [ { key with c_attr = "a1" }; { Datagen.c_attr = "a2"; c_min = 0; c_max = 30 } ]
  | "B" ->
    [ { key with c_attr = "b1" }; { Datagen.c_attr = "b2"; c_min = 0; c_max = 15 } ]
  | "C" ->
    [
      { key with c_attr = "c1" };
      { Datagen.c_attr = "a1"; c_min = 0; c_max = max 0 (size - 1) };
    ]
  | "D" ->
    [
      { key with c_attr = "d1" };
      { Datagen.c_attr = "b1"; c_min = 0; c_max = max 0 (size - 1) };
    ]
  | rel -> invalid_arg ("ex51_specs: unknown relation " ^ rel)

let default_ex51_size = 30

let ex51_update_specs rel = ex51_specs default_ex51_size rel

let make_ex51 ?(seed = 7) ?(size = default_ex51_size)
    ?(announce = Source_db.Immediate) ?(backend = `Relational) () =
  let engine = Engine.create () in
  let rng = Datagen.state seed in
  let mk name rel schema =
    let src =
      mk_source ~backend ~engine ~name ~relations:[ (rel, schema) ] ~announce
        ()
    in
    Adapter.load src rel (Datagen.bag rng schema (ex51_specs size rel) ~size);
    src
  in
  let dba = mk "dbA" "A" schema_a in
  let dbb = mk "dbB" "B" schema_b in
  let dbc = mk "dbC" "C" schema_c in
  let dbd = mk "dbD" "D" schema_d in
  make_env ~engine ~vdp:(ex51_vdp ()) [ dba; dbb; dbc; dbd ]

let ann_ex51 vdp =
  Annotation.of_list vdp
    [
      ("B'", [ ("b1", Annotation.V); ("b2", Annotation.V) ]);
      ("F", [ ("a1", Annotation.V); ("b1", Annotation.V) ]);
      ( "E",
        [ ("a1", Annotation.M); ("a2", Annotation.V); ("b1", Annotation.M) ] );
    ]

(* --- assembly --------------------------------------------------------- *)

let mediator env ~annotation ?config () =
  let med =
    Mediator.create ~engine:env.engine ~vdp:env.vdp ~annotation ?config
      ~sources:env.sources ()
  in
  Mediator.connect med ();
  med

exception
  No_quiescence of {
    nq_rounds : int;
    nq_time : float;  (** simulated time when we gave up *)
    nq_queue : int;  (** mediator update-queue depth *)
    nq_in_flight : (string * int) list;
        (** per source: messages scheduled on its channel but not yet
            delivered *)
    nq_pending_events : int;  (** engine events still scheduled *)
  }

let () =
  Printexc.register_printer (function
    | No_quiescence { nq_rounds; nq_time; nq_queue; nq_in_flight; nq_pending_events }
      ->
      Some
        (Printf.sprintf
           "No_quiescence: %d rounds (t=%g), queue depth %d, in flight [%s], \
            %d pending events"
           nq_rounds nq_time nq_queue
           (String.concat "; "
              (List.map
                 (fun (s, n) -> Printf.sprintf "%s:%d" s n)
                 nq_in_flight))
           nq_pending_events)
    | _ -> None)

let quiesce engine ~flush_interval ~queued ~received ~in_flight =
  let slice = 2.0 *. flush_interval in
  let rec go rounds stable last_msgs =
    if rounds > 100_000 then
      raise
        (No_quiescence
           {
             nq_rounds = rounds;
             nq_time = Engine.now engine;
             nq_queue = queued ();
             nq_in_flight = in_flight ();
             nq_pending_events = Engine.pending engine;
           });
    Engine.run engine ~until:(Engine.now engine +. slice);
    let msgs = received () in
    let quiet = queued () = 0 && msgs = last_msgs in
    if quiet && stable >= 2 then ()
    else go (rounds + 1) (if quiet then stable + 1 else 0) msgs
  in
  go 0 0 (-1)

let run_to_quiescence env med =
  quiesce env.engine
    ~flush_interval:(med : Mediator.t).Med.config.Med.Config.flush_interval
    ~queued:(fun () -> Mediator.queue_length med)
    ~received:(fun () ->
      Obs.Metrics.value (Mediator.stats med).Med.messages_received)
    ~in_flight:(fun () ->
      List.map (fun s -> (Source_db.name s, Source_db.in_flight s)) env.sources)

(* --- Retail (union views) --------------------------------------------- *)

let schema_orders =
  Schema.make ~key:[ "oid" ]
    [ ("oid", Value.TInt); ("cust", Value.TInt); ("amt", Value.TInt) ]

let schema_cust =
  Schema.make ~key:[ "cust" ]
    [ ("cust", Value.TInt); ("region", Value.TInt); ("status", Value.TInt) ]

let retail_vdp () =
  let b =
    Builder.create
      ~source_of:(function
        | "OrdersE" -> Some "dbEast"
        | "OrdersW" -> Some "dbWest"
        | "Cust" -> Some "dbCust"
        | _ -> None)
      ~schema_of:(function
        | "OrdersE" | "OrdersW" -> Some schema_orders
        | "Cust" -> Some schema_cust
        | _ -> None)
      ()
  in
  Builder.add_export b ~name:"AllOrders"
    Expr.(union (base "OrdersE") (base "OrdersW"));
  Builder.add_export b ~name:"Premium"
    Expr.(
      project
        [ "cust"; "region"; "amt" ]
        (join
           (select Predicate.(ge (attr "amt") (int 50)) (base "AllOrders"))
           (select Predicate.(eq (attr "status") (int 1)) (base "Cust"))));
  Builder.build b

let retail_customers = 25

let retail_update_specs = function
  | "OrdersE" | "OrdersW" ->
    [
      { Datagen.c_attr = "oid"; c_min = 0; c_max = 0 };
      { Datagen.c_attr = "cust"; c_min = 0; c_max = retail_customers - 1 };
      { Datagen.c_attr = "amt"; c_min = 1; c_max = 120 };
    ]
  | "Cust" ->
    [
      { Datagen.c_attr = "cust"; c_min = 0; c_max = 0 };
      { Datagen.c_attr = "region"; c_min = 0; c_max = 3 };
      { Datagen.c_attr = "status"; c_min = 0; c_max = 1 };
    ]
  | rel -> invalid_arg ("retail_update_specs: unknown relation " ^ rel)

let make_retail ?(seed = 99) ?(orders = 40) ?(customers = retail_customers)
    ?(announce = Source_db.Immediate) ?(backend = `Relational) () =
  let engine = Engine.create () in
  let rng = Datagen.state seed in
  let mk name rel =
    mk_source ~backend ~engine ~name ~relations:[ (rel, schema_orders) ]
      ~announce ()
  in
  let east = mk "dbEast" "OrdersE" in
  let west = mk "dbWest" "OrdersW" in
  let cust_db =
    mk_source ~backend ~engine ~name:"dbCust"
      ~relations:[ ("Cust", schema_cust) ]
      ~announce ()
  in
  (* disjoint oid ranges per region so the bag union never conflates
     distinct orders *)
  let order_bag ~base rel =
    let specs = retail_update_specs rel in
    let rec build acc i =
      if i >= orders then acc
      else
        let t =
          Tuple.set
            (Datagen.keyed_tuple rng schema_orders specs ~key_seed:(base + i))
            "oid"
            (Value.Int (base + i))
        in
        build (Bag.add acc t) (i + 1)
    in
    build (Bag.empty schema_orders) 0
  in
  Adapter.load east "OrdersE" (order_bag ~base:0 "OrdersE");
  Adapter.load west "OrdersW" (order_bag ~base:100000 "OrdersW");
  Adapter.load cust_db "Cust"
    (Datagen.bag rng schema_cust (retail_update_specs "Cust") ~size:customers);
  make_env ~engine ~vdp:(retail_vdp ()) [ east; west; cust_db ]

let schema_orders_west =
  Schema.make ~key:[ "wid" ]
    [ ("wid", Value.TInt); ("client", Value.TInt); ("amount", Value.TInt) ]

let federated_vdp () =
  let b =
    Builder.create
      ~source_of:(function
        | "OrdersE" -> Some "dbEast"
        | "OrdersW" -> Some "dbWest"
        | _ -> None)
      ~schema_of:(function
        | "OrdersE" -> Some schema_orders
        | "OrdersW" -> Some schema_orders_west
        | _ -> None)
      ()
  in
  Builder.add_export b ~name:"AllOrders"
    Expr.(
      union (base "OrdersE")
        (rename
           [ ("wid", "oid"); ("client", "cust"); ("amount", "amt") ]
           (base "OrdersW")));
  Builder.build b

let federated_update_specs = function
  | "OrdersE" ->
    [
      { Datagen.c_attr = "oid"; c_min = 0; c_max = 0 };
      { Datagen.c_attr = "cust"; c_min = 0; c_max = 19 };
      { Datagen.c_attr = "amt"; c_min = 1; c_max = 120 };
    ]
  | "OrdersW" ->
    [
      { Datagen.c_attr = "wid"; c_min = 0; c_max = 0 };
      { Datagen.c_attr = "client"; c_min = 0; c_max = 19 };
      { Datagen.c_attr = "amount"; c_min = 1; c_max = 120 };
    ]
  | rel -> invalid_arg ("federated_update_specs: unknown relation " ^ rel)

let make_federated ?(seed = 71) ?(orders = 25)
    ?(announce = Source_db.Immediate) ?(backend = `Relational) () =
  let engine = Engine.create () in
  let rng = Datagen.state seed in
  let east =
    mk_source ~backend ~engine ~name:"dbEast"
      ~relations:[ ("OrdersE", schema_orders) ]
      ~announce ()
  in
  let west =
    mk_source ~backend ~engine ~name:"dbWest"
      ~relations:[ ("OrdersW", schema_orders_west) ]
      ~announce ()
  in
  let load src rel schema base =
    let specs = federated_update_specs rel in
    let key_attr = List.hd (Schema.key schema) in
    let bag =
      List.fold_left
        (fun acc i ->
          Bag.add acc
            (Tuple.set
               (Datagen.keyed_tuple rng schema specs ~key_seed:(base + i))
               key_attr
               (Value.Int (base + i))))
        (Bag.empty schema)
        (List.init orders Fun.id)
    in
    Adapter.load src rel bag
  in
  load east "OrdersE" schema_orders 0;
  load west "OrdersW" schema_orders_west 100000;
  make_env ~engine ~vdp:(federated_vdp ()) [ east; west ]

let ann_retail_hybrid vdp =
  Annotation.of_list vdp
    [
      ( "AllOrders",
        [
          ("oid", Annotation.V); ("cust", Annotation.V); ("amt", Annotation.V);
        ] );
    ]

(* --- the standard load run -------------------------------------------- *)

type load = {
  l_updates_per_rel : int;
  l_update_interval : float;
  l_queries : int;
  l_query_interval : float;
  l_delete_fraction : float;
}

let default_load =
  {
    l_updates_per_rel = 10;
    l_update_interval = 0.3;
    l_queries = 10;
    l_query_interval = 0.5;
    l_delete_fraction = 0.25;
  }

let start ?config env ~annotation =
  let med = mediator env ~annotation ?config () in
  Engine.spawn env.engine (fun () -> Mediator.initialize med);
  Engine.run env.engine ~until:1.0;
  med

let spawn_updates env ~rng updates load =
  if load.l_updates_per_rel > 0 then
    List.iter
      (fun (src_name, rel, specs) ->
        Driver.update_process ~rng ~src:(source env src_name)
          {
            Driver.u_relation = rel;
            u_interval = load.l_update_interval;
            u_count = load.l_updates_per_rel;
            u_delete_fraction = load.l_delete_fraction;
            u_specs = specs;
          })
      updates

let run_load ?extra ~rng env med ~updates ~queries:(node, attr_sets) load =
  let t0 = Engine.now env.engine in
  spawn_updates env ~rng updates load;
  Option.iter (fun f -> f env) extra;
  if load.l_queries > 0 then
    Driver.query_process ~rng ~med
      {
        Driver.q_node = node;
        q_interval = load.l_query_interval;
        q_count = load.l_queries;
        q_attr_sets = attr_sets;
      };
  run_to_quiescence env med;
  (* a query stream that outlasts the updates can leave the mediator
     quiet before its last query is posted *)
  let horizon =
    t0 +. (float_of_int load.l_queries *. load.l_query_interval)
  in
  if Engine.now env.engine < horizon then begin
    Engine.run env.engine ~until:horizon;
    run_to_quiescence env med
  end

(* --- the catalogue ----------------------------------------------------- *)

type t = {
  sc_name : string;
  sc_doc : string;
  sc_make : seed:int -> env;
  sc_annotations : (string * (Graph.t -> Annotation.t)) list;
  sc_updates : (string * string * Datagen.column_spec list) list;
  sc_query : string * string list;
}

let extremes =
  [
    ("materialized", Annotation.fully_materialized);
    ("virtual", Annotation.fully_virtual);
    ("warehouse", Baselines.Annotations.warehouse);
  ]

let updates_of specs rels =
  List.map (fun (src, rel) -> (src, rel, specs rel)) rels

let catalogue =
  [
    {
      sc_name = "fig1";
      sc_doc = "Figure 1: T over R and S (Examples 2.1-2.3)";
      sc_make = (fun ~seed -> make_fig1 ~seed ());
      (* Example 2.1 is already the fully materialized extreme *)
      sc_annotations =
        [ ("ex21", ann_ex21); ("ex22", ann_ex22); ("ex23", ann_ex23) ]
        @ List.tl extremes;
      sc_updates = updates_of fig1_update_specs [ ("db1", "R"); ("db2", "S") ];
      sc_query = ("T", [ "r1"; "r3"; "s1"; "s2" ]);
    };
    {
      sc_name = "retail";
      sc_doc = "Retail: union of regional orders joined with customers";
      sc_make = (fun ~seed -> make_retail ~seed ());
      sc_annotations = ("hybrid", ann_retail_hybrid) :: extremes;
      sc_updates =
        updates_of retail_update_specs
          [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW"); ("dbCust", "Cust") ];
      sc_query = ("Premium", [ "cust"; "region"; "amt" ]);
    };
    {
      sc_name = "federated";
      sc_doc = "Federated retail: west region aligned by attribute renaming";
      sc_make = (fun ~seed -> make_federated ~seed ());
      sc_annotations = extremes;
      sc_updates =
        updates_of federated_update_specs
          [ ("dbEast", "OrdersE"); ("dbWest", "OrdersW") ];
      sc_query = ("AllOrders", [ "oid"; "cust"; "amt" ]);
    };
    {
      sc_name = "ex51";
      sc_doc = "Example 5.1 / Figure 4: exports E and G over A,B,C,D";
      sc_make = (fun ~seed -> make_ex51 ~seed ());
      sc_annotations = ("paper", ann_ex51) :: extremes;
      sc_updates =
        updates_of ex51_update_specs
          [ ("dbA", "A"); ("dbB", "B"); ("dbC", "C"); ("dbD", "D") ];
      sc_query = ("E", [ "a1"; "a2"; "b1" ]);
    };
  ]

let find name = List.find_opt (fun sc -> String.equal sc.sc_name name) catalogue
let annotation sc name = List.assoc_opt name sc.sc_annotations
