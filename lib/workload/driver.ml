open Relalg
open Delta
open Sim
open Sources
open Squirrel

type update_load = {
  u_relation : string;
  u_interval : float;
  u_count : int;
  u_delete_fraction : float;
  u_specs : Datagen.column_spec list;
}

let single_insert src relation tuple =
  let schema = Adapter.schema src relation in
  let current = Adapter.current src relation in
  let d = Rel_delta.empty schema in
  (* keyed relations: inserting an existing key replaces the old row *)
  let d =
    match Schema.key schema with
    | [] -> d
    | key ->
      let key_vals = List.map (Tuple.get tuple) key in
      Bag.fold
        (fun t m acc ->
          if List.map (Tuple.get t) key = key_vals then
            Rel_delta.delete ~mult:m acc t
          else acc)
        current d
  in
  Multi_delta.singleton relation (Rel_delta.insert d tuple)

let single_delete src relation tuple =
  let schema = Adapter.schema src relation in
  Multi_delta.singleton relation
    (Rel_delta.delete (Rel_delta.empty schema) tuple)

let update_process ?(start = 0.0) ~rng ~src load =
  let engine = Source_db.engine (Adapter.db src) in
  let schema = Adapter.schema src load.u_relation in
  let next_key = ref 1_000_000 in
  let one_commit () =
    let current = Adapter.current src load.u_relation in
    let deleting =
      Random.State.float rng 1.0 < load.u_delete_fraction
      && not (Bag.is_empty current)
    in
    if deleting then
      match Datagen.pick rng (Bag.support current) with
      | Some victim ->
        Adapter.commit src (single_delete src load.u_relation victim)
      | None -> ()
    else begin
      let tuple =
        if Schema.has_key schema then begin
          incr next_key;
          Datagen.keyed_tuple rng schema load.u_specs ~key_seed:!next_key
        end
        else Datagen.tuple rng load.u_specs
      in
      Adapter.commit src (single_insert src load.u_relation tuple)
    end
  in
  Engine.spawn engine (fun () ->
      if start > 0.0 then Engine.sleep engine start;
      for _ = 1 to load.u_count do
        Engine.sleep engine load.u_interval;
        one_commit ()
      done)

type query_load = {
  q_node : string;
  q_interval : float;
  q_count : int;
  q_attr_sets : (string list * Predicate.t) list;
}

let query_process ?(start = 0.0) ~rng ~med load =
  let engine = (med : Mediator.t).Med.engine in
  Engine.spawn engine (fun () ->
      if start > 0.0 then Engine.sleep engine start;
      for _ = 1 to load.q_count do
        Engine.sleep engine load.q_interval;
        match Datagen.pick rng load.q_attr_sets with
        | None -> ()
        | Some (attrs, cond) ->
          ignore (Mediator.query med ~node:load.q_node ~attrs ~cond () : Qp.answer)
      done)
