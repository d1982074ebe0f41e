open Relalg
open Delta
open Sources

type t = { ms_name : string; ms_child : Med.t; ms_db : Source_db.t }

let name t = t.ms_name
let child t = t.ms_child
let source_db t = t.ms_db

(* The delta (possibly empty) between the mirror and the child's
   current export state. Exports are fully materialized (checked at
   create), so [store_env] is total over them. *)
let drift t =
  List.fold_left
    (fun acc (node, _) ->
      match Med.store_env t.ms_child node with
      | Some bag ->
        let d =
          Rel_delta.of_diff ~old_bag:(Source_db.current t.ms_db node)
            ~new_bag:bag
        in
        if Rel_delta.is_empty d then acc else Multi_delta.add acc node d
      | None -> acc)
    Multi_delta.empty
    (Med.export_schemas t.ms_child)

let commit_nonempty t delta =
  if not (Multi_delta.is_empty delta) then Source_db.commit t.ms_db delta

let create ?name (child : Med.t) =
  let exports = Med.export_schemas child in
  if not child.Med.initialized then
    Med.err
      "mediator-as-source: initialize the child before wrapping it (its \
       initialization snapshot publishes no export event)";
  (match exports with
  | [] -> Med.err "mediator-as-source: the child exports no relations"
  | _ -> ());
  List.iter
    (fun (node, schema) ->
      if not (Med.is_covered child ~node ~attrs:(Schema.attrs schema)) then
        Med.err
          "mediator-as-source: export %S is not fully materialized (a \
           virtual export has no store contents to mirror)"
          node)
    exports;
  let ms_name =
    match name with Some n -> n | None -> "med:" ^ fst (List.hd exports)
  in
  let ms_db =
    Source_db.create ~engine:child.Med.engine ~name:ms_name
      ~relations:exports ~announce:Source_db.Immediate ()
  in
  let t = { ms_name; ms_child = child; ms_db } in
  (* the mirror's version 0 is the child's current export state; from
     here on every export event keeps it exact *)
  List.iter
    (fun (node, _) ->
      match Med.store_env child node with
      | Some bag -> Source_db.load ms_db node bag
      | None -> ())
    exports;
  Med.subscribe_exports child (function
    | Med.Export_delta { ee_deltas; _ } ->
      (* one child update transaction = one mirror version; commit is
         non-blocking, as export subscribers must be *)
      commit_nonempty t
        (List.fold_left
           (fun acc (node, d) -> Multi_delta.add acc node d)
           Multi_delta.empty ee_deltas)
    | Med.Export_snapshot _ ->
      (* the child rebuilt its store: one computed delta brings the
         mirror to the rebuilt state *)
      commit_nonempty t (drift t));
  t
