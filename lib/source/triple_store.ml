open Relalg
open Delta

(* Native state: entities (id -> classification + rendered tuple) and,
   per relation, a reverse index from rendered tuple to the stack of
   live entity ids rendering to it — the stack depth IS the export
   bag's multiplicity for that tuple, which is what makes the
   relational façade and the native state provably aligned: every
   mutation updates both in the same step. *)
type t = {
  db : Source_db.t;
  mutable next_id : int;
  entities : (int, string * Tuple.t) Hashtbl.t;
  index : (string, int list Tuple.Tbl.t) Hashtbl.t;
}

let create ~engine ~name ~relations ~announce () =
  let db = Source_db.create ~engine ~name ~relations ~announce () in
  let index = Hashtbl.create (List.length relations) in
  List.iter (fun (rel, _) -> Hashtbl.replace index rel (Tuple.Tbl.create 64))
    relations;
  { db; next_id = 0; entities = Hashtbl.create 64; index }

let name t = Source_db.name t.db
let source_db t = t.db
let index_of t relation =
  match Hashtbl.find_opt t.index relation with
  | Some idx -> idx
  | None -> Source_db.err "triple store %s has no relation %S" (name t) relation

(* Assert/retract against the NATIVE state only (no export commit):
   the building blocks shared by the native mutations and the
   relational [commit]. *)
let assert_entity t ~relation tuple =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.entities id (relation, tuple);
  let idx = index_of t relation in
  let stack = Option.value ~default:[] (Tuple.Tbl.find_opt idx tuple) in
  Tuple.Tbl.replace idx tuple (id :: stack);
  id

let retract_tuple t ~relation tuple =
  let idx = index_of t relation in
  match Tuple.Tbl.find_opt idx tuple with
  | Some (id :: rest) ->
    Hashtbl.remove t.entities id;
    if rest = [] then Tuple.Tbl.remove idx tuple
    else Tuple.Tbl.replace idx tuple rest
  | Some [] | None -> assert false (* [validate] counted the stack *)

(* [checker t ~relation] checks tuples against [relation]'s export
   schema, its slot plan resolved once *)
let checker t ~relation =
  let shape = Tuple.shape (Source_db.schema t.db relation) in
  fun tuple ->
    if not (Tuple.fits shape tuple) then
      Source_db.err
        "triple store %s: properties %s do not render into %S's export schema"
        (name t) (Tuple.to_string tuple) relation

(* --- native mutations (each = one export version) --------------------- *)

let put t ~relation props =
  let tuple = Tuple.of_list props in
  checker t ~relation tuple;
  let id = assert_entity t ~relation tuple in
  let schema = Source_db.schema t.db relation in
  let d = Rel_delta.insert (Rel_delta.empty schema) tuple in
  Source_db.commit t.db (Multi_delta.singleton relation d);
  id

let delete t id =
  match Hashtbl.find_opt t.entities id with
  | None -> Source_db.err "triple store %s: no entity %d" (name t) id
  | Some (relation, tuple) ->
    Hashtbl.remove t.entities id;
    let idx = index_of t relation in
    (match Tuple.Tbl.find_opt idx tuple with
    | Some stack -> (
      match List.filter (fun id' -> id' <> id) stack with
      | [] -> Tuple.Tbl.remove idx tuple
      | rest -> Tuple.Tbl.replace idx tuple rest)
    | None -> ());
    let schema = Source_db.schema t.db relation in
    let d = Rel_delta.delete (Rel_delta.empty schema) tuple in
    Source_db.commit t.db (Multi_delta.singleton relation d)

let get t id =
  Option.map
    (fun (relation, tuple) -> (relation, Tuple.to_list tuple))
    (Hashtbl.find_opt t.entities id)

(* --- the relational face ---------------------------------------------- *)

(* Every tuple must render into its relation's schema, and every
   retraction must find enough live entities rendering its tuple. A
   delta that fails either check changes nothing, native or exported. *)
let validate t md =
  List.iter
    (fun (relation, d) ->
      let idx = index_of t relation in
      let check = checker t ~relation in
      Rel_delta.fold
        (fun tuple mult () ->
          check tuple;
          let live =
            List.length
              (Option.value ~default:[] (Tuple.Tbl.find_opt idx tuple))
          in
          if mult < 0 && live < -mult then
            Source_db.err "triple store %s: no entity renders %s in %S"
              (name t) (Tuple.to_string tuple) relation)
        d ())
    (Multi_delta.bindings md)

(* A relational delta becomes native asserts/retracts first, then ONE
   export commit of the whole multi-relation delta — the same version
   cadence a relational twin shows for the same transaction, which the
   differential test and reflect-vector comparisons rely on. *)
let commit t md =
  validate t md;
  List.iter
    (fun (relation, d) ->
      Rel_delta.fold
        (fun tuple mult () ->
          if mult > 0 then
            for _ = 1 to mult do
              ignore (assert_entity t ~relation tuple)
            done
          else
            for _ = 1 to -mult do
              retract_tuple t ~relation tuple
            done)
        d ())
    (Multi_delta.bindings md);
  Source_db.commit t.db md

(* every check precedes the first native change *)
let load t relation bag =
  let check = checker t ~relation in
  Bag.iter (fun tuple _ -> check tuple) bag;
  Source_db.load t.db relation bag;
  Bag.iter
    (fun tuple mult ->
      for _ = 1 to mult do
        ignore (assert_entity t ~relation tuple)
      done)
    bag
