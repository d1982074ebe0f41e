open Relalg
open Delta

exception Table_error of string

let err fmt = Format.kasprintf (fun s -> raise (Table_error s)) fmt

type t = {
  name : string;
  schema : Schema.t;
  mutable bag : Bag.t;
  mutable indexes : Hash_index.t list;
}

let create ?(indexes = []) ~name schema =
  (* every key attribute is indexed, so a condition naming part of a
     composite key probes instead of scanning *)
  let columns = List.sort_uniq String.compare (Schema.key schema @ indexes) in
  List.iter
    (fun a ->
      if not (Schema.mem schema a) then
        err "index on unknown attribute %S of table %s" a name)
    columns;
  {
    name;
    schema;
    bag = Bag.empty schema;
    indexes = List.map Hash_index.create columns;
  }

let name t = t.name
let schema t = t.schema

let insert ?(mult = 1) t tuple =
  t.bag <- Bag.add ~mult t.bag tuple;
  List.iter (fun ix -> Hash_index.add ix tuple mult) t.indexes

let delete ?(mult = 1) t tuple =
  let present = Bag.mult t.bag tuple in
  if present > 0 then begin
    let removed = min mult present in
    t.bag <- Bag.remove ~mult:removed t.bag tuple;
    List.iter (fun ix -> Hash_index.remove ix tuple removed) t.indexes
  end

(* built in bulk: the bag's own storage and presized indexes, not a
   persistent add and an index update per tuple *)
let load t bag =
  t.bag <- Bag.retype t.schema bag;
  t.indexes <-
    List.map (fun ix -> Hash_index.of_bag (Hash_index.on ix) t.bag) t.indexes

let contents t = t.bag

let apply_delta t delta =
  Rel_delta.fold
    (fun tuple m () ->
      if m > 0 then insert ~mult:m t tuple else delete ~mult:(-m) t tuple)
    delta ()

let support_cardinal t = Bag.support_cardinal t.bag
let mult t tuple = Bag.mult t.bag tuple

let find_index t attr =
  List.find_opt (fun ix -> Hash_index.on ix = attr) t.indexes

let has_index_on t attr = Option.is_some (find_index t attr)

let probe t attr value f =
  match find_index t attr with
  | None -> err "probe: no index on %s of table %s" attr t.name
  | Some ix ->
    Eval.charge_tuple_ops 1;
    Hash_index.probe ix value f

(* the index on [col], looked up per call: [load] replaces a table's
   indexes, so a prepared join holds the column, not the index *)
let rec index_on col = function
  | [] -> raise Not_found
  | ix :: rest -> if String.equal (Hash_index.on ix) col then ix else index_on col rest

(* [delta_join t ~left] prepares the signed join [d ⋈ contents t] for
   deltas [d] over [left], computed by probing [t]'s persistent index on
   one join-key column: one probe per delta atom instead of rebuilding a
   key table over the whole stored bag. Everything but the delta is
   fixed here: the key column and its extractor, the compiled residual
   and the tuple merger. With several join keys, the merge (which checks
   shared attributes) and the residual drop the rows that disagree on
   the others. [None] when no join-key column is indexed — the caller
   joins generically. Sound during IUP propagation because table
   mutations are deferred until after the kernel pass, so probes see
   the pre-update state. *)
let delta_join t ~left ?(on = Predicate.True) ?test ?filter () =
  let left_keys, right_keys = Bag.join_keys left t.schema on in
  match
    List.find_opt
      (fun (_, b) -> Option.is_some (find_index t b))
      (List.combine left_keys right_keys)
  with
  | None -> None
  | Some (a, col) ->
    let key = Tuple.keyer1 a in
    let out_schema = Schema.join left t.schema in
    let keep = match filter with Some f -> f | None -> fun _ -> true in
    let residual =
      match test with Some f -> f | None -> Predicate.compile on
    in
    let merge = Tuple.merger () in
    Some
      (fun d ->
        let ix = index_on col t.indexes in
        Rel_delta.collect out_schema ~size:(Rel_delta.support_cardinal d)
          (fun add ->
            Rel_delta.fold
              (fun ta ma () ->
                Eval.charge_tuple_ops 1;
                Hash_index.probe ix (key ta) (fun tb mb ->
                    if keep tb then
                      match merge ta tb with
                      | None -> ()
                      | Some merged ->
                        if residual merged then add merged (ma * mb)))
              d ()))

type index_stats = { ix_on : string; ix_distinct : int; ix_max_chain : int }
type stats = { st_rows : int; st_support : int; st_indexes : index_stats list }

let index_stats ix =
  {
    ix_on = Hash_index.on ix;
    ix_distinct = Hash_index.distinct ix;
    ix_max_chain = Hash_index.max_chain ix;
  }

let stats t =
  {
    st_rows = Bag.cardinal t.bag;
    st_support = Bag.support_cardinal t.bag;
    st_indexes = List.map index_stats t.indexes;
  }

let pp_stats fmt s =
  Format.fprintf fmt "rows=%d support=%d" s.st_rows s.st_support;
  List.iter
    (fun ix ->
      Format.fprintf fmt " idx(%s){distinct=%d max_chain=%d}" ix.ix_on
        ix.ix_distinct ix.ix_max_chain)
    s.st_indexes

let bytes_estimate t =
  Bag.cardinal t.bag * Schema.arity t.schema * 8
