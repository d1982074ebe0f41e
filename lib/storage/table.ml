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
  let key = Schema.key schema in
  (* a composite key also gets one index per key attribute, so a
     condition naming part of the key probes instead of scanning *)
  let index_specs =
    let key_specs =
      match key with
      | [] -> []
      | [ _ ] -> [ key ]
      | _ -> key :: List.map (fun a -> [ a ]) key
    in
    List.sort_uniq compare (key_specs @ indexes)
  in
  List.iter
    (fun spec ->
      List.iter
        (fun a ->
          if not (Schema.mem schema a) then
            err "index on unknown attribute %S of table %s" a name)
        spec)
    index_specs;
  {
    name;
    schema;
    bag = Bag.empty schema;
    indexes = List.map Hash_index.create index_specs;
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

let clear t =
  t.bag <- Bag.empty t.schema;
  List.iter Hash_index.reset t.indexes

(* built in bulk: one sealed bag and presized indexes, not a
   persistent add and an index update per tuple *)
let load t bag =
  let bu = Bag.builder ~size:(max 16 (Bag.support_cardinal bag)) t.schema in
  Bag.iter (fun tuple mult -> Bag.badd ~check:true bu tuple mult) bag;
  t.bag <- Bag.seal bu;
  t.indexes <-
    List.map (fun ix -> Hash_index.of_bag (Hash_index.on ix) t.bag) t.indexes

let contents t = t.bag

let apply_delta t delta =
  Rel_delta.fold
    (fun tuple m () ->
      if m > 0 then insert ~mult:m t tuple else delete ~mult:(-m) t tuple)
    delta ()

let cardinal t = Bag.cardinal t.bag
let support_cardinal t = Bag.support_cardinal t.bag
let mem t tuple = Bag.mem t.bag tuple
let mult t tuple = Bag.mult t.bag tuple

let has_index_on t attrs =
  List.exists (fun ix -> Hash_index.on ix = attrs) t.indexes

let find_index t attrs =
  List.find_opt (fun ix -> Hash_index.on ix = attrs) t.indexes

let probe_index ix values f =
  match Hash_index.probe ix values f with
  | () -> ()
  | exception Invalid_argument _ ->
    err "index probe: single-attribute index given %d values"
      (List.length values)

let probe t attrs values f =
  match find_index t attrs with
  | None ->
    err "probe: no index on (%s) of table %s" (String.concat ", " attrs) t.name
  | Some ix ->
    Eval.charge_tuple_ops 1;
    probe_index ix values f

let probe1 t attr value f =
  match find_index t [ attr ] with
  | None -> err "probe1: no index on %s of table %s" attr t.name
  | Some ix ->
    Eval.charge_tuple_ops 1;
    Hash_index.probe1 ix value f

let lookup t attrs values =
  if List.length attrs <> List.length values then
    err "lookup: %d attributes but %d values" (List.length attrs)
      (List.length values);
  List.iter
    (fun a ->
      if not (Schema.mem t.schema a) then
        err "lookup: unknown attribute %S of table %s" a t.name)
    attrs;
  match find_index t attrs with
  | Some ix ->
    Eval.charge_tuple_ops 1;
    let acc = ref (Bag.empty t.schema) in
    probe_index ix values (fun tuple m -> acc := Bag.add ~mult:m !acc tuple);
    !acc
  | None ->
    Eval.charge_tuple_ops (Bag.support_cardinal t.bag);
    let pred =
      Predicate.conj
        (List.map2
           (fun a v -> Predicate.eq (Predicate.attr a) (Predicate.Const v))
           attrs values)
    in
    Bag.select pred t.bag

(* [delta_join d t] = the signed join [d ⋈ contents t] computed by
   probing [t]'s persistent join-key index: one probe per delta atom
   instead of rebuilding a key table over the whole stored bag. [None]
   when no index matches the join keys — the caller falls back to the
   generic hash join. Sound during IUP propagation because table
   mutations are deferred until after the kernel pass, so probes see
   the pre-update state. *)
let delta_join ?(on = Predicate.True) ?filter d t =
  let dschema = Rel_delta.schema d in
  let left_keys, right_keys = Bag.join_keys dschema t.schema on in
  if right_keys = [] then None
  else
    match find_index t right_keys with
    | None -> None
  | Some ix ->
    let out = ref (Rel_delta.empty (Schema.join dschema t.schema)) in
    let keep = match filter with Some f -> f | None -> fun _ -> true in
    let combine ta ma tb mb =
      if not (keep tb) then ()
      else
      match Tuple.concat ta tb with
      | None -> ()
      | Some merged ->
        if Predicate.eval on merged then begin
          let m = ma * mb in
          out :=
            (if m > 0 then Rel_delta.insert ~mult:m !out merged
             else Rel_delta.delete ~mult:(-m) !out merged)
        end
    in
    (if Hash_index.is_single ix then
      let key1 =
        match left_keys with [ a ] -> Tuple.keyer1 a | _ -> assert false
      in
      let attr = List.hd right_keys in
      Rel_delta.fold
        (fun ta ma () ->
          probe1 t attr (key1 ta) (fun tb mb -> combine ta ma tb mb))
        d ()
    else
      let keyer = Tuple.keyer left_keys in
      Rel_delta.fold
        (fun ta ma () ->
          probe t right_keys (keyer ta) (fun tb mb -> combine ta ma tb mb))
        d ());
    Some !out

type index_stats = { ix_on : string list; ix_distinct : int; ix_max_chain : int }
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
      Format.fprintf fmt " idx(%s){distinct=%d max_chain=%d}"
        (String.concat "," ix.ix_on) ix.ix_distinct ix.ix_max_chain)
    s.st_indexes

let bytes_estimate t =
  Bag.cardinal t.bag * Schema.arity t.schema * 8

let pp fmt t = Format.fprintf fmt "table %s = %a" t.name Bag.pp t.bag
