open Relalg
open Sim
open Sources
open Vdp

exception Scenario_error of string

let err fmt = Format.kasprintf (fun s -> raise (Scenario_error s)) fmt

type compiled = {
  c_env : Scenario.env;
  c_annotation : Annotation.t;
  c_exports : string list;
  c_decl : Parser.scenario_decl;
}

let announce_of = function
  | Parser.Ann_immediate -> Source_db.Immediate
  | Parser.Ann_periodic t -> Source_db.Periodic t
  | Parser.Ann_never -> Source_db.Never

let backend_of decl =
  match decl.Parser.sd_backend with
  | "relational" -> `Relational
  | "triple" -> `Triple
  | b ->
    err "source %S: unknown backend %S (try: relational, triple)"
      decl.Parser.sd_name b

(* positional tuple literal -> named tuple; the bag that receives it
   checks its value types *)
let tuple_of_values rel schema values =
  let attrs = Schema.attrs schema in
  if List.length values <> List.length attrs then
    err "relation %S takes %d values per tuple, got %d" rel
      (List.length attrs) (List.length values);
  Tuple.of_list (List.combine attrs values)

let owner_of decl rel =
  match
    List.find_opt
      (fun sd -> List.mem_assoc rel sd.Parser.sd_relations)
      decl.Parser.sc_sources
  with
  | Some sd -> sd
  | None -> err "no declared source holds relation %S" rel

let compile ?(engine = Engine.create ()) (decl : Parser.scenario_decl) =
  (* duplicate relation names across sources would make [owner_of]
     ambiguous — reject them up front *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun sd ->
      List.iter
        (fun (rel, _) ->
          (match Hashtbl.find_opt seen rel with
          | Some other ->
            err "relation %S is declared by both %S and %S" rel other
              sd.Parser.sd_name
          | None -> ());
          Hashtbl.replace seen rel sd.Parser.sd_name)
        sd.Parser.sd_relations)
    decl.Parser.sc_sources;
  (* sources, by declared backend *)
  let adapters =
    List.map
      (fun sd ->
        Scenario.mk_source ~backend:(backend_of sd) ~engine
          ~name:sd.Parser.sd_name ~relations:sd.Parser.sd_relations
          ~announce:(announce_of sd.Parser.sd_announce) ())
      decl.Parser.sc_sources
  in
  let adapter_of name =
    List.find (fun a -> String.equal (Adapter.name a) name) adapters
  in
  (* initial loads (version-0 state, before any commit) *)
  List.iter
    (fun (rel, rows) ->
      let sd = owner_of decl rel in
      let schema = List.assoc rel sd.Parser.sd_relations in
      let bag =
        try Bag.of_tuples schema (List.map (tuple_of_values rel schema) rows)
        with Bag.Bag_error _ ->
          err "a %S tuple does not match the declared schema (check value types)"
            rel
      in
      Adapter.load (adapter_of sd.Parser.sd_name) rel bag)
    decl.Parser.sc_loads;
  (* the VDP, through the ordinary Builder *)
  let source_of rel =
    List.find_map
      (fun sd ->
        if List.mem_assoc rel sd.Parser.sd_relations then
          Some sd.Parser.sd_name
        else None)
      decl.Parser.sc_sources
  in
  let schema_of rel =
    List.find_map
      (fun sd -> List.assoc_opt rel sd.Parser.sd_relations)
      decl.Parser.sc_sources
  in
  let b = Builder.create ~source_of ~schema_of () in
  List.iter
    (fun (name, def) ->
      try Builder.add_export b ~name def
      with Builder.Builder_error msg -> err "view %S: %s" name msg)
    decl.Parser.sc_views;
  let vdp = try Builder.build b with Builder.Builder_error msg -> err "%s" msg in
  (* annotation: advisor when [annotate auto], else fully materialized;
     per-node hints override either way *)
  let base =
    if decl.Parser.sc_auto_annotate then
      fst (Advisor.advise vdp Advisor.uniform_profile)
    else Annotation.fully_materialized vdp
  in
  let c_annotation =
    List.fold_left
      (fun ann (node, hint) ->
        let n =
          match Graph.node_opt vdp node with
          | Some n -> n
          | None -> err "annotate: no view or node named %S" node
        in
        let mark =
          match hint with
          | Parser.Hint_materialized -> Annotation.M
          | Parser.Hint_virtual -> Annotation.V
        in
        Annotation.with_node ann vdp node
          (List.map (fun a -> (a, mark)) (Schema.attrs n.Graph.schema)))
      base decl.Parser.sc_hints
  in
  (* timed update events become scheduled single-atom commits at the
     owning source *)
  List.iter
    (fun ev ->
      let sd = owner_of decl ev.Parser.ev_relation in
      let schema = List.assoc ev.Parser.ev_relation sd.Parser.sd_relations in
      let tuple = tuple_of_values ev.Parser.ev_relation schema ev.Parser.ev_tuple in
      let src = adapter_of sd.Parser.sd_name in
      Engine.schedule engine ~delay:ev.Parser.ev_time (fun () ->
          let md =
            if ev.Parser.ev_insert then
              Driver.single_insert src ev.Parser.ev_relation tuple
            else Driver.single_delete src ev.Parser.ev_relation tuple
          in
          Adapter.commit src md))
    decl.Parser.sc_events;
  {
    c_env = Scenario.make_env ~engine ~vdp adapters;
    c_annotation;
    c_exports = List.map fst decl.Parser.sc_views;
    c_decl = decl;
  }

let of_string ?engine text = compile ?engine (Parser.scenario text)

let of_file ?engine path =
  let ic =
    try open_in path with Sys_error msg -> err "cannot read %s: %s" path msg
  in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  try of_string ?engine text
  with Parser.Parse_error msg -> err "%s: %s" path msg
