open Relalg
open Delta
open Storage
open Sim

exception Source_error of string

let err fmt = Format.kasprintf (fun s -> raise (Source_error s)) fmt

type announce_mode = Immediate | Periodic of float | Never
type outage_mode = Refuse | Black_hole

type poll_error =
  | Unavailable of { u_source : string; u_until : float option }
  | Timed_out of { t_source : string; t_timeout : float }

type key = { k_column : string; k_values : Value.t list }

(* A definition over one relation compiled once: its select/project/
   rename chain, resolved at the first poll and extended by each
   request's filter and projection, its output schema, and the schema
   of each attribute list a request has asked for. *)
type prepared = {
  p_source : string;
  p_relation : string;
  p_chain : Plan.chain;
  p_bare : bool; (* the definition is the relation itself *)
  p_schema : Schema.t;
  mutable p_projections : (string list * Schema.t) list;
}

type request = {
  rq_prepared : prepared;
  rq_attrs : string list option;
  rq_cond : Predicate.t;
  rq_key : key option;
}

type link = {
  channel : Message.t Channel.t;
  q_proc_delay : float;
  comm_delay : float;
}

type t = {
  engine : Engine.t;
  name : string;
  schemas : (string * Schema.t) list;
  mutable tables : (string * Bag.t) list;
  mutable indexes : ((string * string) * Hash_index.t) list;
      (* declared (relation, column) -> index of the current bag, for
         keyed polls *)
  mutable version : int;
  mutable history : (float * int * (string * Bag.t) list) list; (* newest first *)
  announce : announce_mode;
  mutable pending : Multi_delta.t;
  mutable pending_version : int; (* version after last staged commit *)
  mutable pending_commit_time : float;
  mutable announced_version : int; (* last version covered by a message *)
  mutable filters : (string * (string list * Predicate.t)) list;
  mutable link : link option;
  mutable polls : int;
  mutable poll_failures : int;
  mutable scanned_keys : int; (* keys served without a declared index *)
  mutable outages : (float * float) list; (* [start, stop) windows *)
  mutable outage_mode : outage_mode;
  mutable released : int; (* lowest version any consumer may still need *)
}

let create ~engine ~name ~relations ~announce () =
  let tables = List.map (fun (n, s) -> (n, Bag.empty s)) relations in
  {
    engine;
    name;
    schemas = relations;
    tables;
    indexes = [];
    version = 0;
    history = [ (Engine.now engine, 0, tables) ];
    announce;
    pending = Multi_delta.empty;
    pending_version = 0;
    pending_commit_time = Engine.now engine;
    announced_version = 0;
    filters = [];
    link = None;
    polls = 0;
    poll_failures = 0;
    scanned_keys = 0;
    outages = [];
    outage_mode = Refuse;
    released = 0;
  }

let name t = t.name
let engine t = t.engine
let relation_names t = List.map fst t.schemas
let announce_mode t = t.announce
let announces t = t.announce <> Never

(* Delay accessors for the Theorem 7.2 bound: the a-priori f̄ is built
   from exactly the delays this simulation models. *)
let ann_delay t =
  match t.announce with
  | Immediate -> 0.0
  | Periodic p -> p
  | Never -> Float.infinity

let comm_delay t =
  match t.link with Some l -> l.comm_delay | None -> 0.0

let q_proc_delay t =
  match t.link with Some l -> l.q_proc_delay | None -> 0.0

let schema t rel =
  match List.assoc_opt rel t.schemas with
  | Some s -> s
  | None -> err "source %s has no relation %S" t.name rel

let current t rel =
  match List.assoc_opt rel t.tables with
  | Some b -> b
  | None -> err "source %s has no relation %S" t.name rel

let version t = t.version

let set_filter t ~relation ~attrs ~cond =
  let schema = schema t relation in
  List.iter
    (fun a ->
      if not (Schema.mem schema a) then
        err "set_filter: %S has no attribute %S" relation a)
    (attrs @ Predicate.attrs cond);
  t.filters <- (relation, (attrs, cond)) :: List.remove_assoc relation t.filters

let filter_delta t rel d =
  match List.assoc_opt rel t.filters with
  | None -> d
  | Some (attrs, cond) -> Rel_delta.project attrs (Rel_delta.select cond d)

(* history entries below the release watermark — the lowest version a
   mediator whose reflected version has moved on may still poll or
   check against — can no longer be asked for: drop them *)
let prune_history t =
  if t.released > 0 then
    t.history <- List.filter (fun (_, v, _) -> v >= t.released) t.history

let release t ~upto =
  if upto > t.released then begin
    t.released <- min upto t.version;
    prune_history t
  end

let flush_announcements t =
  match t.link with
  | None -> ()
  | Some link ->
    if t.announce <> Never && t.pending_version > t.announced_version then begin
      Channel.send link.channel
        (Message.Update
           {
             source = t.name;
             prev_version = t.announced_version;
             version = t.pending_version;
             commit_time = t.pending_commit_time;
             send_time = Engine.now t.engine;
             delta = t.pending;
           });
      t.announced_version <- t.pending_version;
      t.pending <- Multi_delta.empty
    end

let connect t ~comm_delay ~q_proc_delay handler =
  if Option.is_some t.link then err "source %s already connected" t.name;
  let channel = Channel.create t.engine ~delay:comm_delay handler in
  t.link <- Some { channel; q_proc_delay; comm_delay };
  match t.announce with
  | Periodic period ->
    let rec announcer () =
      Engine.sleep t.engine period;
      flush_announcements t;
      announcer ()
    in
    Engine.spawn t.engine announcer
  | Immediate | Never -> ()

let load t rel bag =
  if t.version <> 0 then err "source %s: load after first commit" t.name;
  ignore (schema t rel);
  t.tables <- (rel, bag) :: List.remove_assoc rel t.tables;
  t.indexes <-
    List.map
      (fun (((r, col) as rc), ix) ->
        if String.equal r rel then (rc, Hash_index.of_bag col bag) else (rc, ix))
      t.indexes;
  (* version 0 snapshot reflects the loads *)
  t.history <- [ (Engine.now t.engine, 0, t.tables) ]

let commit t delta =
  List.iter
    (fun rel ->
      if not (List.mem_assoc rel t.schemas) then
        err "source %s: delta mentions unknown relation %S" t.name rel)
    (Multi_delta.relations delta);
  t.tables <-
    List.map
      (fun (rel, bag) ->
        match Multi_delta.find delta rel with
        | Some d -> (rel, Rel_delta.apply bag d)
        | None -> (rel, bag))
      t.tables;
  (* Hash_index.remove is monus like Bag.remove, so replaying the
     signed atoms leaves every count equal to the new multiplicity *)
  List.iter
    (fun ((rel, _), ix) ->
      match Multi_delta.find delta rel with
      | Some d ->
        Rel_delta.fold
          (fun tuple m () ->
            if m > 0 then Hash_index.add ix tuple m
            else Hash_index.remove ix tuple (-m))
          d ()
      | None -> ())
    t.indexes;
  t.version <- t.version + 1;
  let now = Engine.now t.engine in
  t.history <- (now, t.version, t.tables) :: t.history;
  prune_history t;
  let staged =
    List.fold_left
      (fun acc rel ->
        match Multi_delta.find delta rel with
        | Some d ->
          let filtered = filter_delta t rel d in
          if Rel_delta.is_empty filtered then acc
          else Multi_delta.add acc rel filtered
        | None -> acc)
      Multi_delta.empty
      (Multi_delta.relations delta)
  in
  t.pending <- Multi_delta.smash t.pending staged;
  t.pending_version <- t.version;
  t.pending_commit_time <- now;
  match t.announce with
  | Immediate -> flush_announcements t
  | Periodic _ | Never -> ()

let set_outages t ?(mode = Refuse) windows =
  List.iter
    (fun (start, stop) ->
      if stop < start then err "set_outages: window [%g, %g) is empty" start stop)
    windows;
  t.outage_mode <- mode;
  t.outages <- windows

let is_down t =
  let now = Engine.now t.engine in
  List.exists (fun (start, stop) -> start <= now && now < stop) t.outages

let down_until t =
  let now = Engine.now t.engine in
  List.fold_left
    (fun acc (start, stop) ->
      if start <= now && now < stop then
        Some (match acc with Some u -> Float.max u stop | None -> stop)
      else acc)
    None t.outages

let prepare t ?(keys = []) expr =
  let steps, below = Plan.peel [] expr in
  let rel =
    match below with
    | Expr.Base rel -> rel
    | _ ->
      err "prepare: %s is not a select/project/rename chain over one relation"
        (Expr.to_string expr)
  in
  let rel_schema = schema t rel in
  let out =
    try Expr.schema_of (fun _ -> rel_schema) expr
    with Expr.Expr_error msg | Schema.Schema_error msg -> err "prepare: %s" msg
  in
  List.iter
    (fun col ->
      if not (Schema.mem rel_schema col) then
        err "prepare: %S has no attribute %S" rel col)
    keys;
  (* a key column's index is built once, in bulk, from the current
     relation; {!commit} keeps it in step and {!load} rebuilds it *)
  List.iter
    (fun col ->
      if not (List.mem_assoc (rel, col) t.indexes) then
        t.indexes <- ((rel, col), Hash_index.of_bag col (current t rel)) :: t.indexes)
    keys;
  {
    p_source = t.name;
    p_relation = rel;
    p_chain = Plan.chain steps;
    p_bare = steps = [];
    p_schema = out;
    p_projections = [];
  }

let indexed t = List.sort compare (List.map fst t.indexes)
let scanned_keys t = t.scanned_keys

(* the schema of the request's projection onto [attrs], derived once
   per attribute list *)
let rec find_projection attrs = function
  | [] -> None
  | (a, schema) :: rest ->
    if List.equal String.equal a attrs then Some schema
    else find_projection attrs rest

let projection p attrs =
  match find_projection attrs p.p_projections with
  | Some schema -> schema
  | None ->
    let schema = Schema.project p.p_schema attrs in
    p.p_projections <- (attrs, schema) :: p.p_projections;
    schema

(* The answer to [π_attrs σ_cond def] over the current relation: the
   prepared chain, extended by the request's filter and projection,
   run as one pass into one builder that receives only the output
   rows, charging one tuple op per row for each step it reaches. A key restricts the rows read to those whose column
   equals a key value, charged one tuple op per key. A comparison never
   matches Null, so it is not a key, and values equal under Value.equal
   (Int 1, Float 1.) are one key. The rows are the probed chains of
   the column's index when a {!prepare} declared it; without one, a
   scan of the relation finds the same rows at the same charge, so a
   declaration changes the host's work and never the answer or the
   simulated cost. With at least as many keys as the relation has
   distinct rows (probing would cost more than reading), the poll reads
   the whole relation, which the request's condition filters by the
   same keys. *)
let rec index_on rel col = function
  | [] -> None
  | ((r, c), ix) :: rest ->
    if String.equal r rel && String.equal c col then Some ix
    else index_on rel col rest

let answer t rq =
  let p = rq.rq_prepared in
  if not (String.equal p.p_source t.name) then
    err "source %s: request prepared by source %s" t.name p.p_source;
  let rel = current t p.p_relation in
  let key =
    match rq.rq_key with
    | None -> None
    | Some k ->
      if not (Schema.mem (schema t p.p_relation) k.k_column) then
        err "keyed poll: %S has no attribute %S" p.p_relation k.k_column;
      let keys = Predicate.normalize_keys k.k_values in
      if List.compare_length_with keys (Bag.support_cardinal rel) >= 0 then None
      else begin
        Eval.charge_tuple_ops (List.length keys);
        Some { k with k_values = keys }
      end
  in
  let filter =
    if Predicate.equal rq.rq_cond Predicate.True then []
    else [ Plan.Filter rq.rq_cond ]
  in
  let schema, tail =
    match rq.rq_attrs with
    | None -> (p.p_schema, filter)
    | Some attrs -> (projection p attrs, filter @ [ Plan.Project attrs ])
  in
  (* the rows read, streamed through the chain into one answer, whose
     builder grows with the answer: sizing a scan's from the relation
     would allocate for every row the chain drops *)
  let stream ?size rows =
    let bu = Bag.builder ?size schema in
    rows
      (Plan.feed (Plan.chain ~prefix:p.p_chain tail) (fun tuple m ->
           Bag.badd bu tuple m));
    Bag.seal bu
  in
  match key with
  | None when tail = [] && p.p_bare ->
    rel (* the relation itself, uncharged *)
  | None -> stream (fun emit -> Bag.iter emit rel)
  | Some { k_column = col; k_values = keys } -> (
    match index_on p.p_relation col t.indexes with
    | Some ix ->
      stream ~size:(List.length keys) (fun emit ->
          List.iter (fun v -> Hash_index.probe ix v emit) keys)
    | None ->
      t.scanned_keys <- t.scanned_keys + 1;
      let wanted = Value.Tbl.create 16 in
      List.iter (fun v -> Value.Tbl.replace wanted v ()) keys;
      stream (fun emit ->
          Bag.iter
            (fun tuple m ->
              if Value.Tbl.mem wanted (Tuple.get tuple col) then emit tuple m)
            rel))

let try_poll t ?timeout requests =
  match t.link with
  | None -> err "source %s: poll before connect" t.name
  | Some link ->
    let started = Engine.now t.engine in
    (* request travels to the source *)
    Engine.sleep t.engine link.comm_delay;
    if is_down t then begin
      t.poll_failures <- t.poll_failures + 1;
      match t.outage_mode with
      | Refuse ->
        (* a refusal travels back immediately — a fast failure *)
        Engine.sleep t.engine link.comm_delay;
        Error (Unavailable { u_source = t.name; u_until = down_until t })
      | Black_hole -> (
        (* the request vanishes; the poller only learns by timeout *)
        match timeout with
        | Some tmo ->
          let remaining = tmo -. (Engine.now t.engine -. started) in
          if remaining > 0.0 then Engine.sleep t.engine remaining;
          Error (Timed_out { t_source = t.name; t_timeout = tmo })
        | None ->
          err
            "source %s: black-hole outage poll without a timeout would \
             deadlock"
            t.name)
    end
    else begin
      (* the source waits out its processing time *)
      Engine.sleep t.engine link.q_proc_delay;
      (* from here to the send the source acts atomically: the flush
         (ECA precondition — the answer must not reflect updates the
         mediator cannot see), the evaluation, and the version stamp
         all observe the same state, and FIFO delivery puts the
         flushed announcement ahead of the answer *)
      flush_announcements t;
      t.polls <- t.polls + 1;
      let results = List.map (fun (label, rq) -> (label, answer t rq)) requests in
      let answer =
        {
          Message.answer_source = t.name;
          answer_version = t.version;
          state_time = Engine.now t.engine;
          results;
        }
      in
      let ivar = Engine.Ivar.create () in
      Channel.send link.channel (Message.Answer (ivar, answer));
      match timeout with
      | None -> Ok (Engine.Ivar.read t.engine ivar)
      | Some tmo -> (
        let remaining = tmo -. (Engine.now t.engine -. started) in
        if remaining <= 0.0 then begin
          t.poll_failures <- t.poll_failures + 1;
          Error (Timed_out { t_source = t.name; t_timeout = tmo })
        end
        else
          match Engine.Ivar.read_timeout t.engine ivar ~timeout:remaining with
          | Some a -> Ok a
          | None ->
            (* the answer was delayed past the deadline or lost on the
               channel *)
            t.poll_failures <- t.poll_failures + 1;
            Error (Timed_out { t_source = t.name; t_timeout = tmo }))
    end

let poll_error_to_string = function
  | Unavailable { u_source; u_until } ->
    Printf.sprintf "source %s unavailable%s" u_source
      (match u_until with
      | Some u -> Printf.sprintf " (until %g)" u
      | None -> "")
  | Timed_out { t_source; t_timeout } ->
    Printf.sprintf "poll of %s timed out after %g" t_source t_timeout

let history t = List.rev t.history

let state_at_version t v =
  match List.find_opt (fun (_, v', _) -> v' = v) t.history with
  | Some (_, _, state) -> state
  | None -> err "source %s has no version %d" t.name v

let commit_time_of_version t v =
  match List.find_opt (fun (_, v', _) -> v' = v) t.history with
  | Some (time, _, _) -> time
  | None -> err "source %s has no version %d" t.name v

let next_commit_time_after t v =
  (* history is newest-first *)
  let rec scan = function
    | (time, v', _) :: rest ->
      if v' = v + 1 then Some time else if v' <= v then None else scan rest
    | [] -> None
  in
  scan t.history

let polls_served t = t.polls
let poll_failures t = t.poll_failures

let channel t = Option.map (fun l -> l.channel) t.link

let with_channel t f =
  match t.link with
  | None -> err "source %s: not connected" t.name
  | Some l -> f l.channel

let set_channel_policy t policy =
  with_channel t (fun ch -> Channel.set_policy ch policy)

let set_link_up t up = with_channel t (fun ch -> Channel.set_link ch ~up)
let in_flight t = match t.link with None -> 0 | Some l -> Channel.in_flight l.channel
