open Relalg
open Delta
open Storage
open Sources

type contributor_kind =
  | Materialized_contributor
  | Hybrid_contributor
  | Virtual_contributor

type reflected = {
  r_version : int;
  r_commit_time : float;
  r_send_time : float;
}

(* Everything the ledger knows of one source; [head] is the last
   version {!walk} met for it. *)
type source = {
  name : string;
  kind : contributor_kind;
  closure : string list;
  mutable reflected : reflected;
  mutable seen : int;  (** highest announcement version received *)
  mutable dirty : bool;
  mutable observed : int;
      (** highest version observed, announcements and poll answers
          alike *)
  mutable head : int;
}

type cached = {
  mutable answer : Bag.t;
  polled : (string * int) list;
  polled_times : (string * float) list;
  trace_id : int option;
  scan : (Rel_delta.t -> Rel_delta.t) option;
  mutable absorbed : int;  (** delta atoms maintained since the last hit *)
}

type t = {
  sources : source array;
  queue : Message.update Queue.t;
  cache : (string * string list * Predicate.t, cached) Hashtbl.t;
}

let create sources =
  let at_zero = { r_version = 0; r_commit_time = 0.0; r_send_time = 0.0 } in
  {
    sources =
      Array.of_list
        (List.map
           (fun (name, kind, closure) ->
             {
               name;
               kind;
               closure;
               reflected = at_zero;
               seen = 0;
               dirty = false;
               observed = 0;
               head = 0;
             })
           sources);
    queue = Queue.create ();
    cache = Hashtbl.create 32;
  }

(* a handful of sources: a scan that allocates nothing beats hashing;
   -1 when the source is not tracked *)
let rec index sources name i =
  if i = Array.length sources then -1
  else if String.equal sources.(i).name name then i
  else index sources name (i + 1)

let find t name =
  let i = index t.sources name 0 in
  if i < 0 then invalid_arg ("Ledger: source " ^ name ^ " is not tracked")
  else t.sources.(i)

let contributor_kind t name =
  let i = index t.sources name 0 in
  if i < 0 then Virtual_contributor else t.sources.(i).kind

let reflected t name = (find t name).reflected

let reflect_vector t =
  Array.fold_right (fun s acc -> (s.name, s.reflected.r_version) :: acc) t.sources []

let dirty_sources t =
  Array.fold_right (fun s acc -> if s.dirty then s.name :: acc else acc) t.sources []

let queue_length t = Queue.length t.queue

(* drop the cached answers [doomed] picks; how many *)
let drop t doomed =
  if Hashtbl.length t.cache = 0 then 0
  else begin
    let n = ref 0 in
    Hashtbl.filter_map_inplace
      (fun key ca ->
        if doomed key ca then begin
          incr n;
          None
        end
        else Some ca)
      t.cache;
    !n
  end

let on_nodes nodes (n, _, _) = List.exists (String.equal n) nodes

(* every invalidated-class answer against one of the nodes *)
let invalidate_nodes t nodes =
  if nodes = [] then 0
  else drop t (fun key ca -> Option.is_none ca.scan && on_nodes nodes key)

(* a rise of the source's observed version supersedes every answer its
   closure can see *)
let observe t s version =
  if version > s.observed then begin
    s.observed <- version;
    invalidate_nodes t s.closure
  end
  else 0

(* an answer over the source's gap is not [Fresh]: the first mark drops
   every cached answer the source can reach, maintained ones included *)
let mark_dirty t s =
  if s.dirty then 0
  else begin
    s.dirty <- true;
    drop t (fun key _ -> on_nodes s.closure key)
  end

type outcome =
  | Duplicate
  | Clean
  | Dropped of int
  | Gap of { seen : int; dropped : int }

let enqueue t e =
  let s = find t e.Message.source in
  let seen = s.seen in
  if e.Message.version <= seen then Duplicate
  else begin
    (* the delta's predecessor never arrived: the queue no longer
       composes to the source's state *)
    let gap = e.Message.prev_version > seen in
    let dropped_by_gap = if gap then mark_dirty t s else 0 in
    s.seen <- e.Message.version;
    let dropped = dropped_by_gap + observe t s e.Message.version in
    Queue.add e t.queue;
    if gap then Gap { seen; dropped }
    else if dropped = 0 then Clean
    else Dropped dropped
  end

let observe_poll t name version =
  let s = find t name in
  let dropped = observe t s version in
  if s.kind <> Virtual_contributor && version <> s.seen then
    Gap { seen = s.seen; dropped = dropped + mark_dirty t s }
  else if dropped = 0 then Clean
  else Dropped dropped

type step = Covered | Chains | Breaks
type verdict = Leave | Stay | Stop

(* The one chain walk: the queue in order, each source's chain starting
   at its reflected version. An entry is [Covered] when the reflected
   version already holds it, [Chains] when it applies on top of the
   last entry the walk kept or took for its source, and [Breaks]
   otherwise (a lost predecessor). [visit] says whether the entry
   [Leave]s the queue, [Stay]s, or [Stop]s the walk with it and
   everything behind it in place. *)
let walk t visit =
  Array.iter (fun s -> s.head <- s.reflected.r_version) t.sources;
  let kept = Queue.create () in
  let rec go () =
    if not (Queue.is_empty t.queue) then begin
      let e = Queue.peek t.queue in
      let s = find t e.Message.source in
      let step =
        if e.Message.version <= s.reflected.r_version then Covered
        else if e.Message.prev_version <= s.head then Chains
        else Breaks
      in
      match visit s e step with
      | Stop -> ()
      | (Leave | Stay) as v ->
        ignore (Queue.take t.queue : Message.update);
        if step <> Covered then s.head <- e.Message.version;
        if v = Stay then Queue.add e kept;
        go ()
    end
  in
  go ();
  Queue.transfer t.queue kept;
  Queue.transfer kept t.queue

(* A dirty source's entries chain onto a lost delta, so the walk steps
   over them, leaving them in place until a snapshot repairs the
   source. *)
let take_batch t ~max =
  let taken = ref [] and n = ref 0 in
  walk t (fun s e step ->
      if !n >= max then Stop
      else if s.dirty then Stay
      else
        match step with
        | Covered -> Leave
        | Breaks -> Stop
        | Chains ->
          taken := e :: !taken;
          incr n;
          Leave);
  List.rev !taken

(* put [entries] back at the head of the queue, in order *)
let requeue t = function
  | [] -> ()
  | entries ->
    let front = Queue.of_seq (List.to_seq entries) in
    Queue.transfer t.queue front;
    Queue.transfer front t.queue

(* The snapshot's polls yield, so announcements kept arriving — one may
   reveal a new gap in a source already polled. The dirty set is
   recomputed from the surviving entries; a blanket clear would lose
   that repair. *)
let after_snapshot t versions =
  (* every cached answer predates the snapshot *)
  let dropped = Hashtbl.length t.cache in
  Hashtbl.reset t.cache;
  List.iter
    (fun (name, version, state_time) ->
      let s = find t name in
      s.reflected <-
        { r_version = version; r_commit_time = state_time; r_send_time = state_time };
      s.seen <- Int.max s.seen version;
      s.observed <- Int.max s.observed version)
    versions;
  Array.iter (fun s -> s.dirty <- false) t.sources;
  walk t (fun s _ step ->
      match step with
      | Covered -> Leave
      | Chains -> Stay
      | Breaks ->
        ignore (mark_dirty t s : int);
        Stay);
  dropped

type batch_effect = {
  intervals : (string * (int * int)) list;
  dropped : int;
  maintained_atoms : int;
}

(* the source's first and last entry in a batch *)
let rec first_and_last name = function
  | [] -> None
  | e :: rest when String.equal e.Message.source name ->
    Some
      ( e,
        List.fold_left
          (fun last e -> if String.equal e.Message.source name then e else last)
          e rest )
  | _ :: rest -> first_and_last name rest

let after_batch t entries ~staged ~affected =
  (* π_attrs σ_cond commutes with applying ΔT; once the absorbed atoms
     reach the table's support, maintaining has cost one recompute *)
  let maintained_atoms = ref 0 in
  let maintained =
    if staged = [] then 0
    else
      drop t (fun (n, _, _) ca ->
          match
            (ca.scan, List.find_opt (fun (node, _, _) -> String.equal node n) staged)
          with
          | Some maintain, Some (_, table, d) ->
            let atoms = Rel_delta.atom_count d in
            ca.absorbed <- ca.absorbed + atoms;
            if ca.absorbed >= Table.support_cardinal table then true
            else begin
              maintained_atoms := !maintained_atoms + atoms;
              ca.answer <- Rel_delta.apply ca.answer (maintain d);
              false
            end
          | _ -> false)
  in
  let dropped = maintained + invalidate_nodes t affected in
  (* ref' (Sec. 6.1) jumps over the batch's interval at once. Every
     batched transaction is at least as old as the oldest constituent,
     so its times keep the Theorem 7.2 bound sound under coalescing. *)
  let intervals =
    Array.fold_right
      (fun s acc ->
        match first_and_last s.name entries with
        | None -> acc
        | Some (first, last) ->
          let from = s.reflected.r_version in
          s.reflected <-
            {
              r_version = last.Message.version;
              r_commit_time = first.Message.commit_time;
              r_send_time = first.Message.send_time;
            };
          (s.name, (from, last.Message.version)) :: acc)
      t.sources []
  in
  { intervals; dropped; maintained_atoms = !maintained_atoms }

let unseen_delta t ~pending ~source ~leaf ~schema =
  let reflected = (find t source).reflected.r_version in
  Queue.fold
    (fun acc e ->
      if String.equal e.Message.source source && e.Message.version > reflected then
        match Multi_delta.find e.Message.delta leaf with
        | Some d -> Rel_delta.smash acc d
        | None -> acc
      else acc)
    (match Multi_delta.find pending leaf with
    | Some d -> d
    | None -> Rel_delta.empty schema)
    t.queue

let cache_serve t ~node ~attrs ~cond serve =
  match Hashtbl.find_opt t.cache (node, attrs, cond) with
  | None -> None
  | Some ca -> (
    match
      serve ~answer:ca.answer ~polled:ca.polled ~polled_times:ca.polled_times
        ~trace_id:ca.trace_id
    with
    | Some _ as r ->
      (* a hit restarts the entry's eviction count *)
      ca.absorbed <- 0;
      r
    | None -> None)

let cache_store t ~node ~attrs ~cond ~polled ~polled_times ~trace_id ~scan
    answer =
  if not (Array.exists (fun s -> s.dirty) t.sources) then
    Hashtbl.replace t.cache (node, attrs, cond)
      { answer; polled; polled_times; trace_id; scan; absorbed = 0 }
