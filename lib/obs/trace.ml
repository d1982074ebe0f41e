type span = {
  id : int;
  parent : int option;
  name : string;
  start_time : float;
  end_time : float;
  ops : int;
  attrs : (string * string) list;
  children : span list;
}

type outcome = Applied | Self_maintained | Deferred of string

(* an int fact not yet known: the site raised before it set it *)
let unset = min_int

(* ---- the records ----------------------------------------------------

   One record per trace site, holding the facts the site knows. Ids
   come from the trace's counter where each span opens; times and op
   counts are sampled where it opens and closes. *)

type times = { mutable start : float; mutable stop : float }

type record =
  | Enqueue of { id : int; source : string; version : int; atoms : int; depth : int }
  | Dup_dropped of { id : int; source : string; version : int }
  | Gap_detected of {
      id : int;
      source : string;
      prev_version : int;  (* [unset] for a poll's [answer_version] *)
      version : int;
      seen : int;
      via : string;
    }
  | Batch of {
      entries : int;
      mutable outcome : outcome option;
      mutable deltas : int;
      mutable ints : int array;
      mutable times : Float.Array.t;
      mutable strs : string array;
      mutable children : record list;  (* nested records, newest first *)
    }
  | Scope of {
      id : int;
      mutable ops : int;  (* the counter at open, then the count *)
      times : times;
      mutable children : record list;  (* newest first *)
      site : site;
    }

and site =
  | Query_tx of { node : string; mutable served : string; mutable error : string }
  | Slo_poll of { sources : string }
  | Vap of { kind : string; mutable temps : int }
  | Temp of { node : string; mutable tuples : int }
  | Poll of { source : string; mutable attempts : int; mutable exhausted : bool }
  | Attempt of { n : int; mutable result : string }
  | Eca of { source : string; node : string; mutable unseen_atoms : int }
  | Snapshot of { trigger : string }
  | Resync of { sources : string }

(* A batch's spans in its three columns. [ints] holds four per span:
   the batch_tx (id, ops, atoms, raw_atoms), temp_determination (id,
   ops, affected, requests), kernel_pass (id, ops, nodes) and apply
   (id, ops, tables), then each update_tx (id, version, prev_version,
   atoms) and each delta (id, ops, atoms). [times] holds the start and
   stop of the batch_tx and each phase, then each update_tx's instant,
   then the start and stop of each delta; [strs] holds each update_tx's
   source, then each delta's node. A phase whose id is 0 never opened.
   While the batch is open they are the trace's scratch columns, and
   it keeps exact copies of them when it closes: five blocks in all
   with its enqueue record, whatever the batch's shape. *)
let span_ints = 4
let phases = 4  (* the batch_tx and its three phases *)

type t = {
  enabled : bool;
  now : unit -> float;
  ops_counter : unit -> int;
  capacity : int;
  ring : record array;  (* the retained roots, by position *)
  event_times : Float.Array.t;  (* a root event's instant, by position *)
  mutable pushed : int;  (* roots ever retained *)
  mutable next_id : int;
  mutable stack : record array;  (* open records, innermost at [depth - 1] *)
  mutable depth : int;
  (* the open batch's columns *)
  mutable batch_open : bool;
  mutable ints : int array;
  mutable times : Float.Array.t;
  mutable strs : string array;
  mutable spans : int;
  mutable n_times : int;
}

let create ?(capacity = 4096) ?(enabled = true) ~now ?(ops_counter = fun () -> 0)
    () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  let sized n = if enabled then n else 0 in
  {
    enabled;
    now;
    ops_counter;
    capacity;
    (* positions at or past [pushed] hold a filler that is never read *)
    ring =
      Array.make (sized capacity) (Dup_dropped { id = 0; source = ""; version = 0 });
    event_times = Float.Array.make (sized capacity) 0.0;
    pushed = 0;
    next_id = 1;
    stack = [||];
    depth = 0;
    batch_open = false;
    ints = Array.make (sized (16 * span_ints)) 0;
    times = Float.Array.make (sized 32) 0.0;
    strs = Array.make (sized 16) "";
    spans = 0;
    n_times = 0;
  }

let enabled t = t.enabled

let take_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let push_root t r ~time =
  let i = t.pushed mod t.capacity in
  t.ring.(i) <- r;
  Float.Array.set t.event_times i time;
  t.pushed <- t.pushed + 1

(* hang a closed record under the innermost open one, or retain it *)
let attach t r =
  if t.depth = 0 then push_root t r ~time:0.0
  else
    match t.stack.(t.depth - 1) with
    | Scope s -> s.children <- r :: s.children
    | Batch b -> b.children <- r :: b.children
    | Enqueue _ | Dup_dropped _ | Gap_detected _ -> ()

let open_record t r =
  if t.depth = Array.length t.stack then begin
    let stack = Array.make (max 8 (2 * t.depth)) r in
    Array.blit t.stack 0 stack 0 t.depth;
    t.stack <- stack
  end;
  t.stack.(t.depth) <- r;
  t.depth <- t.depth + 1

(* span [k] of the open batch: id and ops in its first two ints, start
   and stop at times [fl] and [fl + 1] *)
let open_frame t k ~fl =
  t.ints.(span_ints * k) <- take_id t;
  t.ints.((span_ints * k) + 1) <- t.ops_counter ();
  let now = t.now () in
  Float.Array.set t.times fl now;
  Float.Array.set t.times (fl + 1) now

let close_frame t k ~fl =
  Float.Array.set t.times (fl + 1) (t.now ());
  t.ints.((span_ints * k) + 1) <- t.ops_counter () - t.ints.((span_ints * k) + 1)

(* pop [r], stamp its stop time and op count, and hang it under the
   record now innermost (or in the ring) *)
let close t r =
  if t.depth > 0 && t.stack.(t.depth - 1) == r then begin
    t.depth <- t.depth - 1;
    (match r with
    | Scope s ->
      s.times.stop <- t.now ();
      s.ops <- t.ops_counter () - s.ops
    | Batch b ->
      close_frame t 0 ~fl:0;
      b.ints <- Array.sub t.ints 0 (span_ints * t.spans);
      b.times <- Float.Array.sub t.times 0 t.n_times;
      b.strs <- Array.sub t.strs 0 (t.spans - phases);
      t.batch_open <- false
    | Enqueue _ | Dup_dropped _ | Gap_detected _ -> ());
    attach t r
  end
(* else an unbalanced close: only reachable if instrumentation itself
   is broken — drop the record rather than corrupt the tree *)

(* run [f ()] inside [r], closing it even if [f] raises *)
let within t r f =
  match f () with
  | v ->
    close t r;
    v
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    close t r;
    Printexc.raise_with_backtrace exn bt

let scope t site f =
  let now = t.now () in
  let r =
    Scope
      {
        id = take_id t;
        ops = t.ops_counter ();
        times = { start = now; stop = now };
        children = [];
        site;
      }
  in
  open_record t r;
  within t r f

(* ---- the write side -------------------------------------------------- *)

let event t r = push_root t r ~time:(t.now ())

let enqueue t ~source ~version ~atoms ~depth =
  if t.enabled then
    event t (Enqueue { id = take_id t; source; version; atoms; depth })

let dup_dropped t ~source ~version =
  if t.enabled then event t (Dup_dropped { id = take_id t; source; version })

let gap_detected t ~source ~via ~prev_version ~version ~seen =
  if t.enabled then
    event t
      (Gap_detected
         {
           id = take_id t;
           source;
           prev_version = Option.value prev_version ~default:unset;
           version;
           seen;
           via;
         })

let batch t ~entries f =
  if not t.enabled then f ()
  else begin
    if t.batch_open then invalid_arg "Trace.batch: a batch is already open";
    t.batch_open <- true;
    t.spans <- phases;
    t.n_times <- 2 * phases;
    open_frame t 0 ~fl:0;
    t.ints.(2) <- unset;
    t.ints.(span_ints) <- 0;
    t.ints.(2 * span_ints) <- 0;
    t.ints.(3 * span_ints) <- 0;
    let r =
      Batch
        {
          entries;
          outcome = None;
          deltas = 0;
          ints = [||];
          times = Float.Array.create 0;
          strs = [||];
          children = [];
        }
    in
    open_record t r;
    within t r f
  end

(* The functions below write into the innermost open record when it is
   of the kind they name, and do nothing otherwise: with tracing off no
   record is ever open, so each costs one branch. *)
let in_batch t =
  t.depth > 0 && match t.stack.(t.depth - 1) with Batch _ -> true | _ -> false
[@@inline]

(* one more span in the open batch's columns, doubled when full *)
let add_span t =
  let k = t.spans in
  if span_ints * (k + 1) > Array.length t.ints then begin
    t.ints <- Array.append t.ints t.ints;
    t.times <- Float.Array.append t.times t.times;
    t.strs <- Array.append t.strs t.strs
  end;
  t.spans <- k + 1;
  k

let update_tx t ~source ~version ~prev_version ~atoms =
  if in_batch t then begin
    let k = add_span t in
    let i = span_ints * k in
    t.ints.(i) <- take_id t;
    t.ints.(i + 1) <- version;
    t.ints.(i + 2) <- prev_version;
    t.ints.(i + 3) <- atoms;
    Float.Array.set t.times t.n_times (t.now ());
    t.n_times <- t.n_times + 1;
    t.strs.(k - phases) <- source
  end

(* fact [j] of span [k] of the open batch *)
let fact t k j v = if in_batch t then t.ints.((span_ints * k) + j) <- v

let coalesced t ~atoms ~raw_atoms =
  fact t 0 2 atoms;
  fact t 0 3 raw_atoms

let determined t ~affected ~requests =
  fact t 1 2 affected;
  fact t 1 3 requests

let kernel_nodes t n = fact t 2 2 n

let in_frame t k ~fl f =
  open_frame t k ~fl;
  match f () with
  | v ->
    close_frame t k ~fl;
    v
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    close_frame t k ~fl;
    Printexc.raise_with_backtrace exn bt

(* phase [k] of the open batch *)
let phase t k f =
  if in_batch t then begin
    t.ints.((span_ints * k) + 2) <- unset;
    t.ints.((span_ints * k) + 3) <- unset;
    in_frame t k ~fl:(2 * k) f
  end
  else f ()

let temp_determination t f = phase t 1 f
let kernel_pass t f = phase t 2 f

let apply t ~tables f =
  if in_batch t then begin
    t.ints.((span_ints * 3) + 2) <- tables;
    in_frame t 3 ~fl:6 f
  end
  else f ()

let delta t ~node f =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Batch b ->
      let k = add_span t in
      t.ints.((span_ints * k) + 2) <- unset;
      t.strs.(k - phases) <- node;
      b.deltas <- b.deltas + 1;
      let fl = t.n_times in
      t.n_times <- fl + 2;
      in_frame t k ~fl f
    | _ -> f ()
  else f ()

let delta_atoms t n =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Batch b when b.deltas > 0 -> t.ints.((span_ints * (t.spans - 1)) + 2) <- n
    | _ -> ()

let batch_outcome t o =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Batch b ->
      b.outcome <-
        (match o with
        | Applied -> Some Applied
        | Self_maintained -> Some Self_maintained
        | Deferred _ -> Some o)
    | _ -> ()

let query_tx t ~node f =
  if not t.enabled then f None
  else
    let id = t.next_id in
    scope t (Query_tx { node; served = ""; error = "" }) (fun () -> f (Some id))

let slo_poll t ~sources f =
  if not t.enabled then f () else scope t (Slo_poll { sources }) f

let vap t ~kind f =
  if not t.enabled then f () else scope t (Vap { kind; temps = unset }) f

let temp t ~node f =
  if not t.enabled then f () else scope t (Temp { node; tuples = unset }) f

let poll t ~source f =
  if not t.enabled then f ()
  else scope t (Poll { source; attempts = unset; exhausted = false }) f

let attempt t ~n f =
  if not t.enabled then f () else scope t (Attempt { n; result = "" }) f

let eca t ~source ~node f =
  if not t.enabled then f ()
  else scope t (Eca { source; node; unseen_atoms = unset }) f

let snapshot t ~trigger f =
  if not t.enabled then f () else scope t (Snapshot { trigger }) f

let resync t ~sources f =
  if not t.enabled then f () else scope t (Resync { sources }) f

let served t v =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Scope { site = Query_tx q; _ } -> q.served <- v
    | _ -> ()

let query_error t v =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Scope { site = Query_tx q; _ } -> q.error <- v
    | _ -> ()

let vap_temps t n =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with Scope { site = Vap v; _ } -> v.temps <- n | _ -> ()

let temp_tuples t n =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Scope { site = Temp tp; _ } -> tp.tuples <- n
    | _ -> ()

let poll_attempts t n ~exhausted =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Scope { site = Poll p; _ } ->
      p.attempts <- n;
      p.exhausted <- exhausted
    | _ -> ()

let attempt_result t v =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Scope { site = Attempt a; _ } -> a.result <- v
    | _ -> ()

let eca_unseen t n =
  if t.depth > 0 then
    match t.stack.(t.depth - 1) with
    | Scope { site = Eca e; _ } -> e.unseen_atoms <- n
    | _ -> ()

(* ---- the read side: span trees built from the records ---------------- *)

let attr sp k = List.assoc_opt k sp.attrs

let int_attr k v = if v = unset then [] else [ (k, string_of_int v) ]
let str_attr k v = if v = "" then [] else [ (k, v) ]

let leaf ~id ~parent ~name ~time attrs =
  { id; parent; name; start_time = time; end_time = time; ops = 0; attrs; children = [] }

let site_name = function
  | Query_tx _ -> "query_tx"
  | Slo_poll _ -> "slo_poll"
  | Vap _ -> "vap"
  | Temp _ -> "temp"
  | Poll _ -> "poll"
  | Attempt _ -> "attempt"
  | Eca _ -> "eca"
  | Snapshot _ -> "snapshot"
  | Resync _ -> "resync"

let site_attrs = function
  (* a degraded answer records its error before it is served *)
  | Query_tx q ->
    (("node", q.node) :: str_attr "error" q.error) @ str_attr "served" q.served
  | Slo_poll { sources } | Resync { sources } -> [ ("sources", sources) ]
  | Vap v -> ("kind", v.kind) :: int_attr "temps" v.temps
  | Temp tp -> ("node", tp.node) :: int_attr "tuples" tp.tuples
  | Poll p ->
    (("source", p.source) :: int_attr "attempts" p.attempts)
    @ if p.exhausted then [ ("outcome", "exhausted") ] else []
  | Attempt a -> ("n", string_of_int a.n) :: str_attr "result" a.result
  | Eca e ->
    ("source", e.source) :: ("node", e.node) :: int_attr "unseen_atoms" e.unseen_atoms
  | Snapshot { trigger } -> [ ("trigger", trigger) ]

let outcome_attrs = function
  | None -> []
  | Some Applied -> [ ("outcome", "applied") ]
  | Some Self_maintained -> [ ("served", "self_maintained"); ("outcome", "applied") ]
  | Some (Deferred error) -> [ ("outcome", "deferred"); ("error", error) ]

let by_id a b = Int.compare a.id b.id

let rec span_of t ~parent ~time = function
  | Enqueue e ->
    leaf ~id:e.id ~parent ~name:"enqueue" ~time
      [
        ("source", e.source);
        ("version", string_of_int e.version);
        ("atoms", string_of_int e.atoms);
        ("depth", string_of_int e.depth);
      ]
  | Dup_dropped d ->
    leaf ~id:d.id ~parent ~name:"dup_dropped" ~time
      [ ("source", d.source); ("version", string_of_int d.version) ]
  | Gap_detected g ->
    leaf ~id:g.id ~parent ~name:"gap_detected" ~time
      ((("source", g.source)
        :: (if g.prev_version = unset then
              [ ("answer_version", string_of_int g.version) ]
            else
              [
                ("prev_version", string_of_int g.prev_version);
                ("version", string_of_int g.version);
              ]))
      @ [ ("seen", string_of_int g.seen); ("via", g.via) ])
  | Scope s ->
    {
      id = s.id;
      parent;
      name = site_name s.site;
      start_time = s.times.start;
      end_time = s.times.stop;
      ops = s.ops;
      attrs = site_attrs s.site;
      children = nested t s.id s.children;
    }
  | Batch { entries; outcome; deltas; ints; times; strs; children } ->
    let int k j = ints.((span_ints * k) + j) in
    let id = int 0 0 in
    let frame ~parent ~name k ~fl attrs children =
      {
        id = int k 0;
        parent;
        name;
        start_time = Float.Array.get times fl;
        end_time = Float.Array.get times (fl + 1);
        ops = int k 1;
        attrs;
        children;
      }
    in
    let fact k j name = int_attr name (int k j) in
    let updates = (Array.length ints / span_ints) - phases - deltas in
    let update u =
      let k = phases + u in
      leaf ~id:(int k 0) ~parent:(Some id) ~name:"update_tx"
        ~time:(Float.Array.get times ((2 * phases) + u))
        [
          ("source", strs.(u));
          ("version", string_of_int (int k 1));
          ("prev_version", string_of_int (int k 2));
          ("atoms", string_of_int (int k 3));
        ]
    in
    let delta d =
      let k = phases + updates + d in
      frame ~parent:(Some (int 2 0)) ~name:"delta" k
        ~fl:((2 * phases) + updates + (2 * d))
        (("node", strs.(updates + d)) :: fact k 2 "atoms")
        []
    in
    let phase k name attrs children =
      if int k 0 = 0 then []
      else [ frame ~parent:(Some id) ~name k ~fl:(2 * k) attrs children ]
    in
    let atoms = int 0 2 and raw_atoms = int 0 3 in
    frame ~parent ~name:"batch_tx" 0 ~fl:0
      ((("entries", string_of_int entries)
        ::
        (if atoms = unset then []
         else
           [
             ("atoms", string_of_int atoms);
             ("raw_atoms", string_of_int raw_atoms);
             ("annihilated_pairs", string_of_int ((raw_atoms - atoms) / 2));
           ]))
      @ outcome_attrs outcome)
      (List.sort by_id
         (List.concat
            [
              List.init updates update;
              phase 1 "temp_determination" (fact 1 2 "affected" @ fact 1 3 "requests") [];
              phase 2 "kernel_pass" (fact 2 2 "nodes") (List.init deltas delta);
              phase 3 "apply" (fact 3 2 "tables") [];
              nested t id children;
            ]))

(* a record's nested children, kept newest first, in chronological order *)
and nested t id children =
  List.rev_map (span_of t ~parent:(Some id) ~time:0.0) children

let roots t =
  let acc = ref [] in
  for k = t.pushed - 1 downto max 0 (t.pushed - t.capacity) do
    let i = k mod t.capacity in
    acc :=
      span_of t ~parent:None ~time:(Float.Array.get t.event_times i) t.ring.(i)
      :: !acc
  done;
  !acc

let rec iter_span f sp =
  f sp;
  List.iter (iter_span f) sp.children

let iter_spans f t = List.iter (iter_span f) (roots t)

let find t id =
  let rec search sp =
    if sp.id = id then Some sp else List.find_map search sp.children
  in
  List.find_map search (roots t)

let spans_recorded t = t.next_id - 1
let dropped_roots t = max 0 (t.pushed - t.capacity)

let pp_attrs buf attrs =
  List.iter (fun (k, v) -> Printf.ksprintf (Buffer.add_string buf) " %s=%s" k v) attrs

let rec pp_span buf indent sp =
  Printf.ksprintf (Buffer.add_string buf) "%s%s [%d] %g..%g (ops %d)" indent
    sp.name sp.id sp.start_time sp.end_time sp.ops;
  pp_attrs buf sp.attrs;
  Buffer.add_char buf '\n';
  List.iter (pp_span buf (indent ^ "  ")) sp.children

let render t =
  let buf = Buffer.create 1024 in
  List.iter (pp_span buf "") (roots t);
  Buffer.contents buf

let jsonl_span buf sp =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "{\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"start\":%g,\"stop\":%g,\"ops\":%d,\"attrs\":{"
    sp.id
    (match sp.parent with Some p -> string_of_int p | None -> "null")
    (Metrics.json_escape sp.name)
    sp.start_time sp.end_time sp.ops;
  List.iteri
    (fun i (k, v) ->
      if i > 0 then pr ",";
      pr "\"%s\":\"%s\"" (Metrics.json_escape k) (Metrics.json_escape v))
    sp.attrs;
  pr "}}\n"

let to_jsonl t =
  let buf = Buffer.create 4096 in
  iter_spans (jsonl_span buf) t;
  Buffer.contents buf
