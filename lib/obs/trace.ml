type span = {
  id : int;
  parent : int option;
  name : string;
  start_time : float;
  mutable end_time : float;
  mutable ops : int;
  mutable attrs : (string * string) list;
  mutable children : span list;
}

type t = {
  enabled : bool;
  now : unit -> float;
  ops_counter : unit -> int;
  ring : span option array;
  mutable widx : int;  (* next write slot *)
  mutable retained : int;
  mutable dropped : int;
  mutable recorded : int;
  mutable next_id : int;
  mutable stack : (span * int) list;  (* open span, ops at open *)
}

let create ?(capacity = 4096) ?(enabled = true) ~now ?(ops_counter = fun () -> 0)
    () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    enabled;
    now;
    ops_counter;
    ring = Array.make capacity None;
    widx = 0;
    retained = 0;
    dropped = 0;
    recorded = 0;
    next_id = 1;
    stack = [];
  }

let enabled t = t.enabled

let push_root t sp =
  let cap = Array.length t.ring in
  if t.ring.(t.widx) <> None then t.dropped <- t.dropped + 1
  else t.retained <- t.retained + 1;
  t.ring.(t.widx) <- Some sp;
  t.widx <- (t.widx + 1) mod cap

let fresh t ~parent name attrs =
  let now = t.now () in
  let sp =
    {
      id = t.next_id;
      parent;
      name;
      start_time = now;
      end_time = now;
      ops = 0;
      attrs;
      children = [];
    }
  in
  t.next_id <- t.next_id + 1;
  t.recorded <- t.recorded + 1;
  sp

let close t sp =
  match t.stack with
  | (top, ops0) :: rest when top == sp ->
    t.stack <- rest;
    sp.end_time <- t.now ();
    sp.ops <- t.ops_counter () - ops0;
    sp.children <- List.rev sp.children;
    (match rest with
    | (p, _) :: _ -> p.children <- sp :: p.children
    | [] -> push_root t sp)
  | _ ->
    (* unbalanced close: only reachable if instrumentation itself is
       broken — drop the span rather than corrupt the tree *)
    ()

let with_span t ?(attrs = []) name f =
  if not t.enabled then f None
  else begin
    let parent = match t.stack with (p, _) :: _ -> Some p.id | [] -> None in
    let sp = fresh t ~parent name attrs in
    t.stack <- (sp, t.ops_counter ()) :: t.stack;
    match f (Some sp) with
    | v ->
      close t sp;
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      close t sp;
      Printexc.raise_with_backtrace exn bt
  end

(* Concurrently running child spans cannot go through the open stack:
   two forked children may overlap and close out of order, which the
   stack discipline of [with_span] would mis-nest. A forked span is
   attached under its explicit parent at fork time and closed by
   [join_span]; between fork and join the span's [ops] field holds the
   ops counter at open (same trick [close] plays via the stack). *)
let fork_span t ?(attrs = []) ~parent name =
  if not t.enabled then None
  else
    match parent with
    | None -> None
    | Some (p : span) ->
      let sp = fresh t ~parent:(Some p.id) name attrs in
      p.children <- sp :: p.children;
      sp.ops <- t.ops_counter ();
      Some sp

let join_span t sp =
  match sp with
  | None -> ()
  | Some sp ->
    sp.end_time <- t.now ();
    sp.ops <- t.ops_counter () - sp.ops;
    sp.children <- List.rev sp.children

let root_event t ?(attrs = []) name =
  if t.enabled then push_root t (fresh t ~parent:None name attrs)

let event t ?(attrs = []) name =
  if t.enabled then
    match t.stack with
    | (p, _) :: _ ->
      let sp = fresh t ~parent:(Some p.id) name attrs in
      p.children <- sp :: p.children
    | [] -> root_event t ~attrs name

let set_attr sp k v =
  match sp with None -> () | Some sp -> sp.attrs <- sp.attrs @ [ (k, v) ]

let set_attri sp k v = set_attr sp k (string_of_int v)
let attr sp k = List.assoc_opt k sp.attrs
let span_id = function None -> None | Some sp -> Some sp.id

let roots t =
  let cap = Array.length t.ring in
  let acc = ref [] in
  for i = 0 to cap - 1 do
    match t.ring.((t.widx + i) mod cap) with
    | Some sp -> acc := sp :: !acc
    | None -> ()
  done;
  List.rev !acc

let rec iter_span f sp =
  f sp;
  List.iter (iter_span f) sp.children

let iter_spans f t = List.iter (iter_span f) (roots t)

let find t ~name =
  let acc = ref [] in
  iter_spans (fun sp -> if String.equal sp.name name then acc := sp :: !acc) t;
  List.rev !acc

let spans_recorded t = t.recorded
let dropped_roots t = t.dropped
let duration sp = sp.end_time -. sp.start_time

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
