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

type slot = int

let no_slot = -1

(* [attr_text] holds this very string (compared physically) in the
   value field of an int attribute, whose value is in [attr_ints] *)
let int_value = "<int>"

(* Spans and attributes live in chunks of [chunk] slots (cells) each,
   added one at a time as the trace fills: growth copies nothing and
   allocates no more than the retained trees need. A span's int fields
   are one row of its chunk. Children and attributes are chained
   newest first and reversed when read. *)
let chunk_bits = 10
let chunk = 1 lsl chunk_bits
let row = 6
let f_id = 0
let f_parent = 1  (* the parent's id, 0 for none *)
let f_ops = 2  (* the ops counter at open until the span closes *)
let f_child = 3  (* the last child attached *)
let f_next = 4  (* previous sibling; next free slot if the slot is free *)
let f_attr = 5  (* the last attribute set *)

type t = {
  enabled : bool;
  now : unit -> float;
  ops_counter : unit -> int;
  (* spans: slot [s] is entry [s land (chunk - 1)] of chunk [s lsr chunk_bits] *)
  mutable rows : int array array;  (* [row] ints per slot *)
  mutable times : Float.Array.t array;  (* start, stop per slot *)
  mutable names : string array array;
  mutable free : int;
  (* attributes, by cell, chunked the same way *)
  mutable attr_text : string array array;  (* key, string value per cell *)
  mutable attr_ints : int array array;  (* int value, next cell per cell *)
  mutable attr_free : int;
  ring : int array;  (* retained root slots in completion order *)
  mutable widx : int;  (* next ring position to write *)
  mutable dropped : int;
  mutable recorded : int;
  mutable next_id : int;
  mutable stack : int array;  (* open spans, innermost at [depth - 1] *)
  mutable depth : int;
}

let get t s f =
  t.rows.(s lsr chunk_bits).(((s land (chunk - 1)) * row) + f)

let set t s f v =
  t.rows.(s lsr chunk_bits).(((s land (chunk - 1)) * row) + f) <- v

let time t s i =
  Float.Array.get t.times.(s lsr chunk_bits) ((2 * (s land (chunk - 1))) + i)

let set_time t s i v =
  Float.Array.set t.times.(s lsr chunk_bits) ((2 * (s land (chunk - 1))) + i) v

let text t a i = t.attr_text.(a lsr chunk_bits).((2 * (a land (chunk - 1))) + i)

let set_text t a i v =
  t.attr_text.(a lsr chunk_bits).((2 * (a land (chunk - 1))) + i) <- v

let int_field t a i =
  t.attr_ints.(a lsr chunk_bits).((2 * (a land (chunk - 1))) + i)

let set_int_field t a i v =
  t.attr_ints.(a lsr chunk_bits).((2 * (a land (chunk - 1))) + i) <- v

let create ?(capacity = 4096) ?(enabled = true) ~now ?(ops_counter = fun () -> 0)
    () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    enabled;
    now;
    ops_counter;
    rows = [||];
    times = [||];
    names = [||];
    free = no_slot;
    attr_text = [||];
    attr_ints = [||];
    attr_free = no_slot;
    ring = Array.make (if enabled then capacity else 1) no_slot;
    widx = 0;
    dropped = 0;
    recorded = 0;
    next_id = 1;
    stack = Array.make (if enabled then 16 else 1) no_slot;
    depth = 0;
  }

let enabled t = t.enabled

(* one more chunk, its entries chained onto a free list through the
   [link] field of each [width]-wide entry; returns the list's head *)
let add_chunk cells ~width ~link =
  let c = Array.length cells in
  let a = Array.make (chunk * width) no_slot in
  for i = 0 to chunk - 1 do
    a.((i * width) + link) <- (c * chunk) + i + 1
  done;
  a.(((chunk - 1) * width) + link) <- no_slot;
  (Array.append cells [| a |], c * chunk)

let grow_spans t =
  let rows, head = add_chunk t.rows ~width:row ~link:f_next in
  t.rows <- rows;
  t.times <- Array.append t.times [| Float.Array.make (2 * chunk) 0.0 |];
  t.names <- Array.append t.names [| Array.make chunk "" |];
  t.free <- head

let grow_attrs t =
  let ints, head = add_chunk t.attr_ints ~width:2 ~link:1 in
  t.attr_ints <- ints;
  t.attr_text <- Array.append t.attr_text [| Array.make (2 * chunk) "" |];
  t.attr_free <- head

(* Return an evicted root's spans and attributes to the free lists. *)
let rec release t s =
  let a = ref (get t s f_attr) in
  while !a <> no_slot do
    let next = int_field t !a 1 in
    set_int_field t !a 1 t.attr_free;
    t.attr_free <- !a;
    a := next
  done;
  let c = ref (get t s f_child) in
  while !c <> no_slot do
    let next = get t !c f_next in
    release t !c;
    c := next
  done;
  set t s f_next t.free;
  t.free <- s

let push_root t s =
  let old = t.ring.(t.widx) in
  if old <> no_slot then begin
    t.dropped <- t.dropped + 1;
    release t old
  end;
  t.ring.(t.widx) <- s;
  t.widx <- (t.widx + 1) mod Array.length t.ring

let fresh t ~parent name =
  if t.free = no_slot then grow_spans t;
  let s = t.free in
  let rows = t.rows.(s lsr chunk_bits) and r = (s land (chunk - 1)) * row in
  t.free <- rows.(r + f_next);
  rows.(r + f_id) <- t.next_id;
  rows.(r + f_parent) <- parent;
  rows.(r + f_ops) <- 0;
  rows.(r + f_child) <- no_slot;
  rows.(r + f_next) <- no_slot;
  rows.(r + f_attr) <- no_slot;
  let now = t.now () in
  set_time t s 0 now;
  set_time t s 1 now;
  t.names.(s lsr chunk_bits).(s land (chunk - 1)) <- name;
  t.next_id <- t.next_id + 1;
  t.recorded <- t.recorded + 1;
  s

let attach t ~parent:p s =
  set t s f_next (get t p f_child);
  set t p f_child s

(* pop the span, stamp its stop time, turn the ops counter at open
   into the count, and hang it under its parent (or in the ring) *)
let close t s =
  if t.depth > 0 && t.stack.(t.depth - 1) = s then begin
    t.depth <- t.depth - 1;
    set_time t s 1 (t.now ());
    set t s f_ops (t.ops_counter () - get t s f_ops);
    if t.depth > 0 then attach t ~parent:t.stack.(t.depth - 1) s
    else push_root t s
  end
(* else an unbalanced close: only reachable if instrumentation itself
   is broken — drop the span rather than corrupt the tree *)

let with_span t name f =
  if not t.enabled then f no_slot
  else begin
    let parent = if t.depth > 0 then get t t.stack.(t.depth - 1) f_id else 0 in
    let s = fresh t ~parent name in
    set t s f_ops (t.ops_counter ());
    if t.depth = Array.length t.stack then begin
      let stack = Array.make (2 * t.depth) no_slot in
      Array.blit t.stack 0 stack 0 t.depth;
      t.stack <- stack
    end;
    t.stack.(t.depth) <- s;
    t.depth <- t.depth + 1;
    match f s with
    | v ->
      close t s;
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      close t s;
      Printexc.raise_with_backtrace exn bt
  end

let root_event t name =
  if not t.enabled then no_slot
  else begin
    let s = fresh t ~parent:0 name in
    push_root t s;
    s
  end

(* a new attribute of [s] under [key]; returns its cell *)
let add_attr t s key =
  if t.attr_free = no_slot then grow_attrs t;
  let a = t.attr_free in
  t.attr_free <- int_field t a 1;
  set_text t a 0 key;
  set_int_field t a 1 (get t s f_attr);
  set t s f_attr a;
  a

let set_attr t s k v = if s <> no_slot then set_text t (add_attr t s k) 1 v

let set_attri t s k v =
  if s <> no_slot then begin
    let a = add_attr t s k in
    set_text t a 1 int_value;
    set_int_field t a 0 v
  end

let span_id t s = if s = no_slot then None else Some (get t s f_id)

(* ---- the read side: records built from the rows on demand ----------- *)

let attr sp k = List.assoc_opt k sp.attrs

(* chains are newest first: [acc] collects them oldest first *)
let rec attrs_from t a acc =
  if a = no_slot then acc
  else
    let v = text t a 1 in
    let v = if v == int_value then string_of_int (int_field t a 0) else v in
    attrs_from t (int_field t a 1) ((text t a 0, v) :: acc)

let rec span_of t s =
  {
    id = get t s f_id;
    parent = (match get t s f_parent with 0 -> None | p -> Some p);
    name = t.names.(s lsr chunk_bits).(s land (chunk - 1));
    start_time = time t s 0;
    end_time = time t s 1;
    ops = get t s f_ops;
    attrs = attrs_from t (get t s f_attr) [];
    children = children_from t (get t s f_child) [];
  }

and children_from t c acc =
  if c = no_slot then acc
  else children_from t (get t c f_next) (span_of t c :: acc)

let roots t =
  let cap = Array.length t.ring in
  let acc = ref [] in
  for i = cap - 1 downto 0 do
    let s = t.ring.((t.widx + i) mod cap) in
    if s <> no_slot then acc := span_of t s :: !acc
  done;
  !acc

let rec iter_span f sp =
  f sp;
  List.iter (iter_span f) sp.children

let iter_spans f t = List.iter (iter_span f) (roots t)

let spans_recorded t = t.recorded
let dropped_roots t = t.dropped

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
