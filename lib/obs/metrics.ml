type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  base : float;
  buckets : (int, int) Hashtbl.t;  (* exponent (or min_int for <= 0) → count *)
  mutable count : int;
  mutable sum : float;
}

type entry =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 32 }

let register t name e =
  match Hashtbl.find_opt t.entries name with
  | Some existing -> existing
  | None ->
    Hashtbl.replace t.entries name e;
    e

let counter t ?help:_ name =
  match register t name (Counter { c = 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)

let gauge t ?help:_ name =
  match register t name (Gauge { g = 0.0 }) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)

let histogram t ?help:_ ?(base = 2.0) name =
  if not (base > 1.0) then invalid_arg "Metrics.histogram: base must be > 1";
  match
    register t name
      (Histogram { base; buckets = Hashtbl.create 8; count = 0; sum = 0.0 })
  with
  | Histogram h -> h
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let set g v = g.g <- v

let max_exp = 64

(* smallest integer k with base^k >= v (v > 0), by exact repeated
   multiplication/division; clamped to [-max_exp, max_exp] *)
let exp_of base v =
  if v <= 1.0 then begin
    let k = ref 0 and p = ref 1.0 in
    while !k > -max_exp && !p /. base >= v do
      p := !p /. base;
      decr k
    done;
    !k
  end
  else begin
    let k = ref 0 and p = ref 1.0 in
    while !k < max_exp && !p < v do
      p := !p *. base;
      k := !k + 1
    done;
    !k
  end

let pow base k =
  let p = ref 1.0 in
  if k >= 0 then
    for _ = 1 to k do
      p := !p *. base
    done
  else
    for _ = 1 to -k do
      p := !p /. base
    done;
  !p

let observe h v =
  let key = if v <= 0.0 then min_int else exp_of h.base v in
  Hashtbl.replace h.buckets key
    (1 + match Hashtbl.find_opt h.buckets key with Some n -> n | None -> 0);
  h.count <- h.count + 1;
  h.sum <- h.sum +. v

let histogram_count h = h.count
let histogram_sum h = h.sum

let histogram_buckets h =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) h.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (k, n) ->
         ((if k = min_int then 0.0 else pow h.base k), n))

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * (int * float * (float * int) list)) list;
}

let snapshot t =
  let by_name cmp = List.sort (fun (a, _) (b, _) -> cmp a b) in
  let counters = ref [] and gauges = ref [] in
  let histograms = ref [] in
  Hashtbl.iter
    (fun name -> function
      | Counter c -> counters := (name, c.c) :: !counters
      | Gauge g -> gauges := (name, g.g) :: !gauges
      | Histogram h ->
        histograms := (name, (h.count, h.sum, histogram_buckets h)) :: !histograms)
    t.entries;
  {
    counters = by_name String.compare !counters;
    gauges = by_name String.compare !gauges;
    histograms = by_name String.compare !histograms;
  }

let render s =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun (name, v) -> pr "%-28s %d\n" name v) s.counters;
  List.iter (fun (name, v) -> pr "%-28s %g\n" name v) s.gauges;
  List.iter
    (fun (name, (count, sum, buckets)) ->
      pr "%-28s count %d, sum %g\n" name count sum;
      List.iter (fun (le, n) -> pr "  le %-12g %d\n" le n) buckets)
    s.histograms;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json s =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sep l f =
    List.iteri (fun i x -> if i > 0 then pr ","; f x) l
  in
  pr "{\"counters\":{";
  sep s.counters (fun (n, v) -> pr "\"%s\":%d" (json_escape n) v);
  pr "},\"gauges\":{";
  sep s.gauges (fun (n, v) -> pr "\"%s\":%g" (json_escape n) v);
  pr "},\"histograms\":{";
  sep s.histograms (fun (n, (count, sum, buckets)) ->
      pr "\"%s\":{\"count\":%d,\"sum\":%g,\"buckets\":[" (json_escape n) count
        sum;
      sep buckets (fun (le, c) -> pr "{\"le\":%g,\"count\":%d}" le c);
      pr "]}");
  pr "}}";
  Buffer.contents buf
