(* E10 — Bechamel micro-benchmarks of the Heraclitus delta operators
   (Sec. 6.2) and the kernel building blocks: apply, smash, inverse,
   select/project filtering, and the signed join behind the SPJ rules. *)

open Bechamel
open Toolkit
open Relalg
open Delta

let schema =
  Schema.make ~key:[ "k" ]
    [ ("k", Value.TInt); ("x", Value.TInt); ("y", Value.TInt) ]

let tuple i =
  Tuple.of_list
    [ ("k", Value.Int i); ("x", Value.Int (i mod 17)); ("y", Value.Int (i mod 5)) ]

let bag n =
  let rec go acc i = if i >= n then acc else go (Bag.add acc (tuple i)) (i + 1) in
  go (Bag.empty schema) 0

let delta_of n offset =
  let rec go acc i =
    if i >= n then acc
    else
      let acc =
        if i mod 2 = 0 then Rel_delta.insert acc (tuple (offset + i))
        else Rel_delta.delete acc (tuple i)
      in
      go acc (i + 1)
  in
  go (Rel_delta.empty schema) 0

let sizes = [ 10; 100; 1000 ]

let tests () =
  let per_size name f =
    List.map
      (fun n -> Test.make ~name:(Printf.sprintf "%s/%d" name n) (f n))
      sizes
  in
  List.concat
    [
      per_size "apply" (fun n ->
          let b = bag n and d = delta_of (n / 2) n in
          Staged.stage (fun () -> ignore (Rel_delta.apply b d)));
      per_size "smash" (fun n ->
          let d1 = delta_of n n and d2 = delta_of n (2 * n) in
          Staged.stage (fun () -> ignore (Rel_delta.smash d1 d2)));
      per_size "inverse" (fun n ->
          let d = delta_of n n in
          Staged.stage (fun () -> ignore (Rel_delta.inverse d)));
      per_size "filter(select+project)" (fun n ->
          let d = delta_of n n in
          let p = Predicate.(lt (attr "x") (int 9)) in
          Staged.stage (fun () ->
              ignore (Rel_delta.project [ "k"; "x" ] (Rel_delta.select p d))));
      per_size "join_bag" (fun n ->
          let d = delta_of (n / 4) n and b = bag n in
          Staged.stage (fun () ->
              ignore (Rel_delta.join_bag ~on:(Predicate.eq_attrs "y" "y") d b)));
    ]

let run () =
  Tables.section "E10  Heraclitus delta operator micro-benchmarks (Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"delta" ~fmt:"%s %s" (tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | Some [] | None -> ())
    results;
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !rows
    |> List.map (fun (name, ns) ->
           [ Tables.S name; Tables.F ns; Tables.F (ns /. 1000.0) ])
  in
  Tables.print ~title:"per-call cost (monotonic clock, OLS on runs)"
    ~header:[ "operation"; "ns/run"; "us/run" ]
    rows;
  Tables.note
    "Shape: apply/smash/inverse are linear in delta size; the signed join \
     tracks its\ninput+output, matching the Sec. 6.2 expectations that deltas \
     stay proportional to\nchange volume, not database volume.\n"

(* ------------------------------------------------------------------ *)
(* E12 — physical tuple/bag layer benchmarks (PR 1).

   Wall-clock measurements of the primitive operations every Squirrel
   transaction bottoms out in: attribute access, projection, hash-join
   probing, delta smash/apply, and indexed table maintenance. Emits a
   machine-readable BENCH_1.json (op -> ns per tuple processed and
   tuples/sec) so the perf trajectory is tracked across PRs. *)

open Storage

let wide_schema =
  Schema.make ~key:[ "k" ]
    [
      ("k", Value.TInt);
      ("a", Value.TInt);
      ("b", Value.TInt);
      ("c", Value.TStr);
      ("d", Value.TInt);
      ("e", Value.TFloat);
      ("f", Value.TStr);
      ("g", Value.TInt);
    ]

let strs = [| "red"; "green"; "blue"; "cyan"; "magenta"; "yellow" |]

let wide_tuple i =
  Tuple.of_list
    [
      ("k", Value.Int i);
      ("a", Value.Int (i mod 17));
      ("b", Value.Int (i mod 5));
      ("c", Value.Str strs.(i mod 6));
      ("d", Value.Int (i / 3));
      ("e", Value.Float (float_of_int (i mod 101) /. 7.0));
      ("f", Value.Str strs.((i + 3) mod 6));
      ("g", Value.Int (i mod 2));
    ]

let wide_tuples n = List.init n wide_tuple
let wide_bag n = Bag.of_tuples wide_schema (wide_tuples n)

(* signed delta over [wide_schema]: n/2 fresh inserts, n/2 deletes of
   existing tuples — the shape of an IUP update transaction *)
let wide_delta ~base n =
  let rec go acc i =
    if i >= n then acc
    else
      let acc =
        if i mod 2 = 0 then Rel_delta.insert acc (wide_tuple (base + i))
        else Rel_delta.delete acc (wide_tuple i)
      in
      go acc (i + 1)
  in
  go (Rel_delta.empty wide_schema) 0

(* adaptive timing: warm up, estimate, then take the minimum over
   three ~0.12s batches (min is the noise-robust estimator for
   microbenchmarks on a shared machine) *)
let seconds_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let est = Unix.gettimeofday () -. t0 in
  let iters = max 3 (min 1_500_000 (int_of_float (0.12 /. max est 1e-7))) in
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let best = ref (batch ()) in
  for _ = 2 to 5 do
    best := Float.min !best (batch ())
  done;
  !best

(* (name, setup) where [setup ()] builds the benchmark's data and
   returns (tuples processed per call, thunk). Data is built lazily so
   only the benchmark being measured is live: a resident heap of every
   dataset at once would tax each minor-GC promotion with major-heap
   work that has nothing to do with the operation under test. *)
let physical_benchmarks () =
  (* CI smoke runs cap the size sweep with BENCH_SIZES_MAX (e.g. 1000);
     rows for skipped sizes just drop out of the table and the JSON *)
  let sizes =
    let all = [ 1_000; 10_000; 100_000 ] in
    match
      Option.bind (Sys.getenv_opt "BENCH_SIZES_MAX") int_of_string_opt
    with
    | Some cap -> List.filter (fun n -> n <= cap) all
    | None -> all
  in
  let per_size name mk =
    List.map (fun n -> (Printf.sprintf "%s/%d" name n, fun () -> mk n)) sizes
  in
  let get_bench =
    ( "tuple_get",
      fun () ->
        (* 4 attribute reads per tuple over a resident array of wide tuples *)
        let n = 1_000 in
        let tuples = Array.of_list (wide_tuples n) in
        ( 4 * n,
          fun () ->
            let acc = ref 0 in
            Array.iter
              (fun t ->
                (match Tuple.get t "k" with Value.Int i -> acc := !acc + i | _ -> ());
                (match Tuple.get t "d" with Value.Int i -> acc := !acc + i | _ -> ());
                (match Tuple.get t "g" with Value.Int i -> acc := !acc + i | _ -> ());
                ignore (Tuple.get t "f"))
              tuples;
            !acc ) )
  in
  let project_bench =
    ( "tuple_project",
      fun () ->
        let n = 1_000 in
        let tuples = Array.of_list (wide_tuples n) in
        ( n,
          fun () ->
            Array.iter
              (fun t -> ignore (Tuple.project t [ "k"; "b"; "e" ]))
              tuples;
            0 ) )
  in
  let build = per_size "bag_build" (fun n ->
      let tuples = wide_tuples n in
      (n, fun () -> ignore (Bag.of_tuples wide_schema tuples); 0))
  in
  let bag_project = per_size "bag_project" (fun n ->
      let bag = wide_bag n in
      (n, fun () -> ignore (Bag.project [ "k"; "b"; "e" ] bag); 0))
  in
  let join = per_size "join_probe" (fun n ->
      (* 1:1 key join on the shared attribute "k" plus residual attrs *)
      let a = wide_bag n in
      let b =
        Bag.of_tuples
          (Schema.make ~key:[ "k" ] [ ("k", Value.TInt); ("z", Value.TInt) ])
          (List.init n (fun i ->
               Tuple.of_list [ ("k", Value.Int i); ("z", Value.Int (i mod 7)) ]))
      in
      (2 * n, fun () -> ignore (Bag.join a b); 0))
  in
  (* The delta benchmarks move state forward (delta, then its inverse)
     like IUP's transaction stream, rather than re-applying to a fixed
     old version each call. *)
  let smash = per_size "delta_smash" (fun n ->
      let d1 = wide_delta ~base:n n and d2 = wide_delta ~base:(3 * n) n in
      let d2inv = Rel_delta.inverse d2 in
      let cur = ref d1 in
      ( 2 * n,
        fun () ->
          cur := Rel_delta.smash !cur d2;
          cur := Rel_delta.smash !cur d2inv;
          0 ))
  in
  let apply = per_size "delta_apply" (fun n ->
      let bag = wide_bag n and d = wide_delta ~base:n (n / 2) in
      let dinv = Rel_delta.inverse d in
      let cur = ref bag in
      ( n,
        fun () ->
          cur := Rel_delta.apply !cur d;
          cur := Rel_delta.apply !cur dinv;
          0 ))
  in
  let table = per_size "table_apply_delta" (fun n ->
      (* key index plus a secondary join-key index, kept in sync *)
      let tbl = Table.create ~indexes:[ "b" ] ~name:"bench" wide_schema in
      Table.load tbl (wide_bag n);
      let d = wide_delta ~base:n (n / 2) in
      let inv = Rel_delta.inverse d in
      ( n,
        fun () ->
          Table.apply_delta tbl d;
          Table.apply_delta tbl inv;
          0 ))
  in
  List.concat
    [ [ get_bench; project_bench ]; build; bag_project; join; smash; apply; table ]

(* ns per tuple processed, measured at the seed commit (string-map
   tuples, balanced-map bags) on this machine with this exact harness;
   reference point for the BENCH_1.json speedup column. *)
let baseline_ns : (string * float) list =
  [
    ("tuple_get", 22.31);
    ("tuple_project", 129.95);
    ("bag_build/1000", 917.82);
    ("bag_build/10000", 1790.0);
    ("bag_build/100000", 3122.0);
    ("bag_project/1000", 800.28);
    ("bag_project/10000", 1687.0);
    ("bag_project/100000", 4008.0);
    ("join_probe/1000", 795.89);
    ("join_probe/10000", 1336.0);
    ("join_probe/100000", 2438.0);
    ("delta_smash/1000", 691.76);
    ("delta_smash/10000", 1079.0);
    ("delta_smash/100000", 1835.0);
    ("delta_apply/1000", 1079.0);
    ("delta_apply/10000", 1166.0);
    ("delta_apply/100000", 1661.0);
    ("table_apply_delta/1000", 2472.0);
    ("table_apply_delta/10000", 3364.0);
    ("table_apply_delta/100000", 4274.0);
  ]

let physical_json path rows =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"physical tuple/bag layer (bench/micro.ml e12)\",\n";
  p "  \"baseline\": \"seed (string-map tuples, balanced-map bags)\",\n";
  p "  \"results\": [\n";
  let n_rows = List.length rows in
  List.iteri
    (fun i (name, ns) ->
      let base = List.assoc_opt name baseline_ns in
      p "    {\"op\": %S, \"ns_per_tuple\": %.2f, \"tuples_per_sec\": %.3e%s}%s\n"
        name ns (1e9 /. ns)
        (match base with
        | Some b ->
          Printf.sprintf ", \"baseline_ns_per_tuple\": %.2f, \"speedup\": %.2f"
            b (b /. ns)
        | None -> "")
        (if i = n_rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let physical () =
  Tables.section
    "E12  physical tuple/bag layer micro-benchmarks (wall clock)";
  let rows =
    List.map
      (fun (name, setup) ->
        Gc.compact ();
        let units, f = setup () in
        let s = seconds_per_call f in
        (name, s *. 1e9 /. float_of_int units))
      (physical_benchmarks ())
  in
  Tables.print ~title:"per-tuple cost"
    ~header:[ "operation"; "ns/tuple"; "tuples/sec"; "vs seed" ]
    (List.map
       (fun (name, ns) ->
         [
           Tables.S name;
           Tables.F ns;
           Tables.S (Printf.sprintf "%.3e" (1e9 /. ns));
           Tables.S
             (match List.assoc_opt name baseline_ns with
             | Some b -> Printf.sprintf "%.2fx" (b /. ns)
             | None -> "-");
         ])
       rows);
  let path =
    match Sys.getenv_opt "BENCH_JSON" with Some p -> p | None -> "BENCH_1.json"
  in
  physical_json path rows;
  Tables.note "wrote %s\n" path
