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
