(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- e3 e8   # a subset

   The paper is a framework paper without numeric tables; its
   reproducible artifacts are its worked examples, the Figure 2
   scenario, its two theorems, and its qualitative cost claims. Each
   experiment below regenerates one of them (see DESIGN.md section 4
   for the index). *)

let experiments =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("e10", Micro.run);
    ("e11", Experiments.e11);
    ("e14", Chaos.run);
    ("e15", Compiled.run);
    ("e16", Obs_overhead.run);
    ("e18", Federation.run);
    ("e19", Freshness.run);
    ("e20", Batching.run);
    ("figs", Experiments.figs);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S (known: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  Printf.printf "\nall experiments done in %.1fs\n" (Unix.gettimeofday () -. t0)
