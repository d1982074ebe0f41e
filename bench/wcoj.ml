(* E17 — worst-case optimal multi-way joins and the cost-based
   physical join chooser (PR 6).

   Join shapes: a skewed triangle (hub vertices of degree ~1000 at
   1e5 edges, so every pairwise start materializes a quadratic
   intermediate), a low-fanout star, and a near-unique chain — each
   run through the compiled engine with the operator forced to the
   pairwise hash cascade, forced to leapfrog triejoin, and left to the
   cost model (recording which operator it picked).

   Emits BENCH_6.json. *)

open Relalg

(* deterministic mixer — the bench must not depend on Random state;
   the xor-shift folds high bits down so low-bit structure of the
   input (parity of the salt, stride of k) does not survive into the
   moduli below *)
let mix k =
  let h = k * 2654435761 in
  (h lxor (h lsr 16)) land 0x3FFFFFFF

let sizes =
  let all = [ 1_000; 10_000; 100_000 ] in
  match Option.bind (Sys.getenv_opt "BENCH_SIZES_MAX") int_of_string_opt with
  | Some cap -> List.filter (fun n -> n <= cap) all
  | None -> all

(* min over timed runs (the noise-robust estimator on a shared
   machine): a call over ~0.08s (the forced-hash triangle at 1e5 runs
   for seconds) is timed three times on its own; a cheaper one in
   five batches of ~0.12s *)
let seconds_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let batch iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let est = batch 1 in
  let iters, runs =
    if est > 0.08 then (1, 3)
    else (max 3 (min 1_500_000 (int_of_float (0.12 /. max est 1e-7))), 5)
  in
  let best = ref (if iters = 1 then est else batch iters) in
  for _ = 2 to runs do
    best := Float.min !best (batch iters)
  done;
  !best

let with_force op f =
  let saved = !Joinopt.force in
  Joinopt.force := op;
  Fun.protect ~finally:(fun () -> Joinopt.force := saved) f

(* ---- join shapes -------------------------------------------------- *)

let pair_schema a b = Schema.make [ (a, Value.TInt); (b, Value.TInt) ]

let edge_bag schema a b pairs =
  Bag.of_tuples schema
    (List.map
       (fun (x, y) -> Tuple.of_list [ (a, Value.Int x); (b, Value.Int y) ])
       pairs)

(* n edges over [hubs] hub vertices and [v] ordinary vertices: 10% of
   the edges leave a hub, 10% enter one, the rest are uniform — at
   n = 1e5 each of the 10 hubs has degree ~1000 on each side. Hub ids
   live in [0, hubs), ordinary ids in [hubs, hubs + v). *)
let skewed_edges ~n ~hubs ~v ~salt =
  List.init n (fun k ->
      let m j = mix ((k * 6) + salt + j) in
      if k mod 10 = 0 then (m 1 mod hubs, hubs + (m 2 mod v))
      else if k mod 10 = 1 then (hubs + (m 1 mod v), m 2 mod hubs)
      else (hubs + (m 1 mod v), hubs + (m 2 mod v)))

let uniform_edges ~n ~v ~salt =
  List.init n (fun k ->
      let m j = mix ((k * 6) + salt + j) in
      (m 1 mod v, m 2 mod v))

(* R(ra,rb) ⋈ S(sb,sc) ⋈ T(tc,ta) on rb=sb ∧ sc=tc ∧ ta=ra: three
   join variables, every pairwise start quadratic under the hub skew *)
let triangle_expr =
  Expr.(
    join
      ~on:
        (Predicate.conj
           [ Predicate.eq_attrs "sc" "tc"; Predicate.eq_attrs "ta" "ra" ])
      (join ~on:(Predicate.eq_attrs "rb" "sb") (base "R") (base "S"))
      (base "T"))

let triangle_env n =
  let hubs = max 1 (n / 10_000) and v = max 16 (n / 10) in
  let r =
    edge_bag (pair_schema "ra" "rb") "ra" "rb" (skewed_edges ~n ~hubs ~v ~salt:1)
  in
  let s =
    edge_bag (pair_schema "sb" "sc") "sb" "sc" (skewed_edges ~n ~hubs ~v ~salt:2)
  in
  let t =
    edge_bag (pair_schema "tc" "ta") "tc" "ta" (skewed_edges ~n ~hubs ~v ~salt:3)
  in
  function "R" -> Some r | "S" -> Some s | "T" -> Some t | _ -> None

(* star on one shared variable, fanout ~2 per input — low skew, small
   output; the cost model should keep the hash cascade here *)
let star_expr =
  Expr.(
    join
      ~on:(Predicate.eq_attrs "a1" "a3")
      (join ~on:(Predicate.eq_attrs "a1" "a2") (base "R") (base "S"))
      (base "T"))

let star_env n =
  let v = max 8 (n / 2) in
  let mk a b salt =
    edge_bag (pair_schema a b) a b
      (List.init n (fun k -> (mix ((k * 6) + salt) mod v, k)))
  in
  let r = mk "a1" "p1" 1 and s = mk "a2" "p2" 2 and t = mk "a3" "p3" 3 in
  function "R" -> Some r | "S" -> Some s | "T" -> Some t | _ -> None

(* chain over near-unique keys: linear intermediates, nothing for
   leapfrog to win — its sorted trie builds are pure overhead *)
let chain3_expr =
  Expr.(
    join
      ~on:(Predicate.eq_attrs "sc" "tc")
      (join ~on:(Predicate.eq_attrs "rb" "sb") (base "R") (base "S"))
      (base "T"))

let chain3_env n =
  let r =
    edge_bag (pair_schema "ra" "rb") "ra" "rb" (uniform_edges ~n ~v:n ~salt:1)
  in
  let s =
    edge_bag (pair_schema "sb" "sc") "sb" "sc" (uniform_edges ~n ~v:n ~salt:2)
  in
  let t =
    edge_bag (pair_schema "tc" "ta") "tc" "ta" (uniform_edges ~n ~v:n ~salt:3)
  in
  function "R" -> Some r | "S" -> Some s | "T" -> Some t | _ -> None

type shape_row = {
  sh_name : string;
  sh_n : int;
  sh_out : int;
  sh_hash_ms : float;
  sh_leapfrog_ms : float;
  sh_auto_ms : float;
  sh_auto_op : string;
}

let shape_rows sizes =
  let shapes =
    [
      ("triangle-skew", triangle_expr, triangle_env);
      ("star", star_expr, star_env);
      ("chain", chain3_expr, chain3_env);
    ]
  in
  List.concat_map
    (fun (name, expr, mk_env) ->
      List.map
        (fun n ->
          Gc.compact ();
          let env = mk_env n in
          let eval () = ignore (Eval.eval ~env expr) in
          let hash_s = with_force (Some Joinopt.Hash) (fun () ->
              seconds_per_call eval)
          in
          let lf_s = with_force (Some Joinopt.Leapfrog) (fun () ->
              seconds_per_call eval)
          in
          (* the operator whose run count the chooser's own run moves
             (one collapsed join group per shape) *)
          let ops = [ Joinopt.Hash; Joinopt.Leapfrog; Joinopt.Nested_loop ] in
          let before = List.map Plan.join_runs ops in
          let out, auto_s =
            with_force None (fun () ->
                let out = Bag.cardinal (Eval.eval ~env expr) in
                (out, seconds_per_call eval))
          in
          let auto_op =
            match
              List.find_opt
                (fun (op, b) -> Plan.join_runs op > b)
                (List.combine ops before)
            with
            | Some (op, _) -> Joinopt.op_name op
            | None -> "?"
          in
          {
            sh_name = name;
            sh_n = n;
            sh_out = out;
            sh_hash_ms = hash_s *. 1e3;
            sh_leapfrog_ms = lf_s *. 1e3;
            sh_auto_ms = auto_s *. 1e3;
            sh_auto_op = auto_op;
          })
        sizes)
    shapes

(* ---- output ------------------------------------------------------- *)

let json path shapes =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"experiment\": \"e17 worst-case optimal joins\",\n";
  p "  \"shapes\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"shape\": %S, \"n\": %d, \"out_tuples\": %d, \"hash_ms\": \
         %.3f, \"leapfrog_ms\": %.3f, \"auto_ms\": %.3f, \"auto_op\": %S, \
         \"leapfrog_speedup_vs_hash\": %.2f}%s\n"
        r.sh_name r.sh_n r.sh_out r.sh_hash_ms r.sh_leapfrog_ms r.sh_auto_ms
        r.sh_auto_op
        (r.sh_hash_ms /. r.sh_leapfrog_ms)
        (if i = List.length shapes - 1 then "" else ","))
    shapes;
  p "  ]\n}\n";
  close_out oc

let run () =
  Tables.section "E17  worst-case optimal joins; physical join chooser";
  let shapes = shape_rows sizes in
  Tables.print
    ~title:"3-way join shapes: forced hash vs forced leapfrog vs chooser"
    ~header:
      [ "shape"; "out"; "hash ms"; "leapfrog ms"; "auto ms"; "auto op"; "lf/hash" ]
    (List.map
       (fun r ->
         [
           Tables.S (Printf.sprintf "%s/%d" r.sh_name r.sh_n);
           Tables.I r.sh_out;
           Tables.F r.sh_hash_ms;
           Tables.F r.sh_leapfrog_ms;
           Tables.F r.sh_auto_ms;
           Tables.S r.sh_auto_op;
           Tables.S (Printf.sprintf "%.2fx" (r.sh_hash_ms /. r.sh_leapfrog_ms));
         ])
       shapes);
  json "BENCH_6.json" shapes;
  Tables.note "wrote BENCH_6.json\n"
