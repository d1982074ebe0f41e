(* E17 — worst-case optimal multi-way joins and the cost-based
   physical join chooser (PR 6).

   Three suites:

   1. join shapes: a skewed triangle (hub vertices of degree ~1000 at
      1e5 edges, so every pairwise start materializes a quadratic
      intermediate), a low-fanout star, and a near-unique chain — each
      run through the compiled engine with the operator forced to the
      pairwise hash cascade, forced to leapfrog triejoin, and left to
      the cost model (recording which operator it picked).

   2. the Example 6.1 delta workload, telescoped: ΔA ⋈ B ⋈ C over a
      right-deep expression with indexed stored tables for B and C.
      The binary interpretive rules must evaluate B ⋈ C in full per
      transaction; the n-ary compiled rule binds the delta first and
      probes the rest, so its cost tracks |Δ|, not |B ⋈ C|.

   3. the E15 interpreter-vs-compiled rows rerun after the chooser
      landed — the chain/spj rows must not regress, and the delta
      rows show where the n-ary rule moved them.

   Emits BENCH_6.json. *)

open Relalg
open Delta
open Storage

(* deterministic mixer — the bench must not depend on Random state;
   the xor-shift folds high bits down so low-bit structure of the
   input (parity of the salt, stride of k) does not survive into the
   moduli below *)
let mix k =
  let h = k * 2654435761 in
  (h lxor (h lsr 16)) land 0x3FFFFFFF

(* heavy-call-aware timing: the forced-hash triangle at 1e5 runs for
   seconds per call, where Micro's fixed ~0.12s batches would spin for
   minutes; take the min of three single calls instead *)
let seconds_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let est = once () in
  if est > 0.08 then begin
    let best = ref est in
    for _ = 1 to 2 do
      best := Float.min !best (once ())
    done;
    !best
  end
  else Micro.seconds_per_call f

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
          (* watch the chooser's own run to record the operator it
             picked (one collapsed join group per shape) *)
          let auto_op = ref "?" in
          let saved = !Joinopt.notify in
          Joinopt.notify :=
            (fun d ->
              auto_op := Joinopt.op_name d.Joinopt.op;
              saved d);
          let out, auto_s =
            Fun.protect
              ~finally:(fun () -> Joinopt.notify := saved)
              (fun () ->
                with_force None (fun () ->
                    let out = Bag.cardinal (Eval.eval ~env expr) in
                    (out, seconds_per_call eval)))
          in
          {
            sh_name = name;
            sh_n = n;
            sh_out = out;
            sh_hash_ms = hash_s *. 1e3;
            sh_leapfrog_ms = lf_s *. 1e3;
            sh_auto_ms = auto_s *. 1e3;
            sh_auto_op = !auto_op;
          })
        sizes)
    shapes

(* ---- Example 6.1 delta workload, telescoped ----------------------- *)

let a_schema = pair_schema "ax" "ab"
let b_schema = pair_schema "bb" "bc"
let c_schema = pair_schema "cc" "cd"

(* right-deep A ⋈ (B ⋈ C): the binary rules see ΔA against the
   non-base subtree B ⋈ C and must evaluate it in full; the flattened
   rule probes B then C *)
let delta61_expr =
  Expr.(
    join
      ~on:(Predicate.eq_attrs "ab" "bb")
      (base "A")
      (join ~on:(Predicate.eq_attrs "bc" "cc") (base "B") (base "C")))

let delta61_setup n =
  let tup a b x y = Tuple.of_list [ (a, Value.Int x); (b, Value.Int y) ] in
  let a_bag =
    Bag.of_tuples a_schema (List.init n (fun i -> tup "ax" "ab" i i))
  in
  let b_rows = List.init n (fun i -> tup "bb" "bc" i (mix i mod n)) in
  let c_rows = List.init n (fun i -> tup "cc" "cd" i (i mod 7)) in
  let b_bag = Bag.of_tuples b_schema b_rows in
  let c_bag = Bag.of_tuples c_schema c_rows in
  let b_table = Table.create ~indexes:[ "bb" ] ~name:"B" b_schema in
  List.iter (Table.insert b_table) b_rows;
  let c_table = Table.create ~indexes:[ "cc" ] ~name:"C" c_schema in
  List.iter (Table.insert c_table) c_rows;
  let env = function
    | "A" -> Some a_bag
    | "B" -> Some b_bag
    | "C" -> Some c_bag
    | _ -> None
  in
  let atoms = max 2 (n / 100) in
  let d =
    let rec go acc i =
      if i >= atoms then acc
      else
        let acc =
          if i mod 2 = 0 then
            Rel_delta.insert acc (tup "ax" "ab" (n + i) (mix i mod n))
          else Rel_delta.delete acc (tup "ax" "ab" i i)
        in
        go acc (i + 1)
    in
    go (Rel_delta.empty a_schema) 0
  in
  let deltas = function "A" -> Some d | _ -> None in
  let indexed_join ~name ~on ?filter d =
    match name with
    | "B" -> Table.delta_join ~on ?filter d b_table
    | "C" -> Table.delta_join ~on ?filter d c_table
    | _ -> None
  in
  (env, deltas, indexed_join, atoms)

type delta_row = {
  d_n : int;
  d_atoms : int;
  d_interp_us : float;
  d_compiled_us : float;
}

let delta61_rows sizes =
  List.map
    (fun n ->
      Gc.compact ();
      let env, deltas, indexed_join, atoms = delta61_setup n in
      let interp () =
        ignore
          (Inc_eval.delta_of_expr_interp ~indexed_join ~env ~deltas delta61_expr)
      in
      let compiled () =
        ignore (Inc_eval.delta_of_expr ~indexed_join ~env ~deltas delta61_expr)
      in
      compiled ();
      let i_us = seconds_per_call interp *. 1e6 /. float_of_int atoms in
      let c_us = seconds_per_call compiled *. 1e6 /. float_of_int atoms in
      { d_n = n; d_atoms = atoms; d_interp_us = i_us; d_compiled_us = c_us })
    sizes

(* ---- output ------------------------------------------------------- *)

let json path shapes deltas =
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
  p "  ],\n  \"delta61\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"n\": %d, \"atoms\": %d, \"interp_us_per_atom\": %.3f, \
         \"compiled_us_per_atom\": %.3f, \"speedup\": %.2f}%s\n"
        r.d_n r.d_atoms r.d_interp_us r.d_compiled_us
        (r.d_interp_us /. r.d_compiled_us)
        (if i = List.length deltas - 1 then "" else ","))
    deltas;
  p "  ]\n}\n";
  close_out oc

let run () =
  Tables.section "E17  worst-case optimal joins; physical join chooser";
  let sizes = Compiled.sizes in
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
  let deltas = delta61_rows sizes in
  Tables.print
    ~title:"Example 6.1 delta, right-deep \xce\x94A \xe2\x8b\x88 B \xe2\x8b\x88 C (us/atom)"
    ~header:[ "n"; "atoms"; "interp"; "compiled n-ary"; "speedup" ]
    (List.map
       (fun r ->
         [
           Tables.I r.d_n;
           Tables.I r.d_atoms;
           Tables.F r.d_interp_us;
           Tables.F r.d_compiled_us;
           Tables.S (Printf.sprintf "%.2fx" (r.d_interp_us /. r.d_compiled_us));
         ])
       deltas);
  json "BENCH_6.json" shapes deltas;
  Tables.note "wrote BENCH_6.json\n"
