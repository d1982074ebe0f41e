(* Cost-based physical join chooser: variable classes, statistics,
   variable ordering and operator selection for collapsed join groups.
   See the interface for the design notes; join sizes are estimated
   from second frequency moments —

     |A ⋈ B on v| = Σ_k a_k·b_k ≤ √(F2_A(v)) · √(F2_B(v))

   which under uniform distributions reduces to the classic System-R
   |A|·|B|/√(d_A·d_B) and under skew prices the hub keys in. *)

type op = Nested_loop | Hash | Leapfrog

let op_name = function
  | Nested_loop -> "nested_loop"
  | Hash -> "hash"
  | Leapfrog -> "leapfrog"

(* ---- join-variable classes ---------------------------------------- *)

type var_class = { vc_attrs : string list; vc_inputs : int list }

(* union-find over attribute names, small enough for assoc tables *)
let classes ~attrs ~equi =
  let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec find a =
    match Hashtbl.find_opt parent a with
    | None | Some "" -> a
    | Some p ->
      let r = find p in
      if r <> p then Hashtbl.replace parent a r;
      r
  in
  let unite a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  Array.iter (List.iter (fun a -> ignore (find a))) attrs;
  List.iter (fun (a, b) -> unite a b) equi;
  (* root -> (members, input indices) *)
  let groups : (string, string list ref * int list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let group a =
    let r = find a in
    match Hashtbl.find_opt groups r with
    | Some g -> g
    | None ->
      let g = (ref [], ref []) in
      Hashtbl.add groups r g;
      g
  in
  Array.iteri
    (fun i attrs_i ->
      List.iter
        (fun a ->
          let members, inputs = group a in
          if not (List.mem a !members) then members := a :: !members;
          if not (List.mem i !inputs) then inputs := i :: !inputs)
        attrs_i)
    attrs;
  Hashtbl.fold
    (fun _ (members, inputs) acc ->
      let vc_inputs = List.sort_uniq compare !inputs in
      if List.length vc_inputs >= 2 then
        { vc_attrs = List.sort compare !members; vc_inputs } :: acc
      else acc)
    groups []
  |> List.sort (fun a b -> compare a.vc_attrs b.vc_attrs)

let class_attr_in vc attrs =
  List.find_opt (fun a -> List.mem a attrs) vc.vc_attrs

(* ---- statistics and estimates ------------------------------------- *)

type input = {
  in_name : string option;
  in_rows : int;
  in_vars : string list;
  in_distinct : (string * int) list;
  in_f2 : (string * float) list;
}

type decision = { op : op; order : int array; var_order : string list }

let force : op option ref = ref None

let distinct_of input v =
  match List.assoc_opt v input.in_distinct with
  | Some d -> max 1 (min d (max 1 input.in_rows))
  | None -> max 1 input.in_rows

(* second frequency moment of a variable's key distribution,
   F2 = sum over keys of (chain length)^2 — the quantity that prices a
   join under skew. Uniformity gives rows^2/d, which is the classic
   System-R denominator in disguise; F2 can never fall below it
   (Cauchy-Schwarz over d distinct keys) nor exceed rows^2, so
   measured values clamp to that band. Unknown defaults to uniform. *)
let f2_of input v =
  let rows = float_of_int (max 1 input.in_rows) in
  let uniform = rows *. rows /. float_of_int (distinct_of input v) in
  match List.assoc_opt v input.in_f2 with
  | Some f -> Float.max uniform (Float.min f (rows *. rows))
  | None -> uniform

let order_vars inputs =
  let vars =
    Array.fold_left
      (fun acc i -> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) acc i.in_vars)
      [] inputs
  in
  let keyed =
    List.map
      (fun v ->
        let containing =
          Array.fold_left
            (fun acc i -> if List.mem v i.in_vars then acc + 1 else acc)
            0 inputs
        in
        let min_d =
          Array.fold_left
            (fun acc i ->
              if List.mem v i.in_vars then min acc (distinct_of i v) else acc)
            max_int inputs
        in
        (v, min_d, containing))
      vars
  in
  List.sort
    (fun (va, da, ca) (vb, db, cb) ->
      (* ascending distinct, then more containing inputs, then name *)
      match compare da db with
      | 0 -> ( match compare cb ca with 0 -> compare va vb | c -> c)
      | c -> c)
    keyed
  |> List.map (fun (v, _, _) -> v)

(* a pseudo-input summarizing the accumulated left-deep prefix *)
let join_est acc b =
  let shared = List.filter (fun v -> List.mem v acc.in_vars) b.in_vars in
  let ra = float_of_int (max 1 acc.in_rows)
  and rb = float_of_int (max 1 b.in_rows) in
  (* |A join B on v| = sum_k a_k*b_k <= sqrt(F2_A(v)) * sqrt(F2_B(v))
     (Cauchy-Schwarz), with equality when the heavy keys coincide —
     the conservative assumption a chooser must make, since hub keys
     are exactly what worst-case optimal joins exist for. Uniform
     distributions reduce this to the System-R |A|*|B|/sqrt(dA*dB);
     extra shared variables contribute their selectivity factors
     multiplicatively (independence across variables). *)
  let size =
    List.fold_left
      (fun sz v ->
        sz *. (sqrt (f2_of acc v) /. ra) *. (sqrt (f2_of b v) /. rb))
      (ra *. rb) shared
  in
  let rows_int = max 1 (int_of_float (min size 1e18)) in
  let vars =
    List.fold_left
      (fun vs v -> if List.mem v vs then vs else v :: vs)
      acc.in_vars b.in_vars
  in
  let distinct =
    List.map
      (fun v ->
        let d =
          match (List.mem v acc.in_vars, List.mem v b.in_vars) with
          | true, true -> min (distinct_of acc v) (distinct_of b v)
          | true, false -> distinct_of acc v
          | _ -> distinct_of b v
        in
        (v, min d rows_int))
      vars
  in
  ( size,
    {
      in_name = None;
      in_rows = rows_int;
      in_vars = vars;
      in_distinct = distinct;
      (* the prefix's per-variable skew is not tracked further:
         uniform-over-distinct (the in_f2 default) is assumed for
         later steps, where the first blowup already dominates *)
      in_f2 = [];
    } )

(* greedy left-deep order: smallest input first, then at each step the
   input with the smallest estimated intermediate, preferring inputs
   that share a variable with the prefix (avoid cross products) *)
let hash_order inputs =
  let n = Array.length inputs in
  let used = Array.make n false in
  let first = ref 0 in
  for i = 1 to n - 1 do
    if inputs.(i).in_rows < inputs.(!first).in_rows then first := i
  done;
  used.(!first) <- true;
  let order = ref [ !first ] in
  let acc = ref inputs.(!first) in
  let build = ref 0.0 and inter = ref 0.0 in
  for _ = 2 to n do
    let best = ref (-1) and best_size = ref infinity and best_shared = ref false in
    for j = 0 to n - 1 do
      if not used.(j) then begin
        let shared =
          List.exists (fun v -> List.mem v !acc.in_vars) inputs.(j).in_vars
        in
        let size, _ = join_est !acc inputs.(j) in
        let better =
          match (shared, !best_shared) with
          | true, false -> true
          | false, true -> false
          | _ -> size < !best_size
        in
        if !best < 0 || better then begin
          best := j;
          best_size := size;
          best_shared := shared
        end
      end
    done;
    let j = !best in
    used.(j) <- true;
    order := j :: !order;
    build := !build +. float_of_int inputs.(j).in_rows;
    let size, acc' = join_est !acc inputs.(j) in
    inter := !inter +. size;
    acc := acc'
  done;
  let out = !acc in
  ( Array.of_list (List.rev !order),
    float_of_int inputs.(!first).in_rows +. !build +. !inter,
    float_of_int out.in_rows )

let log2 x = if x <= 1.0 then 0.0 else log x /. log 2.0

let leapfrog_usable inputs =
  Array.length inputs >= 2 && Array.for_all (fun i -> i.in_vars <> []) inputs

let leapfrog_cost inputs ~est_out =
  Array.fold_left
    (fun c i ->
      let r = float_of_int (max 1 i.in_rows) in
      c +. (r *. (1.0 +. log2 r)))
    0.0 inputs
  +. est_out

let choose inputs =
  let n = Array.length inputs in
  assert (n >= 2);
  let no_vars = Array.for_all (fun i -> i.in_vars = []) inputs in
  let order, est_hash, est_out = hash_order inputs in
  let usable = leapfrog_usable inputs in
  let est_leapfrog =
    if usable then leapfrog_cost inputs ~est_out else infinity
  in
  let op =
    match !force with
    | Some Leapfrog when usable -> Leapfrog
    | Some Leapfrog -> Hash (* guard: no usable sorted trie *)
    | Some op -> op
    | None ->
      if no_vars then Nested_loop
      else if est_leapfrog < est_hash then Leapfrog
      else Hash
  in
  { op; order; var_order = order_vars inputs }
