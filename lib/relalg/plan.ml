(* Plan compiler: algebra expressions compiled into physical operator
   pipelines. The compiler remembers nothing: a caller that runs an
   expression repeatedly keeps the plan, or passes a memo it owns to
   [of_expr] (the mediator keeps one per instance).

   An expression is compiled to a [prog] tree whose unary chains
   (select / project / rename) are fused into a single per-tuple pass
   over the child's output — no intermediate bag per operator — and
   whose predicates are closures over schema slot indices
   ({!Predicate.compile}, {!Tuple.projector}, {!Tuple.renamer}): after
   the first tuple of each descriptor no attribute-name lookup happens
   on the hot path. Execution streams tuples from sources through the
   fused stages into one output builder.

   Chains of joins collapse into a single n-ary join group carrying
   the conjunction of every join predicate (selections commute with
   inner joins, so where each conjunct is applied is a physical
   choice). A group whose inputs share no join variable (a cross
   product or a pure theta join) runs as a nested loop; every other
   group runs as a left-deep streaming hash cascade. The cascade
   streams its smallest input through key tables built over the
   others, ordered on each execution from the inputs' sizes alone; a
   two-input group streams its larger input through a table over the
   smaller.

   Schemas are resolved at execution time from the environment's bags,
   NOT at compile time from static declarations: the same node
   definition runs over full leaf relations, materialized projections,
   and VAP temporaries carrying only the requested attributes, and
   join variables depend on the attribute sets actually present. A
   plan is therefore schema-polymorphic — a function of the expression
   alone — and every stage re-derives its slot plans per descriptor
   through the one-entry memos its closures own (a join node owns one
   tuple merger per merge position).

   The tests check plans against an interpretive evaluator, value for
   value. Operation charging is the per-operator input cardinalities,
   with two deviations: a fused stage charges per tuple streamed into
   it, and a collapsed join group charges its streamed input, build
   sides, intermediate results and output rather than the sum over the
   original binary nodes. *)

exception Unbound_relation of string

(* the global tuple-operation counter feeding the simulator's cost
   model lives here (the compiled path is the default evaluator);
   {!Eval} re-exports it under its historical name *)
let ops_counter = ref 0
let tuple_ops () = !ops_counter
let reset_tuple_ops () = ops_counter := 0
let charge_tuple_ops n = ops_counter := !ops_counter + n

type step =
  | Filter of (Tuple.t -> bool)
  | Gather of string list * (Tuple.t -> Tuple.t) (* projection *)
  | Remap of (string * string) list * (Tuple.t -> Tuple.t) (* renaming *)

type prog =
  | Source of string
  | Fused of step array * prog (* steps innermost-first *)
  | Join of njoin
  | Union of prog * prog
  | Diff of prog * prog

and njoin = {
  on : Predicate.t; (* conjunction over the collapsed join chain *)
  test : (Tuple.t -> bool) option; (* compiled [on]; None = True *)
  conjs : conjunct array; (* compiled conjuncts, conjunction order *)
  inputs : prog array; (* >= 2, original left-to-right order *)
  merges : (Tuple.t -> Tuple.t -> Tuple.t option) array;
      (* one {!Tuple.merger} per merge position: cascade step [k] or
         nested-loop depth [k] *)
}

and conjunct = { c_attrs : string list; c_test : Tuple.t -> bool }

type t = prog

(* collect a maximal unary chain; the accumulator ends up
   innermost-first, which is execution order *)
let rec peel acc = function
  | Expr.Select (p, e) -> peel (Filter (Predicate.compile p) :: acc) e
  | Expr.Project (names, e) ->
    peel (Gather (names, Tuple.projector names) :: acc) e
  | Expr.Rename (m, e) -> peel (Remap (m, Tuple.renamer m) :: acc) e
  | e -> (acc, e)

(* collapse a chain of joins into its inputs (left-to-right) and the
   conjuncts of every predicate along the chain — valid for inner
   joins, where predicates commute past join boundaries *)
let rec flatten_join = function
  | Expr.Join (a, p, b) ->
    let ia, pa = flatten_join a in
    let ib, pb = flatten_join b in
    (ia @ ib, pa @ Predicate.conjuncts p @ pb)
  | e -> ([ e ], [])

let rec compile_prog expr =
  match expr with
  | Expr.Base n -> Source n
  | Expr.Select _ | Expr.Project _ | Expr.Rename _ ->
    let steps, sub = peel [] expr in
    Fused (Array.of_list steps, compile_prog sub)
  | Expr.Join _ ->
    let inputs, conj_list = flatten_join expr in
    let conj_list =
      List.filter (fun p -> not (Predicate.equal p Predicate.True)) conj_list
    in
    let on = Predicate.conj conj_list in
    Join
      {
        on;
        test = (if conj_list = [] then None else Some (Predicate.compile on));
        conjs =
          Array.of_list
            (List.map
               (fun p -> { c_attrs = Predicate.attrs p; c_test = Predicate.compile p })
               conj_list);
        inputs = Array.of_list (List.map compile_prog inputs);
        merges = Array.init (List.length inputs) (fun _ -> Tuple.merger ());
      }
  | Expr.Union (a, b) -> Union (compile_prog a, compile_prog b)
  | Expr.Diff (a, b) -> Diff (compile_prog a, compile_prog b)

let resolve env name =
  match env name with
  | Some bag -> bag
  | None -> raise (Unbound_relation name)

let bag_err fmt = Format.kasprintf (fun s -> raise (Bag.Bag_error s)) fmt

(* runtime schema of a node's output, derived from the environment's
   bags; also performs the structural validation the interpreter's bag
   operators would (rename mappings, union compatibility) *)
let rec out_schema prog ~env =
  match prog with
  | Source n -> Bag.schema (resolve env n)
  | Fused (steps, sub) ->
    let s = out_schema sub ~env in
    Array.fold_left
      (fun s step ->
        match step with
        | Filter _ -> s
        | Gather (names, _) -> Schema.project s names
        | Remap (m, _) ->
          Expr.schema_of (fun _ -> s) (Expr.Rename (m, Expr.Base "_")))
      s steps
  | Join j ->
    let s = ref (out_schema j.inputs.(0) ~env) in
    for i = 1 to Array.length j.inputs - 1 do
      s := Schema.join !s (out_schema j.inputs.(i) ~env)
    done;
    !s
  | Union (a, b) ->
    let sa = out_schema a ~env and sb = out_schema b ~env in
    if not (Schema.union_compatible sa sb) then
      bag_err "union: schemas %s and %s are not union-compatible"
        (Schema.to_string sa) (Schema.to_string sb);
    sa
  | Diff (a, b) ->
    let sa = out_schema a ~env and sb = out_schema b ~env in
    if not (Schema.union_compatible sa sb) then
      bag_err "set_diff: schemas %s and %s are not union-compatible"
        (Schema.to_string sa) (Schema.to_string sb);
    sa

(* key tables for the streaming hash joins, over Value's own
   equality/hash (Int 1 and Float 1. compare equal and must collide) *)
module VKey_table = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash key = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 key
end)

(* a join-group input at execution time. Materialization is lazy: the
   cascade streams each input exactly once and never buffers it; only
   the nested loop (exact row counts for its charge, repeated
   iteration) forces a buffer. [v_sig_rows] is the cheap size that
   orders the cascade: exact for a source leaf, the underlying leaf
   total for a derived input. *)
type view = {
  v_name : string option;
  v_schema : Schema.t;
  v_sig_rows : int;
  v_stream : (Tuple.t -> int -> unit) -> unit;
  mutable v_mat : (Tuple.t * int) list option;
  mutable v_rows : int; (* exact support; -1 until known *)
}

let materialize v =
  match v.v_mat with
  | Some l -> l
  | None ->
    let buf = ref [] and c = ref 0 in
    v.v_stream (fun t m ->
        incr c;
        buf := (t, m) :: !buf);
    let l = !buf in
    v.v_mat <- Some l;
    v.v_rows <- !c;
    l

let v_rows v = if v.v_rows >= 0 then v.v_rows else (ignore (materialize v); v.v_rows)

(* repeatable iteration: source bags re-iterate in place, everything
   else buffers on first use *)
let v_iter v f =
  match v.v_mat with
  | Some l -> List.iter (fun (t, m) -> f t m) l
  | None ->
    if v.v_name <> None then v.v_stream f
    else List.iter (fun (t, m) -> f t m) (materialize v)

(* join variables: union-find over attribute names. Two attributes
   fall in one class when they share a name across inputs (natural
   join) or appear in an equi-pair of the join condition; only classes
   spanning at least two inputs are kept, ordered by first member. *)
type var_class = { vc_attrs : string list; vc_inputs : int list }

let classes ~attrs ~equi =
  let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec find a =
    match Hashtbl.find_opt parent a with
    | None -> a
    | Some p ->
      let r = find p in
      if r <> p then Hashtbl.replace parent a r;
      r
  in
  List.iter
    (fun (a, b) ->
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb)
    equi;
  (* root -> (members, input indices) *)
  let groups : (string, string list ref * int list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun i attrs_i ->
      List.iter
        (fun a ->
          let r = find a in
          let members, inputs =
            match Hashtbl.find_opt groups r with
            | Some g -> g
            | None ->
              let g = (ref [], ref []) in
              Hashtbl.add groups r g;
              g
          in
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

(* an input's representative attribute for a class *)
let class_attr_in vc attrs = List.find_opt (fun a -> List.mem a attrs) vc.vc_attrs

(* cascade order: the smallest input by [v_sig_rows] first (ties to the
   leftmost), then at each step the smallest remaining input sharing a
   join variable with the prefix, or the smallest remaining input when
   none does. A two-input group is the exception: it streams the larger
   input through a key table over the smaller, the cheaper table to
   build and hold; the charge |A| + |B| + |out| is the same either
   way. *)
let cascade_order views classes =
  let n = Array.length views in
  if n = 2 then
    if views.(0).v_sig_rows >= views.(1).v_sig_rows then [| 0; 1 |]
    else [| 1; 0 |]
  else begin
    let used = Array.make n false in
    let shares i =
      List.exists
        (fun vc ->
          List.mem i vc.vc_inputs
          && List.exists (fun k -> used.(k)) vc.vc_inputs)
        classes
    in
    let smallest ok =
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if
          (not used.(i)) && ok i
          && (!best < 0 || views.(i).v_sig_rows < views.(!best).v_sig_rows)
        then best := i
      done;
      !best
    in
    Array.init n (fun _ ->
        let i =
          match smallest shares with -1 -> smallest (fun _ -> true) | i -> i
        in
        used.(i) <- true;
        i)
  end

(* one cascade step: the key table built over a join input plus the
   probe keyer from the accumulated prefix and the conjuncts that
   become checkable after this merge. A key holds its rows in one
   cell, most recent first, so a probe is one lookup that allocates
   nothing. *)
type rows = (Tuple.t * int) list ref

type cstep =
  | C1 of rows VKey_table.t * (Tuple.t -> Value.t) * (Tuple.t -> bool) array
  | CN of
      rows Key_table.t * (Tuple.t -> Value.t list) * (Tuple.t -> bool) array

(* The per-tuple loops below are top-level functions taking their
   free variables as arguments: without flambda, a local [let rec]
   that captures them allocates a closure on every call. *)

let rec passes_from checks t i =
  i >= Array.length checks
  || ((Array.unsafe_get checks i) t && passes_from checks t (i + 1))

let passes checks t = passes_from checks t 0

(* run one row through a fused chain's steps from [i] on *)
let rec run_steps steps emit t m i =
  if i >= Array.length steps then emit t m
  else begin
    incr ops_counter;
    match Array.unsafe_get steps i with
    | Filter f -> if f t then run_steps steps emit t m (i + 1)
    | Gather (_, g) -> run_steps steps emit (g t) m (i + 1)
    | Remap (_, r) -> run_steps steps emit (r t) m (i + 1)
  end

(* builds a two-argument closure: a partial application of a
   four-argument function would pay the generic apply on every row *)
let feed steps emit =
  let row t m = run_steps steps emit t m 0 in
  row

let rec stream prog ~env ~(emit : Tuple.t -> int -> unit) =
  match prog with
  | Source n -> Bag.iter emit (resolve env n)
  | Fused (steps, sub) ->
    stream sub ~env ~emit:(fun t m -> run_steps steps emit t m 0)
  | Join j -> exec_nary j ~env ~emit
  | Union (a, b) ->
    ignore (out_schema prog ~env : Schema.t);
    let pass t m =
      incr ops_counter;
      emit t m
    in
    stream a ~env ~emit:pass;
    stream b ~env ~emit:pass
  | Diff (a, b) ->
    ignore (out_schema prog ~env : Schema.t);
    (* set difference of the set-images: both sides deduplicated *)
    let in_b = Tuple.Tbl.create 64 in
    stream b ~env ~emit:(fun t _ ->
        if not (Tuple.Tbl.mem in_b t) then begin
          incr ops_counter;
          Tuple.Tbl.add in_b t ()
        end);
    let seen = Tuple.Tbl.create 64 in
    stream a ~env ~emit:(fun t _ ->
        if not (Tuple.Tbl.mem seen t) then begin
          Tuple.Tbl.add seen t ();
          incr ops_counter;
          if not (Tuple.Tbl.mem in_b t) then emit t 1
        end)

and exec_nary j ~env ~emit =
  let rec leaf_rows p =
    match p with
    | Source name -> Bag.support_cardinal (resolve env name)
    | Fused (_, sub) -> leaf_rows sub
    | Join g -> Array.fold_left (fun a q -> a + leaf_rows q) 0 g.inputs
    | Union (a, b) | Diff (a, b) -> leaf_rows a + leaf_rows b
  in
  let views =
    Array.map
      (fun p ->
        match p with
        | Source name ->
          let b = resolve env name in
          let n = Bag.support_cardinal b in
          {
            v_name = Some name;
            v_schema = Bag.schema b;
            v_sig_rows = n;
            v_stream = (fun f -> Bag.iter f b);
            v_mat = None;
            v_rows = n;
          }
        | _ ->
          {
            v_name = None;
            v_schema = out_schema p ~env;
            v_sig_rows = leaf_rows p;
            v_stream = (fun f -> stream p ~env ~emit:f);
            v_mat = None;
            v_rows = -1;
          })
      j.inputs
  in
  (* join-variable classes over the RUNTIME schemas; equi-pairs are
     kept only when both attributes actually occur, so key planning
     matches what the interpreter's per-node join_keys would see over
     narrowed env bags *)
  let attr_lists = Array.map (fun v -> Schema.attrs v.v_schema) views in
  let present a = Array.exists (List.mem a) attr_lists in
  let equi =
    List.filter (fun (a, b) -> present a && present b) (Predicate.equi_pairs j.on)
  in
  let classes = classes ~attrs:attr_lists ~equi in
  if classes = [] then exec_nested j views ~emit
  else exec_cascade j views attr_lists classes ~emit

(* left-deep streaming hash cascade in {!cascade_order}: key tables
   over every input but the first, the first streamed through the
   probe chain. Each conjunct is applied at the first step whose
   merged schema covers its attributes; conjuncts never covered are
   still evaluated on the output (raising exactly as the interpreter
   would on a dangling attribute). *)
and exec_cascade j views attr_lists classes ~emit =
  let order = cascade_order views classes in
  let n = Array.length order in
  let nconjs = Array.length j.conjs in
  let applied = Array.make nconjs false in
  let take_applicable schema =
    let out = ref [] in
    for c = nconjs - 1 downto 0 do
      if
        (not applied.(c))
        && List.for_all (fun a -> Schema.mem schema a) j.conjs.(c).c_attrs
      then begin
        applied.(c) <- true;
        out := j.conjs.(c).c_test :: !out
      end
    done;
    Array.of_list !out
  in
  let first = order.(0) in
  let merged = ref views.(first).v_schema in
  let first_checks = take_applicable !merged in
  let charged = ref 0 in
  let steps =
    Array.init (n - 1) (fun k ->
        let i = order.(k + 1) in
        let si = views.(i).v_schema in
        let shared =
          List.filter_map
            (fun vc ->
              match
                ( class_attr_in vc (Schema.attrs !merged),
                  class_attr_in vc attr_lists.(i) )
              with
              | Some la, Some ra -> Some (la, ra)
              | _ -> None)
            classes
        in
        let merged' = Schema.join !merged si in
        let checks = take_applicable merged' in
        merged := merged';
        (* sized from the input's exact row count when known (a source
           leaf), never from a derived input's leaf total *)
        let size =
          if views.(i).v_rows >= 0 then max 16 views.(i).v_rows else 64
        in
        match shared with
        | [ (la, ra) ] ->
          let tbl = VKey_table.create size in
          let kb = Tuple.keyer1 ra in
          views.(i).v_stream (fun t m ->
              incr charged;
              let k = kb t in
              match VKey_table.find tbl k with
              | rows -> rows := (t, m) :: !rows
              | exception Not_found -> VKey_table.add tbl k (ref [ (t, m) ]));
          C1 (tbl, Tuple.keyer1 la, checks)
        | _ ->
          let tbl = Key_table.create size in
          let kb = Tuple.keyer (List.map snd shared) in
          views.(i).v_stream (fun t m ->
              incr charged;
              let k = kb t in
              match Key_table.find tbl k with
              | rows -> rows := (t, m) :: !rows
              | exception Not_found -> Key_table.add tbl k (ref [ (t, m) ]));
          CN (tbl, Tuple.keyer (List.map fst shared), checks))
  in
  let leftovers =
    let out = ref [] in
    for c = nconjs - 1 downto 0 do
      if not applied.(c) then out := j.conjs.(c).c_test :: !out
    done;
    Array.of_list !out
  in
  let nsteps = n - 1 in
  let rec go idx t m =
    if idx >= nsteps then begin
      if passes leftovers t then begin
        incr charged;
        emit t m
      end
    end
    else
      match Array.unsafe_get steps idx with
      | C1 (tbl, key, checks) -> (
        match VKey_table.find tbl (key t) with
        | rows -> merge_all idx checks t m !rows
        | exception Not_found -> ())
      | CN (tbl, key, checks) -> (
        match Key_table.find tbl (key t) with
        | rows -> merge_all idx checks t m !rows
        | exception Not_found -> ())
  and merge_all idx checks t m = function
    | [] -> ()
    | (tb, mb) :: rest ->
      (match (Array.unsafe_get j.merges idx) t tb with
      | None -> ()
      | Some merged ->
        if passes checks merged then begin
          if idx + 1 < nsteps then incr charged;
          go (idx + 1) merged (m * mb)
        end);
      merge_all idx checks t m rest
  in
  views.(first).v_stream (fun t m ->
      incr charged;
      if passes first_checks t then go 0 t m);
  charge_tuple_ops !charged

(* cross product or pure theta join: product of the inputs with the
   full residual; charges the product bound like the interpreter *)
and exec_nested j views ~emit =
  let n = Array.length views in
  let residual = match j.test with Some f -> f | None -> fun _ -> true in
  let product = Array.fold_left (fun p v -> p * v_rows v) 1 views in
  let rec loop idx acc accm =
    if idx >= n then begin
      if residual acc then emit acc accm
    end
    else
      v_iter views.(idx) (fun t m ->
          match j.merges.(idx) acc t with
          | None -> ()
          | Some merged -> loop (idx + 1) merged (accm * m))
  in
  loop 0 Tuple.empty 1;
  charge_tuple_ops product

let run p ~env =
  match p with
  | Source n -> resolve env n (* as the interpreter: no copy, no charge *)
  | prog ->
    let schema = out_schema prog ~env in
    (* a fused chain over one source yields at most that source's
       distinct tuples *)
    let size =
      match prog with
      | Fused (_, Source n) -> max 16 (Bag.support_cardinal (resolve env n))
      | _ -> 16
    in
    let bu = Bag.builder ~size schema in
    stream prog ~env ~emit:(fun t m -> Bag.badd bu t m);
    Bag.seal bu

(* A top-level select/project/rename chain carries the per-request
   condition and attributes (VAP polls, query conditions), which rarely
   repeat, so it is compiled per call, and only the plan below it is
   looked up in [memo]. Compiling the chain costs a few closures. *)
let of_expr ?memo expr =
  let below sub =
    match memo with
    | None -> compile_prog sub
    | Some memo -> (
      match Hashtbl.find_opt memo sub with
      | Some p -> p
      | None ->
        let p = compile_prog sub in
        Hashtbl.replace memo sub p;
        p)
  in
  match expr with
  | Expr.Select _ | Expr.Project _ | Expr.Rename _ ->
    let steps, sub = peel [] expr in
    Fused (Array.of_list steps, below sub)
  | _ -> below expr
