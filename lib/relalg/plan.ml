(* Plan compiler: algebra expressions compiled into physical operator
   pipelines. The compiler remembers nothing: a caller that runs an
   expression repeatedly keeps the plan, or passes a memo it owns to
   [of_expr] (the mediator keeps one per instance).

   An expression is compiled to a [prog] tree whose unary chains
   (select / project / rename) run through the one chain runner
   ({!chain}): filters that read the incoming row, compiled against
   its names ({!Predicate.compile}), and one gather composing every
   projection and renaming ({!Tuple.gather}), both resolved once per
   input descriptor. A row passing a chain allocates only its output
   row. Execution streams tuples from sources through the chains into
   one output builder, which grows with the answer.

   Chains of joins collapse into a single n-ary join group carrying
   the conjunction of every join predicate (selections commute with
   inner joins, so where each conjunct is applied is a physical
   choice). A group whose inputs share no join variable (a cross
   product or a pure theta join) runs as a nested loop; every other
   group runs as a left-deep streaming hash cascade. The cascade
   streams its smallest input through key tables ({!Key_table},
   which {!Bag.join} shares) built over the others, ordered on each
   execution from the inputs' sizes alone; a two-input group streams
   its larger input through a table over the smaller. Each step keeps
   its table for the plan's next execution, emptied. An equi-pair a
   step's key enforces is not re-tested, and that key component never
   matches Null, as the comparison would not. The leading projections
   of a chain directly above a group fuse into it: when no check
   remains after the last merge, that merge gathers only the kept
   attributes and the wide row is never built.

   Schemas are resolved at execution time from the environment's bags,
   NOT at compile time from static declarations: the same node
   definition runs over full leaf relations, materialized projections,
   and VAP temporaries carrying only the requested attributes, and
   join variables depend on the attribute sets actually present. A
   plan is therefore schema-polymorphic — a function of the expression
   alone — and every stage re-derives its slot plans per descriptor
   through the one-entry memos it owns (a join node owns one tuple
   merger per merge position, a chain its resolution).

   The tests check plans against an interpretive evaluator, value for
   value. Operation charging is the per-operator input cardinalities,
   with two deviations: a chain charges per tuple streamed into each
   step it reaches, and a collapsed join group charges its streamed
   input, build sides, intermediate results and output rather than the
   sum over the original binary nodes. A fused projection charges one
   op per output row, as its step did. *)

exception Unbound_relation of string

(* the global tuple-operation counter feeding the simulator's cost
   model lives here (the compiled path is the default evaluator);
   {!Eval} re-exports it under its historical name *)
let ops_counter = ref 0
let tuple_ops () = !ops_counter
let reset_tuple_ops () = ops_counter := 0
let charge_tuple_ops n = ops_counter := !ops_counter + n

type step =
  | Filter of Predicate.t
  | Project of string list
  | Rename of (string * string) list

(* A unary chain compiled into one pass over its input row: filters
   that read the incoming row and one gather that builds the output
   row, both resolved once per input descriptor and kept in a
   one-entry memo. A filter placed after a projection or renaming
   reads the input row through the names the chain gave it; the
   gather is every projection and renaming of the chain composed, so
   a passing row allocates its output row only, and none when the
   chain maps it to itself. A row charges, as stepping through the
   chain one operator at a time would, one tuple op per step it
   reaches: a rejected row the steps up to the filter that rejects
   it. *)
type chain = {
  c_prefix : chain option; (* steps run before [c_steps] *)
  c_steps : step list; (* innermost first: execution order *)
  c_len : int; (* with the prefix's *)
  c_charge : bool;
  mutable c_rep : Tuple.t option; (* a row over the resolved descriptor *)
  mutable c_filters : (Tuple.t -> bool) array; (* over the input row *)
  mutable c_reached : int array; (* steps a row reaches when filter k rejects it *)
  mutable c_gather : Tuple.gather;
  mutable c_passes : bool; (* the gather is the identity *)
  mutable c_projected : (string list * Tuple.gather) option;
      (* the last projection of this chain's output that an extension
         resolved, composed with the gather *)
}

let chain ?(charge = true) ?prefix steps =
  {
    c_prefix = prefix;
    c_steps = steps;
    c_len =
      (List.length steps + match prefix with Some p -> p.c_len | None -> 0);
    c_charge = charge;
    c_rep = None;
    c_filters = [||];
    c_reached = [||];
    c_gather = Tuple.gather_of Tuple.empty;
    c_passes = true;
    c_projected = None;
  }

(* A filter's attribute that its step no longer binds (an earlier
   projection dropped it, a renaming moved it) reads a name the input
   row [t] lacks, so the filter raises [Not_found] on the rows that
   reach it, exactly as it did on the step's own row. *)
let rec absent t a =
  if Tuple.gather_source (Tuple.gather_of t) a = None then a else absent t (a ^ "'")

(* a filter over the output of gather [g], compiled against the input
   row's names *)
let compile_over g t p =
  let moved =
    List.filter_map
      (fun a ->
        match Tuple.gather_source g a with
        | Some s -> if String.equal s a then None else Some (a, s)
        | None -> Some (a, absent t a))
      (Predicate.attrs p)
  in
  Predicate.compile (if moved = [] then p else Predicate.rename moved p)

(* the steps from position [i] on, over gather [g]; a projection of the
   prefix's own output (as a source's request makes of its prepared
   definition, poll after poll) is memoized on the prefix *)
let rec resolve_steps prefix t g filters reached i = function
  | [] -> (g, filters, reached)
  | Filter p :: rest ->
    resolve_steps prefix t g (compile_over g t p :: filters) ((i + 1) :: reached)
      (i + 1) rest
  | Project names :: rest ->
    let g' =
      match prefix with
      | Some p when g == p.c_gather -> (
        match p.c_projected with
        | Some (n, pg) when List.equal String.equal n names -> pg
        | _ ->
          let pg = Tuple.gather_project g names in
          p.c_projected <- Some (names, pg);
          pg)
      | _ -> Tuple.gather_project g names
    in
    resolve_steps prefix t g' filters reached (i + 1) rest
  | Rename m :: rest ->
    resolve_steps prefix t (Tuple.gather_rename g m) filters reached (i + 1) rest

(* A chain with a prefix resolves from the prefix's resolution, which
   the prefix keeps across the chains that extend it. *)
let rec resolve_chain c t =
  let g, pre_filters, pre_reached =
    match c.c_prefix with
    | None -> (Tuple.gather_of t, [||], [||])
    | Some p ->
      if not (resolved p t) then resolve_chain p t;
      (p.c_gather, p.c_filters, p.c_reached)
  in
  let g, filters, reached =
    resolve_steps c.c_prefix t g [] []
      (c.c_len - List.length c.c_steps)
      c.c_steps
  in
  c.c_filters <- Array.append pre_filters (Array.of_list (List.rev filters));
  c.c_reached <- Array.append pre_reached (Array.of_list (List.rev reached));
  c.c_gather <- g;
  c.c_passes <- Tuple.gather_passes g;
  c.c_projected <- None;
  c.c_rep <- Some t

and resolved c t =
  match c.c_rep with Some r -> Tuple.same_desc r t | None -> false

(* The per-tuple loops below are top-level functions taking their
   free variables as arguments: without flambda, a local [let rec]
   that captures them allocates a closure on every call. *)

(* the first filter from [k] on that rejects [t], or -1 *)
let rec rejecting filters t k =
  if k >= Array.length filters then -1
  else if (Array.unsafe_get filters k) t then rejecting filters t (k + 1)
  else k

(* builds one two-argument closure per call. Without the
   [opaque_identity], the compiler merges [row] into [feed], and each
   call would build two partial applications of a four-argument
   function instead *)
let feed c emit =
  let row t m =
    if not (resolved c t) then resolve_chain c t;
    let k = rejecting c.c_filters t 0 in
    if k < 0 then begin
      if c.c_charge then charge_tuple_ops c.c_len;
      emit (if c.c_passes then t else Tuple.gather c.c_gather t) m
    end
    else if c.c_charge then charge_tuple_ops (Array.unsafe_get c.c_reached k)
  in
  Sys.opaque_identity row

(* the schema a chain's steps give rows over [s] *)
let chain_schema s steps =
  List.fold_left
    (fun s step ->
      match step with
      | Filter _ -> s
      | Project names -> Schema.project s names
      | Rename m -> Expr.schema_of (fun _ -> s) (Expr.Rename (m, Expr.Base "_")))
    s steps

type prog =
  | Source of string
  | Fused of chain * prog
  | Join of njoin
  | Union of prog * prog
  | Diff of prog * prog

and njoin = {
  on : Predicate.t; (* conjunction over the collapsed join chain *)
  test : (Tuple.t -> bool) option; (* compiled [on]; None = True *)
  conjs : conjunct array; (* compiled conjuncts, conjunction order *)
  inputs : prog array; (* >= 2, original left-to-right order *)
  merges : Tuple.merger array;
      (* one per merge position: cascade step [k] or nested-loop
         depth [k] *)
  tables : Key_table.t option array;
      (* cascade step [k]'s key table, emptied after each execution and
         rebuilt in place by the next; [None] while a step holds it *)
  out : projection option; (* projections fused above the group *)
}

and conjunct = {
  c_attrs : string list;
  c_equi : (string * string) option; (* an [a = b] between two attributes *)
  c_test : Tuple.t -> bool;
}

(* the projections directly above a join group, innermost first: the
   last merge gathers only the kept attributes when no check remains
   after it, and otherwise the full output row is projected *)
and projection = {
  p_names : string list list;
  p_merge : Tuple.merger; (* the last merge, keeping the last names *)
  p_gather : Tuple.t -> Tuple.t;
}

type t = prog

(* collect a maximal unary chain; the accumulator ends up
   innermost-first, which is execution order *)
let rec peel acc = function
  | Expr.Select (p, e) -> peel (Filter p :: acc) e
  | Expr.Project (names, e) -> peel (Project names :: acc) e
  | Expr.Rename (m, e) -> peel (Rename m :: acc) e
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

(* a chain over [below]; its leading projections over a join group
   fuse into the group *)
let fuse steps below =
  let rec leading acc = function
    | Project names :: rest -> leading (names :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let below, steps =
    match below with
    | Join j -> (
      match leading [] steps with
      | [], _ -> (below, steps)
      | projs, rest ->
        let keep = List.nth projs (List.length projs - 1) in
        ( Join
            {
              j with
              out =
                Some
                  {
                    p_names = projs;
                    p_merge = Tuple.merger ~keep ();
                    p_gather = Tuple.projector keep;
                  };
            },
          rest ))
    | _ -> (below, steps)
  in
  if steps = [] then below else Fused (chain steps, below)

let rec compile_prog expr =
  match expr with
  | Expr.Base n -> Source n
  | Expr.Select _ | Expr.Project _ | Expr.Rename _ ->
    let steps, sub = peel [] expr in
    fuse steps (compile_prog sub)
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
               (fun p ->
                 {
                   c_attrs = Predicate.attrs p;
                   c_equi =
                     (match p with
                     | Predicate.Cmp (Predicate.Eq, Predicate.Attr a, Predicate.Attr b)
                       when not (String.equal a b) ->
                       Some (a, b)
                     | _ -> None);
                   c_test = Predicate.compile p;
                 })
               conj_list);
        inputs = Array.of_list (List.map compile_prog inputs);
        merges = Array.init (List.length inputs) (fun _ -> Tuple.merger ());
        tables = Array.make (List.length inputs) None;
        out = None;
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
  | Fused (c, sub) -> chain_schema (out_schema sub ~env) c.c_steps
  | Join j ->
    let s = ref (out_schema j.inputs.(0) ~env) in
    for i = 1 to Array.length j.inputs - 1 do
      s := Schema.join !s (out_schema j.inputs.(i) ~env)
    done;
    (match j.out with
    | None -> !s
    | Some o -> List.fold_left Schema.project !s o.p_names)
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

(* one cascade step: the key table built over a join input and the
   conjuncts that become checkable after this merge *)
type cstep = { s_tbl : Key_table.t; s_checks : (Tuple.t -> bool) array }

let rec passes_from checks t i =
  i >= Array.length checks
  || ((Array.unsafe_get checks i) t && passes_from checks t (i + 1))

let passes checks t = passes_from checks t 0

let rec stream prog ~env ~(emit : Tuple.t -> int -> unit) =
  match prog with
  | Source n -> Bag.iter emit (resolve env n)
  | Fused (c, sub) -> stream sub ~env ~emit:(feed c emit)
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
  (* each output row charges one op per projection fused above the
     group, as the projection steps did *)
  let nproj = match j.out with Some o -> List.length o.p_names | None -> 0 in
  let outs = ref 0 in
  let emit_out t m =
    incr outs;
    emit t m
  in
  let emit =
    match j.out with
    | None -> emit_out
    | Some o -> fun t m -> emit_out (o.p_gather t) m
  in
  if classes = [] then exec_nested j views ~emit
  else exec_cascade j views attr_lists classes ~emit ~emit_out;
  charge_tuple_ops (nproj * !outs)

(* left-deep streaming hash cascade in {!cascade_order}: key tables
   over every input but the first, the first streamed through the
   probe chain. Each conjunct is applied at the first step whose
   merged schema covers its attributes, except an equi-pair the step's
   key already enforces: that key component is strict (a Null neither
   enters the table nor probes it, as the comparison never matches
   Null). Conjuncts never covered are still evaluated on the output
   (raising exactly as the interpreter would on a dangling attribute).
   When no check remains after the last merge and projections are
   fused above the group, the last merge gathers only the kept
   attributes, so the wide row is never built. *)
and exec_cascade j views attr_lists classes ~emit ~emit_out =
  let order = cascade_order views classes in
  let n = Array.length order in
  let nconjs = Array.length j.conjs in
  let applied = Array.make nconjs false in
  (* the conjuncts that become checkable over [schema], but for an
     equi-pair between a pair of [shared] (the step's key attributes),
     which the key enforces: the checks, and the key pairs enforced *)
  let take_applicable schema shared =
    let checks = ref [] and enforced = ref [] in
    for c = nconjs - 1 downto 0 do
      let cj = j.conjs.(c) in
      if (not applied.(c)) && List.for_all (Schema.mem schema) cj.c_attrs then begin
        applied.(c) <- true;
        match
          List.find_opt
            (fun (la, ra) -> cj.c_equi = Some (la, ra) || cj.c_equi = Some (ra, la))
            shared
        with
        | Some pair -> enforced := pair :: !enforced
        | None -> checks := cj.c_test :: !checks
      end
    done;
    (Array.of_list !checks, !enforced)
  in
  let first = order.(0) in
  let merged = ref views.(first).v_schema in
  let first_checks, _ = take_applicable !merged [] in
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
        let checks, enforced = take_applicable merged' shared in
        merged := merged';
        (* sized from the input's exact row count when known (a source
           leaf), never from a derived input's leaf total *)
        let size = if views.(i).v_rows >= 0 then max 16 views.(i).v_rows else 64
        and build = Tuple.key (List.map snd shared)
        and probe = Tuple.key (List.map fst shared)
        and strict = Array.of_list (List.map (fun p -> List.mem p enforced) shared) in
        let tbl =
          match j.tables.(k) with
          | Some tbl ->
            j.tables.(k) <- None;
            Key_table.reset tbl ~size ~build ~probe ~strict;
            tbl
          | None -> Key_table.create ~size ~build ~probe ~strict
        in
        views.(i).v_stream (fun t m ->
            incr charged;
            Key_table.add tbl t m);
        { s_tbl = tbl; s_checks = checks })
  in
  let leftovers =
    let out = ref [] in
    for c = nconjs - 1 downto 0 do
      if not applied.(c) then out := j.conjs.(c).c_test :: !out
    done;
    Array.of_list !out
  in
  let nsteps = n - 1 in
  (* the last merge gathers the projected row itself when nothing
     checks the full row after it *)
  let gather_last =
    match j.out with
    | Some o
      when Array.length leftovers = 0
           && Array.length steps.(nsteps - 1).s_checks = 0 ->
      Some o.p_merge
    | _ -> None
  in
  let rec go idx t m =
    if idx >= nsteps then begin
      if passes leftovers t then begin
        incr charged;
        emit t m
      end
    end
    else
      let s = Array.unsafe_get steps idx in
      merge_from idx s t m (Key_table.find s.s_tbl t)
  and merge_from idx s t m r =
    if r >= 0 then begin
      let tb = Key_table.row s.s_tbl r and mb = Key_table.mult s.s_tbl r in
      (match gather_last with
      | Some pm when idx + 1 = nsteps ->
        if Tuple.agree pm t tb then begin
          incr charged;
          emit_out (Tuple.merge pm t tb) (m * mb)
        end
      | _ ->
        let mg = Array.unsafe_get j.merges idx in
        if Tuple.agree mg t tb then begin
          let merged = Tuple.merge mg t tb in
          if passes s.s_checks merged then begin
            if idx + 1 < nsteps then incr charged;
            go (idx + 1) merged (m * mb)
          end
        end);
      merge_from idx s t m (Key_table.next s.s_tbl r)
    end
  in
  views.(first).v_stream (fun t m ->
      incr charged;
      if passes first_checks t then go 0 t m);
  charge_tuple_ops !charged;
  Array.iteri
    (fun k s ->
      Key_table.clear s.s_tbl;
      j.tables.(k) <- Some s.s_tbl)
    steps

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
          let mg = j.merges.(idx) in
          if Tuple.agree mg acc t then loop (idx + 1) (Tuple.merge mg acc t) (accm * m))
  in
  loop 0 Tuple.empty 1;
  charge_tuple_ops product

let run p ~env =
  match p with
  | Source n -> resolve env n (* as the interpreter: no copy, no charge *)
  | prog ->
    (* the builder grows with the answer: sizing it from the scanned
       relation would allocate for rows a selective chain drops *)
    let bu = Bag.builder (out_schema prog ~env) in
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
    fuse steps (below sub)
  | _ -> below expr
