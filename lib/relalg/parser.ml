exception Parse_error of string

let err pos fmt =
  Format.kasprintf
    (fun s -> raise (Parse_error (Printf.sprintf "at offset %d: %s" pos s)))
    fmt

(* --- lexer ------------------------------------------------------------- *)

type token =
  | Tident of string
  | Tint of int
  | Tfloat of float
  | Tstring of string
  | Tlparen
  | Trparen
  | Tlbrace
  | Trbrace
  | Tcomma
  | Top of string (* = <> < <= > >= + - * / *)
  | Tkw of string
      (* select project join on union minus and or not true false null *)

let keywords =
  [ "select"; "project"; "rename"; "to"; "join"; "on"; "union"; "minus";
    "and"; "or"; "not"; "true"; "false"; "null" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let emit pos tok = tokens := (pos, tok) :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let start = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '#' then
      (* line comment (scenario files) *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if is_ident_start c then begin
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      let lower = String.lowercase_ascii word in
      if List.mem lower keywords then emit start (Tkw lower)
      else emit start (Tident word)
    end
    else if is_digit c then begin
      let digits () =
        while !i < n && is_digit src.[!i] do
          incr i
        done
      in
      digits ();
      let point = !i < n && src.[!i] = '.' in
      if point then begin
        incr i;
        digits ()
      end;
      (* an exponent: e or E, an optional sign, at least one digit *)
      let at k = !i + k < n in
      let exponent =
        at 0
        && (src.[!i] = 'e' || src.[!i] = 'E')
        && ((at 1 && is_digit src.[!i + 1])
           || (at 2
              && (src.[!i + 1] = '+' || src.[!i + 1] = '-')
              && is_digit src.[!i + 2]))
      in
      if exponent then begin
        i := !i + 2;
        digits ()
      end;
      let lit = String.sub src start (!i - start) in
      if point || exponent then emit start (Tfloat (float_of_string lit))
      else
        match int_of_string_opt lit with
        | Some i -> emit start (Tint i)
        | None -> err start "integer literal %s out of range" lit
    end
    else if c = '\'' then begin
      (* a doubled quote inside the literal stands for one quote *)
      incr i;
      let buf = Buffer.create 8 in
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\'' && !i + 1 < n && src.[!i + 1] = '\'' then begin
          Buffer.add_char buf '\'';
          incr i
        end
        else if src.[!i] = '\'' then closed := true
        else Buffer.add_char buf src.[!i];
        incr i
      done;
      if not !closed then err start "unterminated string literal";
      emit start (Tstring (Buffer.contents buf))
    end
    else
      match c with
      | '(' -> emit start Tlparen; incr i
      | ')' -> emit start Trparen; incr i
      | '{' -> emit start Tlbrace; incr i
      | '}' -> emit start Trbrace; incr i
      | ',' -> emit start Tcomma; incr i
      | '=' -> emit start (Top "="); incr i
      | '<' ->
        if !i + 1 < n && src.[!i + 1] = '=' then begin
          emit start (Top "<=");
          i := !i + 2
        end
        else if !i + 1 < n && src.[!i + 1] = '>' then begin
          emit start (Top "<>");
          i := !i + 2
        end
        else begin
          emit start (Top "<");
          incr i
        end
      | '>' ->
        if !i + 1 < n && src.[!i + 1] = '=' then begin
          emit start (Top ">=");
          i := !i + 2
        end
        else begin
          emit start (Top ">");
          incr i
        end
      | '+' | '-' | '*' | '/' -> emit start (Top (String.make 1 c)); incr i
      | '!' when !i + 1 < n && src.[!i + 1] = '=' ->
        emit start (Top "<>");
        i := !i + 2
      | _ -> err start "unexpected character %C" c
  done;
  List.rev !tokens

(* --- parser state ------------------------------------------------------ *)

type state = { mutable toks : (int * token) list; src_len : int }

let peek st = match st.toks with [] -> None | (_, t) :: _ -> Some t
let pos st = match st.toks with [] -> st.src_len | (p, _) :: _ -> p

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok what =
  match st.toks with
  | (_, t) :: rest when t = tok -> st.toks <- rest
  | _ -> err (pos st) "expected %s" what

let eat_kw st kw =
  match peek st with
  | Some (Tkw k) when String.equal k kw ->
    advance st;
    true
  | _ -> false

let ident st what =
  match st.toks with
  | (_, Tident name) :: rest ->
    st.toks <- rest;
    name
  | _ -> err (pos st) "expected %s" what

(* --- arithmetic terms --------------------------------------------------- *)

let rec parse_term st =
  let lhs = parse_factor st in
  parse_term_rest st lhs

and parse_term_rest st lhs =
  match peek st with
  | Some (Top "+") ->
    advance st;
    parse_term_rest st (Predicate.Add (lhs, parse_factor st))
  | Some (Top "-") ->
    advance st;
    parse_term_rest st (Predicate.Sub (lhs, parse_factor st))
  | _ -> lhs

and parse_factor st =
  let lhs = parse_atom st in
  parse_factor_rest st lhs

and parse_factor_rest st lhs =
  match peek st with
  | Some (Top "*") ->
    advance st;
    parse_factor_rest st (Predicate.Mul (lhs, parse_atom st))
  | Some (Top "/") ->
    advance st;
    parse_factor_rest st (Predicate.Div (lhs, parse_atom st))
  | _ -> lhs

and parse_atom st =
  match peek st with
  | Some (Tint i) ->
    advance st;
    Predicate.Const (Value.Int i)
  | Some (Tfloat f) ->
    advance st;
    Predicate.Const (Value.Float f)
  | Some (Tstring s) ->
    advance st;
    Predicate.Const (Value.Str s)
  | Some (Tident name) ->
    advance st;
    Predicate.Attr name
  | Some (Tkw "true") ->
    advance st;
    Predicate.Const (Value.Bool true)
  | Some (Tkw "false") ->
    advance st;
    Predicate.Const (Value.Bool false)
  | Some (Tkw "null") ->
    advance st;
    Predicate.Const Value.Null
  | Some (Top "-") -> (
    advance st;
    (* a negative number is one constant, as {!Predicate.pp} prints it *)
    match peek st with
    | Some (Tint i) ->
      advance st;
      Predicate.Const (Value.Int (-i))
    | Some (Tfloat f) ->
      advance st;
      Predicate.Const (Value.Float (-.f))
    | _ -> Predicate.Neg (parse_atom st))
  | Some Tlparen ->
    advance st;
    let t = parse_term st in
    expect st Trparen "')'";
    t
  | _ -> err (pos st) "expected a value, attribute, or '('"

(* --- predicates --------------------------------------------------------- *)

let cmp_of pos = function
  | "=" -> Predicate.Eq
  | "<>" -> Predicate.Ne
  | "<" -> Predicate.Lt
  | "<=" -> Predicate.Le
  | ">" -> Predicate.Gt
  | ">=" -> Predicate.Ge
  | op -> err pos "%S is not a comparison operator (=, <>, <, <=, >, >=)" op

let rec parse_pred st =
  let lhs = parse_conj st in
  if eat_kw st "or" then Predicate.or_ lhs (parse_pred st) else lhs

and parse_conj st =
  let lhs = parse_unit st in
  if eat_kw st "and" then Predicate.And (lhs, parse_conj st) else lhs

and parse_unit st =
  if eat_kw st "not" then Predicate.Not (parse_unit st)
  else if starts_comparison st then parse_comparison st
  else if eat_kw st "true" then Predicate.True
  else if eat_kw st "false" then Predicate.False
  else
    match peek st with
    | Some Tlparen ->
      (* could be a parenthesized predicate or a parenthesized
         arithmetic term starting a comparison: try predicate first,
         fall back to comparison *)
      let saved = st.toks in
      (try
         advance st;
         let p = parse_pred st in
         expect st Trparen "')'";
         (* if a comparison operator follows, the parens were
            arithmetic after all *)
         match peek st with
         | Some (Top ("=" | "<>" | "<" | "<=" | ">" | ">=")) ->
           st.toks <- saved;
           parse_comparison st
         | _ -> p
       with Parse_error _ ->
         st.toks <- saved;
         parse_comparison st)
    | _ -> parse_comparison st

(* [true] or [false] compared with something is a boolean constant, not
   the predicate *)
and starts_comparison st =
  match st.toks with
  | (_, Tkw ("true" | "false")) :: (_, Top ("=" | "<>" | "<" | "<=" | ">" | ">=")) :: _ ->
    true
  | _ -> false

and parse_comparison st =
  let lhs = parse_term st in
  match peek st with
  | Some (Top (("=" | "<>" | "<" | "<=" | ">" | ">=") as op)) ->
    let op_pos = pos st in
    advance st;
    let rhs = parse_term st in
    Predicate.Cmp (cmp_of op_pos op, lhs, rhs)
  | _ -> err (pos st) "expected a comparison operator"

(* --- algebra expressions ------------------------------------------------ *)

let parse_attr_list st =
  let first = ident st "an attribute name" in
  let rec rest acc =
    match peek st with
    | Some Tcomma ->
      advance st;
      rest (ident st "an attribute name" :: acc)
    | _ -> List.rev acc
  in
  rest [ first ]

let rec parse_expr st =
  let lhs = parse_joinexpr st in
  if eat_kw st "union" then Expr.Union (lhs, parse_expr st)
  else if eat_kw st "minus" then Expr.Diff (lhs, parse_expr st)
  else lhs

and parse_joinexpr st =
  let lhs = parse_primary st in
  parse_join_rest st lhs

and parse_join_rest st lhs =
  if eat_kw st "join" then begin
    let cond =
      if eat_kw st "on" then parse_pred st else Predicate.True
    in
    let rhs = parse_primary st in
    parse_join_rest st (Expr.Join (lhs, cond, rhs))
  end
  else lhs

and parse_primary st =
  match peek st with
  | Some (Tident name) ->
    advance st;
    Expr.Base name
  | Some Tlparen ->
    advance st;
    let e = parse_expr st in
    expect st Trparen "')'";
    e
  | Some (Tkw "select") ->
    advance st;
    let p = parse_pred st in
    expect st Tlparen "'(' after the selection condition";
    let e = parse_expr st in
    expect st Trparen "')'";
    Expr.Select (p, e)
  | Some (Tkw "project") ->
    advance st;
    let names = parse_attr_list st in
    expect st Tlparen "'(' after the projection list";
    let e = parse_expr st in
    expect st Trparen "')'";
    Expr.Project (names, e)
  | Some (Tkw "rename") ->
    advance st;
    let one () =
      let old_name = ident st "an attribute name" in
      (match peek st with
      | Some (Tkw "to") -> advance st
      | _ -> err (pos st) "expected 'to'");
      let new_name = ident st "an attribute name" in
      (old_name, new_name)
    in
    let first = one () in
    let rec rest acc =
      match peek st with
      | Some Tcomma ->
        advance st;
        rest (one () :: acc)
      | _ -> List.rev acc
    in
    let mapping = rest [ first ] in
    expect st Tlparen "'(' after the renaming list";
    let e = parse_expr st in
    expect st Trparen "')'";
    Expr.Rename (mapping, e)
  | _ -> err (pos st) "expected a relation, '(', 'select', or 'project'"

(* --- scenario files ------------------------------------------------------ *)

type announce_decl = Ann_immediate | Ann_periodic of float | Ann_never

type source_decl = {
  sd_name : string;
  sd_backend : string;
  sd_announce : announce_decl;
  sd_relations : (string * Schema.t) list;
}

type ann_hint = Hint_materialized | Hint_virtual

type scenario_event = {
  ev_time : float;
  ev_insert : bool;
  ev_relation : string;
  ev_tuple : Value.t list;
}

type scenario_decl = {
  sc_sources : source_decl list;
  sc_views : (string * Expr.t) list;
  sc_hints : (string * ann_hint) list;
  sc_auto_annotate : bool;
  sc_loads : (string * Value.t list list) list;
  sc_events : scenario_event list;
}

(* Scenario-level words are NOT lexer keywords: they stay ordinary
   identifiers so attribute names like [key] or [at] keep parsing
   inside algebra expressions. The statement parser matches them
   contextually. *)
let peek_word st =
  match peek st with
  | Some (Tident w) -> Some (String.lowercase_ascii w)
  | _ -> None

let eat_word st w =
  match peek_word st with
  | Some got when String.equal got w ->
    advance st;
    true
  | _ -> false

let parse_type st =
  let p = pos st in
  match peek_word st with
  | Some "int" -> advance st; Value.TInt
  | Some "float" -> advance st; Value.TFloat
  | Some "str" | Some "string" -> advance st; Value.TStr
  | Some "bool" -> advance st; Value.TBool
  | _ -> err p "expected an attribute type (int, float, str, bool)"

(* R(r1 int key, r2 int, ...) *)
let parse_relation_decl st =
  let rel = ident st "a relation name" in
  expect st Tlparen "'(' after the relation name";
  let key = ref [] in
  let one () =
    let attr = ident st "an attribute name" in
    let ty = parse_type st in
    if eat_word st "key" then key := attr :: !key;
    (attr, ty)
  in
  let first = one () in
  let rec rest acc =
    match peek st with
    | Some Tcomma ->
      advance st;
      rest (one () :: acc)
    | _ -> List.rev acc
  in
  let cols = rest [ first ] in
  expect st Trparen "')' closing the relation declaration";
  (rel, Schema.make ~key:(List.rev !key) cols)

let parse_float_lit st =
  match peek st with
  | Some (Tfloat f) -> advance st; f
  | Some (Tint i) -> advance st; float_of_int i
  | _ -> err (pos st) "expected a number"

let parse_announce st =
  let p = pos st in
  match peek_word st with
  | Some "immediate" -> advance st; Ann_immediate
  | Some "periodic" ->
    advance st;
    Ann_periodic (parse_float_lit st)
  | Some "never" -> advance st; Ann_never
  | _ -> err p "expected an announce mode (immediate, periodic T, never)"

let parse_source_decl st =
  let sd_name = ident st "a source name" in
  expect st Tlbrace "'{' opening the source body";
  let backend = ref "relational" in
  let announce = ref Ann_immediate in
  let relations = ref [] in
  let rec body () =
    if eat_word st "backend" then begin
      backend := ident st "a backend name (relational, triple)";
      body ()
    end
    else if eat_word st "announce" then begin
      announce := parse_announce st;
      body ()
    end
    else if eat_word st "relation" then begin
      relations := parse_relation_decl st :: !relations;
      body ()
    end
    else expect st Trbrace "'}' closing the source body"
  in
  body ();
  if !relations = [] then
    err (pos st) "source %S declares no relations" sd_name;
  {
    sd_name;
    sd_backend = !backend;
    sd_announce = !announce;
    sd_relations = List.rev !relations;
  }

let parse_value st =
  match peek st with
  | Some (Tint i) -> advance st; Value.Int i
  | Some (Tfloat f) -> advance st; Value.Float f
  | Some (Tstring s) -> advance st; Value.Str s
  | Some (Tkw "true") -> advance st; Value.Bool true
  | Some (Tkw "false") -> advance st; Value.Bool false
  | Some (Tkw "null") -> advance st; Value.Null
  | Some (Top "-") -> (
    advance st;
    match peek st with
    | Some (Tint i) -> advance st; Value.Int (-i)
    | Some (Tfloat f) -> advance st; Value.Float (-.f)
    | _ -> err (pos st) "expected a number after '-'")
  | _ -> err (pos st) "expected a literal value"

(* (v1, v2, ...) *)
let parse_tuple_lit st =
  expect st Tlparen "'(' opening a tuple";
  let first = parse_value st in
  let rec rest acc =
    match peek st with
    | Some Tcomma ->
      advance st;
      rest (parse_value st :: acc)
    | _ -> List.rev acc
  in
  let vs = rest [ first ] in
  expect st Trparen "')' closing the tuple";
  vs

let parse_scenario st =
  let sources = ref [] in
  let views = ref [] in
  let hints = ref [] in
  let auto = ref false in
  let loads = ref [] in
  let events = ref [] in
  let rec items () =
    if eat_word st "source" then begin
      sources := parse_source_decl st :: !sources;
      items ()
    end
    else if eat_word st "view" then begin
      let name = ident st "a view name" in
      (match peek st with
      | Some (Top "=") -> advance st
      | _ -> err (pos st) "expected '=' after the view name");
      views := (name, parse_expr st) :: !views;
      items ()
    end
    else if eat_word st "annotate" then begin
      if eat_word st "auto" then auto := true
      else begin
        let node = ident st "a view name" in
        let p = pos st in
        let hint =
          match peek_word st with
          | Some "materialized" -> advance st; Hint_materialized
          | Some "virtual" -> advance st; Hint_virtual
          | _ -> err p "expected an annotation hint (materialized, virtual)"
        in
        hints := (node, hint) :: !hints
      end;
      items ()
    end
    else if eat_word st "load" then begin
      let rel = ident st "a relation name" in
      let rec tuples acc =
        match peek st with
        | Some Tlparen -> tuples (parse_tuple_lit st :: acc)
        | _ -> List.rev acc
      in
      loads := (rel, tuples []) :: !loads;
      items ()
    end
    else if eat_word st "at" then begin
      let ev_time = parse_float_lit st in
      let p = pos st in
      let ev_insert =
        if eat_word st "insert" then true
        else if eat_word st "delete" then false
        else err p "expected 'insert' or 'delete'"
      in
      let ev_relation = ident st "a relation name" in
      let ev_tuple = parse_tuple_lit st in
      events := { ev_time; ev_insert; ev_relation; ev_tuple } :: !events;
      items ()
    end
    else
      match peek st with
      | None -> ()
      | Some _ ->
        err (pos st)
          "expected a scenario item (source, view, annotate, load, at)"
  in
  items ();
  if !sources = [] then err (pos st) "a scenario declares at least one source";
  if !views = [] then err (pos st) "a scenario declares at least one view";
  {
    sc_sources = List.rev !sources;
    sc_views = List.rev !views;
    sc_hints = List.rev !hints;
    sc_auto_annotate = !auto;
    sc_loads = List.rev !loads;
    sc_events =
      List.sort
        (fun a b -> Float.compare a.ev_time b.ev_time)
        (List.rev !events);
  }

(* --- entry points -------------------------------------------------------- *)

let with_state src f =
  let st = { toks = tokenize src; src_len = String.length src } in
  let result = f st in
  (match st.toks with
  | [] -> ()
  | (p, _) :: _ -> err p "trailing input");
  result

let expr src = with_state src parse_expr
let predicate src = with_state src parse_pred
let attrs src = with_state src parse_attr_list
let scenario src = with_state src parse_scenario
