(** Concrete syntax for algebra expressions and selection conditions.

    A small textual form of the view-definition language, used by the
    CLI and handy in tests:

    {v
    project r1, r3, s1, s2 (
      select r4 = 100 and r3 < 200 (R)
      join on r2 = s1
      select s3 < 50 (S)
    )
    v}

    Grammar (informally):
    {v
    expr     ::= joinexpr (("union" | "minus") joinexpr)*
    joinexpr ::= primary ("join" ["on" pred] primary)*
    primary  ::= IDENT
               | "(" expr ")"
               | "select" pred "(" expr ")"
               | "project" IDENT ("," IDENT)* "(" expr ")"
    pred     ::= conj ("or" conj)*
    conj     ::= unit ("and" unit)*
    unit     ::= "not" unit | "true" | "false"
               | term ("=" | "<>" | "<" | "<=" | ">" | ">=") term
               | "(" pred ")"
    term     ::= factor (("+" | "-") factor)*
    factor   ::= atom (("*" | "/") atom)*
    atom     ::= INT | FLOAT | 'STRING' | "true" | "false" | "null"
               | IDENT | "-" atom | "(" term ")"
    v}

    A [-] directly before an INT or FLOAT literal makes one negative
    constant ([-3] is [Const (Int (-3))]); before anything else it is
    [Neg]. [true] or [false] followed by a comparison operator is a
    boolean constant, otherwise the predicate. So every comparison of
    constants {!Predicate.pp} prints parses back to itself (integers
    other than [min_int], finite floats).

    Keywords (including [null], so [NULL] too) are case-insensitive;
    identifiers are
    [[A-Za-z_][A-Za-z0-9_']*] (primes allowed, so VDP node names like
    [R'] parse). A FLOAT is digits with a fractional part
    ([.] and digits), an exponent ([e] or [E], an optional sign,
    digits), or both; inside a STRING a doubled quote ([''])
    stands for one quote. [#] starts a line comment.

    {1 Scenario files}

    The same surface also hosts a declarative {e scenario file} format
    — a whole integration described as data (sources with backends and
    relation schemas, view definitions, annotation hints, initial
    loads, and timed update events):

    {v
    # Figure 1, as data
    source db1 {
      backend relational          # or: triple
      announce immediate          # or: periodic 2.0 | never
      relation R(r1 int key, r2 int, r3 int, r4 int)
    }
    source db2 { relation S(s1 int, s2 int, s3 int) }

    view T = project r1, r3, s1, s2 (
      select r4 = 100 (R) join on r2 = s1 select s3 < 50 (S)
    )
    annotate T materialized       # or: virtual; or globally: annotate auto
    load R (0, 1, 7, 100) (1, 2, 8, 50)
    at 2.0 insert R (5000, 1, 9, 100)
    at 3.0 delete R (0, 1, 7, 100)
    v}

    Scenario-level words ([source], [backend], [relation], [view],
    [annotate], [load], [at], ...) are {e not} lexer keywords: they
    remain usable as attribute names inside expressions. The parser
    only produces the declaration tree; compiling it into live sources
    and a mediator is [Workload.Scn]'s job (the parser stays free of
    simulation dependencies). *)

exception Parse_error of string
(** Carries a message with the offending position. *)

val expr : string -> Expr.t
(** Parse a full algebra expression. @raise Parse_error. *)

val predicate : string -> Predicate.t
(** Parse a selection condition. @raise Parse_error. *)

val attrs : string -> string list
(** Parse a comma-separated attribute list. @raise Parse_error. *)

(** {1 Scenario declarations} *)

type announce_decl = Ann_immediate | Ann_periodic of float | Ann_never

type source_decl = {
  sd_name : string;
  sd_backend : string;  (** ["relational"] (default) or ["triple"] *)
  sd_announce : announce_decl;  (** default [Ann_immediate] *)
  sd_relations : (string * Schema.t) list;
}

type ann_hint = Hint_materialized | Hint_virtual

type scenario_event = {
  ev_time : float;  (** absolute simulated time of the commit *)
  ev_insert : bool;  (** [false] = delete *)
  ev_relation : string;
  ev_tuple : Value.t list;  (** positional, in schema attribute order *)
}

type scenario_decl = {
  sc_sources : source_decl list;
  sc_views : (string * Expr.t) list;  (** every view becomes an export *)
  sc_hints : (string * ann_hint) list;  (** per-node overrides *)
  sc_auto_annotate : bool;
      (** [annotate auto]: unhinted nodes go through the advisor
          instead of defaulting to fully materialized *)
  sc_loads : (string * Value.t list list) list;
  sc_events : scenario_event list;  (** sorted by time *)
}

val scenario : string -> scenario_decl
(** Parse a scenario file's contents. Declaration-level validation
    only (schemas well-formed, at least one source and one view);
    name resolution happens at compile time. @raise Parse_error. *)
