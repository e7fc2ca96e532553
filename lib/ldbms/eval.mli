(** Expression evaluation with SQL three-valued logic.

    Booleans are represented as [Value.Bool]; the unknown truth value is
    [Value.Null]. Comparisons and arithmetic involving NULL yield NULL;
    AND/OR/NOT follow Kleene logic; WHERE keeps a row only when its
    predicate evaluates to [Bool true] (see {!truthy}). *)

exception Type_error of string
exception Unknown_column of string
exception Ambiguous_column of string

type env = {
  schema : Sqlcore.Schema.t;
  row : Sqlcore.Row.t;
  outer : env option;  (** enclosing row for correlated subqueries *)
}

val env : ?outer:env -> Sqlcore.Schema.t -> Sqlcore.Row.t -> env

type ctx = {
  subquery : env option -> Sqlfront.Ast.select -> Sqlcore.Relation.t;
      (** evaluates a nested SELECT, given the enclosing environment *)
  agg : (Sqlfront.Ast.expr -> Sqlcore.Value.t) option;
      (** when grouping, the executor supplies the values of [Agg] nodes;
          [None] outside aggregate contexts (an [Agg] node is then a type
          error) *)
}

val lookup : env -> ?qualifier:string -> string -> Sqlcore.Value.t
(** Resolve a column reference in [env], falling back to outer
    environments; raises {!Unknown_column} or {!Ambiguous_column}. *)

val eval : ctx -> env -> Sqlfront.Ast.expr -> Sqlcore.Value.t

val truthy : Sqlcore.Value.t -> bool
(** [true] exactly for [Bool true]. *)

val value_compare_sql : Sqlcore.Value.t -> Sqlcore.Value.t -> int option
(** SQL comparison: [None] when either side is NULL; raises {!Type_error}
    on incomparable classes (e.g. string vs int). *)

(** {1 Primitive operations}

    The building blocks of {!eval}, exported so {!Compile} can assemble
    per-statement closures out of the very same primitives — compiled and
    interpreted evaluation then agree by construction, NULL propagation,
    Kleene logic, and error messages included. *)

val logic_and : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
val logic_or : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
val logic_not : Sqlcore.Value.t -> Sqlcore.Value.t

val comparison :
  Sqlfront.Ast.binop -> Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Comparison operators only; anything else is a programming error. *)

val arith :
  Sqlfront.Ast.binop -> Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Arithmetic operators only. *)

val concat : Sqlcore.Value.t -> Sqlcore.Value.t -> Sqlcore.Value.t

val negate_tv : bool -> Sqlcore.Value.t -> Sqlcore.Value.t
(** Apply three-valued NOT when the flag is set ([negated] forms). *)

type in_set
(** The members of an IN list, prepared for O(1) membership tests. *)

val prepare_in : Sqlcore.Value.t list -> in_set
(** [prepare_in members] hashes the members once, keyed by
    {!Sqlcore.Value.compare} equality (ints and integral floats meet,
    ints above 2^53 stay exact, NaN equals NaN). O(n); it never raises. *)

val in_member : in_set -> Sqlcore.Value.t -> Sqlcore.Value.t
(** SQL IN, exactly as an in-order scan of the members with
    {!value_compare_sql} would answer it: NULL for a NULL needle; TRUE on
    an equal member; {!Type_error} when a member of a class the needle
    cannot be compared with comes before the first equal one (with that
    member in the message); else UNKNOWN if any member is NULL; else
    FALSE. O(1) per needle. *)
