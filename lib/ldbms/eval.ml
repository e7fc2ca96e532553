module Ast = Sqlfront.Ast
open Sqlcore

exception Type_error of string
exception Unknown_column of string
exception Ambiguous_column of string

type env = { schema : Schema.t; row : Row.t; outer : env option }

let env ?outer schema row = { schema; row; outer }

type ctx = {
  subquery : env option -> Ast.select -> Relation.t;
  agg : (Ast.expr -> Value.t) option;
}

let rec lookup e ?qualifier name =
  match Schema.find_indices e.schema ?qualifier name with
  | [ i ] -> Row.get e.row i
  | [] -> (
      match e.outer with
      | Some outer -> lookup outer ?qualifier name
      | None ->
          let q = match qualifier with Some q -> q ^ "." | None -> "" in
          raise (Unknown_column (q ^ name)))
  | _ :: _ :: _ ->
      let q = match qualifier with Some q -> q ^ "." | None -> "" in
      raise (Ambiguous_column (q ^ name))

let truthy = function Value.Bool true -> true | _ -> false

let incomparable a b =
  raise
    (Type_error
       (Printf.sprintf "cannot compare %s with %s" (Value.to_string a)
          (Value.to_string b)))

let value_compare_sql a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> None
  | Value.Int _, Value.Int _
  | Value.Float _, Value.Float _
  | Value.Int _, Value.Float _
  | Value.Float _, Value.Int _
  | Value.Str _, Value.Str _
  | Value.Bool _, Value.Bool _ ->
      Some (Value.compare a b)
  | _ -> incomparable a b

let arith op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
      match op with
      | Ast.Add -> Value.Int (x + y)
      | Ast.Sub -> Value.Int (x - y)
      | Ast.Mul -> Value.Int (x * y)
      | Ast.Div ->
          if y = 0 then raise (Type_error "division by zero") else Value.Int (x / y)
      | Ast.Mod ->
          if y = 0 then raise (Type_error "modulo by zero") else Value.Int (x mod y)
      | _ -> assert false)
  | _, _ -> (
      match Value.as_float a, Value.as_float b with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Value.Float (x +. y)
          | Ast.Sub -> Value.Float (x -. y)
          | Ast.Mul -> Value.Float (x *. y)
          | Ast.Div ->
              if y = 0. then raise (Type_error "division by zero")
              else Value.Float (x /. y)
          | Ast.Mod -> raise (Type_error "modulo on non-integers")
          | _ -> assert false)
      | _ ->
          raise
            (Type_error
               (Printf.sprintf "arithmetic on non-numeric values %s, %s"
                  (Value.to_string a) (Value.to_string b))))

(* Kleene three-valued logic *)
let logic_and a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | (Value.Bool true | Value.Null), (Value.Bool true | Value.Null) -> Value.Null
  | _ -> raise (Type_error "AND on non-boolean values")

let logic_or a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | (Value.Bool false | Value.Null), (Value.Bool false | Value.Null) -> Value.Null
  | _ -> raise (Type_error "OR on non-boolean values")

let logic_not = function
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null
  | v -> raise (Type_error ("NOT on non-boolean value " ^ Value.to_string v))

let comparison op a b =
  match value_compare_sql a b with
  | None -> Value.Null
  | Some c ->
      let r =
        match op with
        | Ast.Eq -> c = 0
        | Ast.Neq -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0
        | _ -> assert false
      in
      Value.Bool r

let concat a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | a, b -> Value.Str (Value.to_string a ^ Value.to_string b)

let negate_tv negated v =
  if negated then logic_not v else v

(* ---- IN membership --------------------------------------------------------

   SQL IN scans its list in order: the first member that is equal to the
   needle answers TRUE, the first member of a class the needle cannot be
   compared with raises, NULL members only matter when nothing matched
   (UNKNOWN), and otherwise the answer is FALSE. A prepared set answers the
   same question in O(1): a hash table maps each member's key to the index
   of its first occurrence, and per needle class the set keeps the first
   incomparable member. The needle raises exactly when that member comes
   before its first match.

   Keys are {!Value.sql_key}s, so hash equality is [Value.compare]
   equality ([3 IN (3.0)] and [-0.0 IN (0)] match). *)

(* comparable classes: numbers, strings, booleans *)
let in_class = function
  | Value.Int _ | Value.Float _ -> 0
  | Value.Str _ -> 1
  | Value.Bool _ -> 2
  | Value.Null -> invalid_arg "in_class"

type in_set = {
  first : int Value.Key_tbl.t;  (* member key -> index of its first occurrence *)
  clash_at : int array;  (* per needle class: first incomparable index *)
  clash : Value.t array;  (* ... and the member found there *)
  has_null : bool;
}

let prepare_in members =
  let first = Value.Key_tbl.create (List.length members) in
  let class_at = Array.make 3 max_int and class_member = Array.make 3 Value.Null in
  let has_null = ref false in
  List.iteri
    (fun i x ->
      if Value.is_null x then has_null := true
      else begin
        let c = in_class x in
        if class_at.(c) = max_int then begin
          class_at.(c) <- i;
          class_member.(c) <- x
        end;
        let k = Value.sql_key x in
        if not (Value.Key_tbl.mem first k) then Value.Key_tbl.add first k i
      end)
    members;
  let clash_at = Array.make 3 max_int and clash = Array.make 3 Value.Null in
  for c = 0 to 2 do
    for d = 0 to 2 do
      if d <> c && class_at.(d) < clash_at.(c) then begin
        clash_at.(c) <- class_at.(d);
        clash.(c) <- class_member.(d)
      end
    done
  done;
  { first; clash_at; clash; has_null = !has_null }

let in_member s v =
  if Value.is_null v then Value.Null
  else
    let c = in_class v in
    let hit =
      match Value.Key_tbl.find_opt s.first (Value.sql_key v) with
      | Some i -> i
      | None -> max_int
    in
    if s.clash_at.(c) < hit then incomparable v s.clash.(c)
    else if hit < max_int then Value.Bool true
    else if s.has_null then Value.Null
    else Value.Bool false

let rec eval ctx e expr =
  match expr with
  | Ast.Lit v -> v
  | Ast.Col { qualifier; name } -> lookup e ?qualifier name
  | Ast.Binop (Ast.And, a, b) -> logic_and (eval ctx e a) (eval ctx e b)
  | Ast.Binop (Ast.Or, a, b) -> logic_or (eval ctx e a) (eval ctx e b)
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
      comparison op (eval ctx e a) (eval ctx e b)
  | Ast.Binop (Ast.Concat, a, b) -> concat (eval ctx e a) (eval ctx e b)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b) ->
      arith op (eval ctx e a) (eval ctx e b)
  | Ast.Unop (Ast.Not, a) -> logic_not (eval ctx e a)
  | Ast.Unop (Ast.Neg, a) -> (
      match eval ctx e a with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> raise (Type_error ("negation of " ^ Value.to_string v)))
  | Ast.Is_null { arg; negated } ->
      let v = eval ctx e arg in
      Value.Bool (if negated then not (Value.is_null v) else Value.is_null v)
  | Ast.Like { arg; pattern; negated } -> (
      match eval ctx e arg with
      | Value.Null -> Value.Null
      | Value.Str s -> negate_tv negated (Value.Bool (Like.sql_like ~pattern s))
      | v -> raise (Type_error ("LIKE on non-string " ^ Value.to_string v)))
  | Ast.In_list { arg; items; negated } ->
      let v = eval ctx e arg in
      let vs = List.map (eval ctx e) items in
      negate_tv negated (in_member (prepare_in vs) v)
  | Ast.Between { arg; lo; hi; negated } ->
      let v = eval ctx e arg in
      let lo = eval ctx e lo and hi = eval ctx e hi in
      negate_tv negated
        (logic_and (comparison Ast.Ge v lo) (comparison Ast.Le v hi))
  | Ast.Agg _ as agg_node -> (
      match ctx.agg with
      | Some f -> f agg_node
      | None -> raise (Type_error "aggregate used outside an aggregate query"))
  | Ast.Scalar_subquery q -> (
      let r = ctx.subquery (Some e) q in
      match Relation.rows r with
      | [] -> Value.Null
      | [ row ] ->
          if Array.length row <> 1 then
            raise (Type_error "scalar subquery must return one column")
          else Row.get row 0
      | _ :: _ :: _ -> raise (Type_error "scalar subquery returned more than one row"))
  | Ast.In_subquery { arg; query; negated } ->
      let v = eval ctx e arg in
      let r = ctx.subquery (Some e) query in
      (* the arity is the result's, not its rows': an empty result with
         two columns is as wrong as a full one *)
      if List.length (Relation.schema r) <> 1 then
        raise (Type_error "IN subquery must return one column");
      let vs = List.map (fun row -> Row.get row 0) (Relation.rows r) in
      negate_tv negated (in_member (prepare_in vs) v)
  | Ast.Exists q ->
      let r = ctx.subquery (Some e) q in
      Value.Bool (not (Relation.is_empty r))
