(* Once-per-statement compilation of WHERE predicates and projection
   expressions.

   Two tiers, both assembled from {!Eval}'s own primitives so compiled and
   interpreted evaluation agree by construction:

   - {!compile_row}: an [Ast.expr] becomes a [Row.t -> Value.t] closure
     with every column reference resolved to its index up front — the
     per-row [Schema.find_indices] walk (a linear scan with
     case-insensitive compares) disappears from the hot loop. Returns
     [None] whenever the expression needs machinery the closure cannot
     carry: a column that does not resolve to exactly one local index
     (outer references and ambiguities must keep the interpreter's exact
     error behaviour), any subquery, or an aggregate node.

   - {!compile_batch}: a predicate becomes a vectorized kernel over a
     {!Sqlcore.Batch}, producing a pair of bitmaps [(t, n)] — [t] has a
     bit per row where the predicate is TRUE, [n] where it is UNKNOWN —
     composed with Kleene algebra on whole bytes. The kernel is bound to
     one concrete batch (column typing is data-dependent, so the typed
     fast loops can only be selected once the batch exists); the cheap
     AST walk happens once per statement execution, never per row.

   Kleene composition on (t, n) bit pairs:
     AND:  t = t1 & t2          n = (t1|n1) & (t2|n2) & ~t
     OR:   t = t1 | t2          n = (n1|n2) & ~t
     NOT:  t = ~(t1|n1)         n = n1
   (a row is FALSE when neither its t nor its n bit is set). *)

module Ast = Sqlfront.Ast
open Sqlcore

let ( let* ) = Option.bind

(* The values of expressions that read no column (literals, [-3], [1 + 1]),
   or [None]. Evaluating them once ahead of the rows is exact: they are
   pure, and one that raises (or reads a column) makes the whole list
   [None], so the error stays per row, where the interpreter raises it.
   Called only on items [compile_row] accepted, so none has a subquery. *)
let constants items =
  let ctx = { Eval.subquery = (fun _ _ -> assert false); agg = None } in
  match List.map (Eval.eval ctx (Eval.env [] [||])) items with
  | vs -> Some vs
  | exception (Eval.Type_error _ | Eval.Unknown_column _) -> None

(* ---- row-closure tier ----------------------------------------------------- *)

let rec compile_row schema (expr : Ast.expr) : (Row.t -> Value.t) option =
  match expr with
  | Ast.Lit v -> Some (fun _ -> v)
  | Ast.Col { qualifier; name } -> (
      match Schema.find_indices schema ?qualifier name with
      | [ i ] -> Some (fun row -> row.(i))
      | [] | _ :: _ :: _ -> None)
  | Ast.Binop (Ast.And, a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      (* both sides always evaluate — Kleene AND, no short-circuit *)
      Some (fun row -> Eval.logic_and (fa row) (fb row))
  | Ast.Binop (Ast.Or, a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.logic_or (fa row) (fb row))
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.comparison op (fa row) (fb row))
  | Ast.Binop (Ast.Concat, a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.concat (fa row) (fb row))
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b) ->
      let* fa = compile_row schema a in
      let* fb = compile_row schema b in
      Some (fun row -> Eval.arith op (fa row) (fb row))
  | Ast.Unop (Ast.Not, a) ->
      let* fa = compile_row schema a in
      Some (fun row -> Eval.logic_not (fa row))
  | Ast.Unop (Ast.Neg, a) ->
      let* fa = compile_row schema a in
      Some
        (fun row ->
          match fa row with
          | Value.Null -> Value.Null
          | Value.Int i -> Value.Int (-i)
          | Value.Float f -> Value.Float (-.f)
          | v -> raise (Eval.Type_error ("negation of " ^ Value.to_string v)))
  | Ast.Is_null { arg; negated } ->
      let* fa = compile_row schema arg in
      Some
        (fun row ->
          let v = fa row in
          Value.Bool (if negated then not (Value.is_null v) else Value.is_null v))
  | Ast.Like { arg; pattern; negated } ->
      let* fa = compile_row schema arg in
      Some
        (fun row ->
          match fa row with
          | Value.Null -> Value.Null
          | Value.Str s ->
              Eval.negate_tv negated (Value.Bool (Like.sql_like ~pattern s))
          | v -> raise (Eval.Type_error ("LIKE on non-string " ^ Value.to_string v)))
  | Ast.In_list { arg; items; negated } -> (
      let* fa = compile_row schema arg in
      let* fis =
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* fi = compile_row schema item in
            Some (fi :: acc))
          items (Some [])
      in
      match constants items with
      | Some vs ->
          (* the shipped semijoin restriction: hashed once, not per row *)
          let set = Eval.prepare_in vs in
          Some (fun row -> Eval.negate_tv negated (Eval.in_member set (fa row)))
      | None ->
          Some
            (fun row ->
              let v = fa row in
              let vs = List.map (fun fi -> fi row) fis in
              Eval.negate_tv negated (Eval.in_member (Eval.prepare_in vs) v)))
  | Ast.Between { arg; lo; hi; negated } ->
      let* fa = compile_row schema arg in
      let* flo = compile_row schema lo in
      let* fhi = compile_row schema hi in
      Some
        (fun row ->
          let v = fa row in
          let lo = flo row and hi = fhi row in
          Eval.negate_tv negated
            (Eval.logic_and (Eval.comparison Ast.Ge v lo)
               (Eval.comparison Ast.Le v hi)))
  | Ast.Agg _ | Ast.Scalar_subquery _ | Ast.In_subquery _ | Ast.Exists _ -> None

(* ---- batch-kernel tier ----------------------------------------------------- *)

type masks = Batch.mask * Batch.mask  (* (true bits, unknown bits) *)

let nb len = (len + 7) / 8
let zero len = Bytes.make (nb len) '\000'

let bset b k =
  let i = k lsr 3 in
  Bytes.unsafe_set b i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor (1 lsl (k land 7))))

(* clear the bits at positions >= len in the last byte: byte-wise NOT would
   otherwise leak set bits past the row range *)
let mask_tail b len =
  if len land 7 <> 0 then begin
    let last = nb len - 1 in
    Bytes.unsafe_set b last
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get b last) land ((1 lsl (len land 7)) - 1)))
  end

let ones len =
  let b = Bytes.make (nb len) '\255' in
  mask_tail b len;
  b

let kleene_and (t1, n1) (t2, n2) len : masks =
  let bytes = nb len in
  let t = Bytes.create bytes and n = Bytes.create bytes in
  for i = 0 to bytes - 1 do
    let a1 = Char.code (Bytes.unsafe_get t1 i)
    and u1 = Char.code (Bytes.unsafe_get n1 i)
    and a2 = Char.code (Bytes.unsafe_get t2 i)
    and u2 = Char.code (Bytes.unsafe_get n2 i) in
    let tt = a1 land a2 in
    Bytes.unsafe_set t i (Char.unsafe_chr tt);
    Bytes.unsafe_set n i
      (Char.unsafe_chr ((a1 lor u1) land (a2 lor u2) land lnot tt land 0xff))
  done;
  (t, n)

let kleene_or (t1, n1) (t2, n2) len : masks =
  let bytes = nb len in
  let t = Bytes.create bytes and n = Bytes.create bytes in
  for i = 0 to bytes - 1 do
    let a1 = Char.code (Bytes.unsafe_get t1 i)
    and u1 = Char.code (Bytes.unsafe_get n1 i)
    and a2 = Char.code (Bytes.unsafe_get t2 i)
    and u2 = Char.code (Bytes.unsafe_get n2 i) in
    let tt = a1 lor a2 in
    Bytes.unsafe_set t i (Char.unsafe_chr tt);
    Bytes.unsafe_set n i (Char.unsafe_chr ((u1 lor u2) land lnot tt land 0xff))
  done;
  (t, n)

let kleene_not (t1, n1) len : masks =
  let bytes = nb len in
  let t = Bytes.create bytes in
  for i = 0 to bytes - 1 do
    let a1 = Char.code (Bytes.unsafe_get t1 i)
    and u1 = Char.code (Bytes.unsafe_get n1 i) in
    Bytes.unsafe_set t i (Char.unsafe_chr (lnot (a1 lor u1) land 0xff))
  done;
  mask_tail t len;
  (t, Bytes.copy n1)

let op_test = function
  | Ast.Eq -> fun c -> c = 0
  | Ast.Neq -> fun c -> c <> 0
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Ge -> fun c -> c >= 0
  | _ -> assert false

(* [op] mirrored for a literal on the left: [lit op col] = [col (mirror op) lit] *)
let mirror = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | (Ast.Eq | Ast.Neq) as op -> op
  | _ -> assert false

(* Column-vs-literal comparison over a typed column whose class matches
   the literal's exactly. Any other pairing — numeric cross-class, boxed
   columns, class mismatches that must raise — returns [None] so the row
   path keeps the interpreter's exact semantics. *)
let cmp_kernel (b : Batch.t) op ci lit =
  let col = b.Batch.cols.(ci) in
  let nulls = col.Batch.nulls in
  let test = op_test op in
  let leaf fill =
    Some
      (fun lo len ->
        let t = zero len and n = zero len in
        fill lo len t n;
        (t, n))
  in
  match col.Batch.data, lit with
  | _, Value.Null ->
      (* comparison with NULL is UNKNOWN for every row *)
      Some (fun _lo len -> (zero len, ones len))
  | Batch.Ints a, Value.Int v ->
      leaf (fun lo len t n ->
          for k = 0 to len - 1 do
            let i = lo + k in
            if Batch.mask_get nulls i then bset n k
            else if test (compare (Array.unsafe_get a i) v) then bset t k
          done)
  | Batch.Floats a, Value.Float v ->
      leaf (fun lo len t n ->
          for k = 0 to len - 1 do
            let i = lo + k in
            if Batch.mask_get nulls i then bset n k
            else if test (Float.compare (Array.unsafe_get a i) v) then bset t k
          done)
  | Batch.Strs a, Value.Str v ->
      leaf (fun lo len t n ->
          for k = 0 to len - 1 do
            let i = lo + k in
            if Batch.mask_get nulls i then bset n k
            else if test (String.compare (Array.unsafe_get a i) v) then bset t k
          done)
  | Batch.Bools a, Value.Bool v ->
      leaf (fun lo len t n ->
          for k = 0 to len - 1 do
            let i = lo + k in
            if Batch.mask_get nulls i then bset n k
            else if test (Bool.compare (Array.unsafe_get a i) v) then bset t k
          done)
  | _ -> None

let one_index schema ?qualifier name =
  match Schema.find_indices schema ?qualifier name with
  | [ i ] -> Some i
  | [] | _ :: _ :: _ -> None

let rec compile_batch (b : Batch.t) (expr : Ast.expr) :
    (int -> int -> masks) option =
  let schema = Batch.schema b in
  match expr with
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
               Ast.Col { qualifier; name }, Ast.Lit v) ->
      let* ci = one_index schema ?qualifier name in
      cmp_kernel b op ci v
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
               Ast.Lit v, Ast.Col { qualifier; name }) ->
      let* ci = one_index schema ?qualifier name in
      cmp_kernel b (mirror op) ci v
  | Ast.Binop (Ast.And, x, y) ->
      let* kx = compile_batch b x in
      let* ky = compile_batch b y in
      Some (fun lo len -> kleene_and (kx lo len) (ky lo len) len)
  | Ast.Binop (Ast.Or, x, y) ->
      let* kx = compile_batch b x in
      let* ky = compile_batch b y in
      Some (fun lo len -> kleene_or (kx lo len) (ky lo len) len)
  | Ast.Unop (Ast.Not, x) ->
      let* kx = compile_batch b x in
      Some (fun lo len -> kleene_not (kx lo len) len)
  | Ast.Is_null { arg = Ast.Col { qualifier; name }; negated } ->
      let* ci = one_index schema ?qualifier name in
      let nulls = b.Batch.cols.(ci).Batch.nulls in
      Some
        (fun lo len ->
          let t = zero len in
          for k = 0 to len - 1 do
            if Batch.mask_get nulls (lo + k) <> negated then bset t k
          done;
          (t, zero len))
  | Ast.Like { arg = Ast.Col { qualifier; name }; pattern; negated } -> (
      let* ci = one_index schema ?qualifier name in
      let col = b.Batch.cols.(ci) in
      match col.Batch.data with
      | Batch.Strs a ->
          let nulls = col.Batch.nulls in
          Some
            (fun lo len ->
              let t = zero len and n = zero len in
              for k = 0 to len - 1 do
                let i = lo + k in
                if Batch.mask_get nulls i then bset n k
                else if Like.sql_like ~pattern (Array.unsafe_get a i) <> negated
                then bset t k
              done;
              (t, n))
      | _ -> None)
  | Ast.Between { arg = Ast.Col _ as c; lo = Ast.Lit _ as l; hi = Ast.Lit _ as h;
                  negated } ->
      (* same truth table as the interpreter's
         [logic_and (Ge v lo) (Le v hi)], then three-valued NOT *)
      let* kge = compile_batch b (Ast.Binop (Ast.Ge, c, l)) in
      let* kle = compile_batch b (Ast.Binop (Ast.Le, c, h)) in
      Some
        (fun lo len ->
          let m = kleene_and (kge lo len) (kle lo len) len in
          if negated then kleene_not m len else m)
  | _ -> None
