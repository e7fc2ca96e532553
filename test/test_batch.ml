(* Randomized differential fuzz of the compiled row evaluator
   ([Compile.compile_row], IN sets, compiled DML and aggregate inputs)
   against the interpreted Eval walker, and chunk-size invariance of the
   streamed MOVE path (results, traffic, metrics). *)
open Sqlcore
module M = Msql.Msession
module Trace = Narada.Trace
module Ast = Sqlfront.Ast
module Eval = Ldbms.Eval
module Compile = Ldbms.Compile

let col = Schema.column
let s x = Value.Str x
let i x = Value.Int x
let f x = Value.Float x

(* an int above 2^53: compiled and interpreted paths must keep it exact *)
let big = (1 lsl 53) + 1

(* ---- differential fuzz: compiled closures vs the interpreter ----------- *)

let fuzz_schema =
  [
    col "n" Ty.Int;
    col "x" Ty.Float;
    col "t" Ty.Str;
    col "b" Ty.Bool;
    col "m" Ty.Int;
  ]

(* values skewed towards the traps: NULLs, ints above 2^53, negative
   zero-adjacent floats, empty strings *)
let gen_value rng j =
  match (j, Random.State.int rng 8) with
  | _, 0 -> Value.Null
  | 0, _ -> i (Random.State.int rng 20 - 10)
  | 1, _ -> f (float_of_int (Random.State.int rng 40 - 20) /. 4.)
  | 2, _ ->
      s
        (List.nth
           [ "alpha"; "beta"; "al"; ""; "gamma%" ]
           (Random.State.int rng 5))
  | 3, _ -> Value.Bool (Random.State.int rng 2 = 0)
  | _, 1 | _, 2 -> i (big + Random.State.int rng 3)
  | _, 3 | _, 4 -> f (float_of_int big)
  | _, _ -> i (Random.State.int rng 10)

let gen_row rng = Array.init 5 (fun j -> gen_value rng j)

let col_name j = List.nth [ "n"; "x"; "t"; "b"; "m" ] j

(* random predicates spanning the whole compile_row coverage: literals,
   columns, comparisons, arithmetic, Kleene connectives, IS NULL, LIKE,
   IN, BETWEEN — including ill-typed ones, whose Type_error must match *)
let rec gen_expr rng depth =
  let open Ast in
  let leaf () =
    if Random.State.bool rng then col (col_name (Random.State.int rng 5))
    else Lit (gen_value rng (Random.State.int rng 5))
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int rng 12 with
    | 0 | 1 ->
        let op =
          List.nth [ Eq; Neq; Lt; Le; Gt; Ge ] (Random.State.int rng 6)
        in
        Binop (op, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 2 -> Binop (And, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 3 -> Binop (Or, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 4 -> Unop (Not, gen_expr rng (depth - 1))
    | 5 ->
        Is_null
          { arg = gen_expr rng (depth - 1); negated = Random.State.bool rng }
    | 6 ->
        Like
          {
            arg = gen_expr rng (depth - 1);
            pattern =
              List.nth [ "al%"; "%a"; "_eta"; "%"; "" ] (Random.State.int rng 5);
            negated = Random.State.bool rng;
          }
    | 7 ->
        In_list
          {
            arg = gen_expr rng (depth - 1);
            items = [ leaf (); leaf () ];
            negated = Random.State.bool rng;
          }
    | 8 ->
        Between
          {
            arg = gen_expr rng (depth - 1);
            lo = leaf ();
            hi = leaf ();
            negated = Random.State.bool rng;
          }
    | 9 ->
        let op = List.nth [ Add; Sub; Mul ] (Random.State.int rng 3) in
        Binop (op, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 10 -> Unop (Neg, gen_expr rng (depth - 1))
    | _ -> leaf ()

let ctx = { Eval.subquery = (fun _ _ -> failwith "no subqueries"); agg = None }

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let test_fuzz_compile_row () =
  let rng = Random.State.make [| 4177 |] in
  let compiled = ref 0 in
  for _ = 1 to 2000 do
    let e = gen_expr rng 3 in
    match Compile.compile_row fuzz_schema e with
    | None -> ()
    | Some closure ->
        incr compiled;
        for _ = 1 to 5 do
          let row = gen_row rng in
          let want =
            outcome (fun () -> Eval.eval ctx (Eval.env fuzz_schema row) e)
          in
          let got = outcome (fun () -> closure row) in
          if want <> got then
            Alcotest.failf "compiled row closure diverges on %s: %s vs %s"
              (match want with Ok v -> Value.to_string v | Error m -> m)
              (match got with Ok v -> Value.to_string v | Error m -> m)
              "interpreter"
        done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fuzz exercised the compiler (%d compiled)" !compiled)
    true
    (!compiled > 300)

(* ---- differential: compiled DML and aggregate inputs vs the interpreter --

   UPDATE, DELETE and GROUP BY queries run through [Ldbms.Session] (which
   compiles their per-row expressions) and are checked against a reference
   the test computes itself with [Eval.eval] on the pre-update rows: final
   rows, affected counts and error messages. Subqueries run through the
   executor in both, against a second table [s], and may refer to the
   outer row's [n]. *)

let side_schema = [ col "k" Ty.Int; col "v" Ty.Float ]
let side_rows = [ [| i 1; f 2.5 |]; [| i 2; Value.Null |]; [| i 1; f (-1.) |] ]

let dml_db rows =
  let db = Ldbms.Database.create "fz" in
  Ldbms.Database.load db ~name:"t" fuzz_schema rows;
  Ldbms.Database.load db ~name:"s" side_schema side_rows;
  db

let run_stmt rows stmt =
  let sess = Ldbms.Session.connect (dml_db rows) Ldbms.Capabilities.ingres_like in
  match Ldbms.Session.exec sess stmt with
  | Error m -> Error m
  | Ok (Ldbms.Session.Affected k) -> (
      match Ldbms.Session.exec_sql sess "SELECT * FROM t" with
      | Ok (Ldbms.Session.Rows r) -> Ok (Relation.rows r, k)
      | _ -> Alcotest.fail "reading back t")
  | Ok (Ldbms.Session.Rows r) -> Ok (Relation.rows r, 0)
  | Ok _ -> Alcotest.fail "unexpected result"

(* the interpreter, with subqueries run by the executor on the pre-update
   database, and the executor's error texts *)
let reference rows f =
  let db = dml_db rows in
  let ctx =
    {
      Eval.subquery = (fun outer q -> Ldbms.Exec.run_select db ?outer q);
      agg = None;
    }
  in
  match f ctx with
  | r -> Ok r
  | exception Eval.Type_error m -> Error ("type error: " ^ m)
  | exception Eval.Unknown_column c -> Error ("unknown column: " ^ c)
  | exception Eval.Ambiguous_column c -> Error ("ambiguous column: " ^ c)
  | exception Ldbms.Exec.Error m -> Error m

let coerce (c : Schema.column) v =
  match v, c.Schema.ty with
  | Value.Null, _ -> Value.Null
  | Value.Int k, Ty.Float -> f (float_of_int k)
  | Value.Int _, Ty.Int | Value.Float _, Ty.Float | Value.Str _, Ty.Str
  | Value.Bool _, Ty.Bool ->
      v
  | _ ->
      raise
        (Ldbms.Exec.Error
           (Printf.sprintf "value %s does not fit column %s of type %s"
              (Value.to_string v) c.Schema.name (Ty.to_string c.Schema.ty)))

let ref_update rows ~sets ~where =
  reference rows (fun ctx ->
      let count = ref 0 in
      let out =
        List.map
          (fun row ->
            let env = Eval.env fuzz_schema row in
            let hit =
              match where with
              | None -> true
              | Some p -> Eval.truthy (Eval.eval ctx env p)
            in
            if not hit then row
            else begin
              incr count;
              let u = Array.copy row in
              List.iter
                (fun (name, e) ->
                  let j = Option.get (Schema.find_index fuzz_schema name) in
                  u.(j) <- coerce (List.nth fuzz_schema j) (Eval.eval ctx env e))
                sets;
              u
            end)
          rows
      in
      (out, !count))

let ref_delete rows ~where =
  reference rows (fun ctx ->
      let kept =
        List.filter
          (fun row ->
            not (Eval.truthy (Eval.eval ctx (Eval.env fuzz_schema row) where)))
          rows
      in
      (kept, List.length rows - List.length kept))

(* SELECT key, COUNT of all rows, then COUNT, MIN, MAX and SUM of e, FROM
   t GROUP BY key: groups in order of first appearance, aggregates in
   projection order, each over its group's rows in order *)
let agg_query key e =
  let open Ast in
  let agg fn arg = Proj_expr (Agg { fn; distinct = false; arg }, None) in
  select
    ~projections:
      [ Proj_expr (key, None); agg Count_star None; agg Count (Some e);
        agg Min (Some e); agg Max (Some e); agg Sum (Some e) ]
    ~from:[ { table = "t"; alias = None } ]
    ~group_by:[ key ] ()

let ref_aggregate rows key e =
  reference rows (fun ctx ->
      let ev row x = Eval.eval ctx (Eval.env fuzz_schema row) x in
      let groups = ref [] in
      List.iter
        (fun row ->
          let k = Value.to_literal (ev row key) in
          match List.assoc_opt k !groups with
          | Some g -> g := row :: !g
          | None -> groups := (k, ref [ row ]) :: !groups)
        rows;
      List.map
        (fun (_, g) ->
          let g = List.rev !g in
          let vs () =
            List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> ev r e) g)
          in
          let fold pick =
            match vs () with
            | [] -> Value.Null
            | v0 :: rest ->
                List.fold_left (fun a v -> if pick (Value.compare v a) then v else a) v0 rest
          in
          let sum () =
            let vs = vs () in
            if vs = [] then Value.Null
            else if List.for_all (fun v -> Value.as_int v <> None) vs then
              i (List.fold_left (fun a v -> a + Option.get (Value.as_int v)) 0 vs)
            else
              f
                (List.fold_left
                   (fun a v ->
                     match Value.as_float v with
                     | Some x -> a +. x
                     | None -> raise (Eval.Type_error "SUM of non-numeric value"))
                   0. vs)
          in
          let key_v = ev (List.hd g) key in
          let count = i (List.length g) in
          let count_e = i (List.length (vs ())) in
          let mn = fold (fun c -> c < 0) in
          let mx = fold (fun c -> c > 0) in
          let sm = sum () in
          [| key_v; count; count_e; mn; mx; sm |])
        (List.rev !groups)
      |> fun out -> (out, 0))

let literal_rows = List.map (fun r -> Array.to_list (Array.map Value.to_literal r))

let same_outcome what got want =
  let show = function
    | Ok (rows, k) ->
        Printf.sprintf "%d affected, rows [%s]" k
          (String.concat "; " (List.map (String.concat ",") (literal_rows rows)))
    | Error m -> "error: " ^ m
  in
  let norm = function
    | Ok (rows, k) -> Ok (literal_rows rows, k)
    | Error m -> Error m
  in
  if norm got <> norm want then
    Alcotest.failf "%s: got %s, want %s" what (show got) (show want)

(* a subquery wrapper for [e]: correlated (outer [n]) or not *)
let with_subquery rng e =
  let open Ast in
  let side ?where projections =
    select ?where ~projections ~from:[ { table = "s"; alias = None } ] ()
  in
  match Random.State.int rng 3 with
  | 0 ->
      Binop
        ( Or,
          e,
          In_subquery
            {
              arg = col "n";
              query = side [ Proj_expr (col "k", None) ];
              negated = Random.State.bool rng;
            } )
  | 1 ->
      Binop
        ( And,
          Exists (side ~where:(Binop (Eq, col "k", col "n")) [ Star ]),
          e )
  | _ ->
      Binop
        ( Add,
          Scalar_subquery
            (side
               [ Proj_expr (Agg { fn = Max; distinct = false; arg = Some (col "v") }, None) ]),
          e )

let test_fuzz_dml () =
  let rng = Random.State.make [| 9931 |] in
  let outcomes = Hashtbl.create 4 in
  let tally r =
    Hashtbl.replace outcomes
      (match r with Ok (_, 0) -> "none" | Ok _ -> "some" | Error _ -> "error")
      ()
  in
  for iter = 1 to 1500 do
    let rows = List.init (Random.State.int rng 7) (fun _ -> gen_row rng) in
    let maybe_sub e = if Random.State.int rng 4 = 0 then with_subquery rng e else e in
    let pred = maybe_sub (gen_expr rng 3) in
    match iter mod 3 with
    | 0 ->
        let sets =
          List.init
            (1 + Random.State.int rng 2)
            (fun _ -> (col_name (Random.State.int rng 5), maybe_sub (gen_expr rng 2)))
        in
        let where = if Random.State.int rng 8 = 0 then None else Some pred in
        let want = ref_update rows ~sets ~where in
        let got = run_stmt rows (Ast.Update { table = "t"; assignments = sets; where }) in
        tally want;
        same_outcome "UPDATE" got want
    | 1 ->
        let want = ref_delete rows ~where:pred in
        let got = run_stmt rows (Ast.Delete { table = "t"; where = Some pred }) in
        tally want;
        same_outcome "DELETE" got want
    | _ ->
        let key = gen_expr rng 1 and e = maybe_sub (gen_expr rng 2) in
        let want = ref_aggregate rows key e in
        let got = run_stmt rows (Ast.Select (agg_query key e)) in
        same_outcome "GROUP BY" got want
  done;
  List.iter
    (fun o -> Alcotest.(check bool) ("fuzz reached outcome " ^ o) true (Hashtbl.mem outcomes o))
    [ "none"; "some"; "error" ]

(* the shapes the fuzz reaches only by chance, pinned *)
let test_dml_edge_cases () =
  let rows =
    [
      [| i 1; f 0.5; s "alpha"; Value.Bool true; i 7 |];
      [| i 2; f 1.5; s "beta"; Value.Bool false; i 8 |];
      [| i 3; Value.Null; s ""; Value.Null; i 9 |];
    ]
  in
  let parse sql =
    match Sqlfront.Parser.parse_stmt sql with
    | st -> st
    | exception Sqlfront.Parser.Error (m, _, _) -> Alcotest.fail m
  in
  let check sql ?(rows = rows) expected =
    let got = run_stmt rows (parse sql) in
    (match got, expected with
    | Ok (_, k), `Affected n -> Alcotest.(check int) sql n k
    | Error m, `Error want -> Alcotest.(check string) sql want m
    | Ok (_, k), `Error want -> Alcotest.failf "%s: %d affected, want %s" sql k want
    | Error m, `Affected _ -> Alcotest.failf "%s: %s" sql m);
    got
  in
  (* a swap reads both columns from the pre-update row *)
  (match check "UPDATE t SET n = m, m = n WHERE n < 3" (`Affected 2) with
  | Ok (r1 :: r2 :: r3 :: _, _) ->
      Alcotest.(check (list string)) "swapped" [ "7"; "1"; "8"; "2"; "3"; "9" ]
        (List.map Value.to_literal [ r1.(0); r1.(4); r2.(0); r2.(4); r3.(0); r3.(4) ])
  | _ -> Alcotest.fail "swap result");
  (* a type error only the matching row reaches *)
  ignore (check "UPDATE t SET x = x + 1 WHERE t = 'beta' AND n > 0" (`Affected 1));
  ignore
    (check "UPDATE t SET x = t + 1 WHERE n = 2"
       (`Error "type error: arithmetic on non-numeric values beta, 1"));
  ignore (check "UPDATE t SET x = t + 1 WHERE n = 99" (`Affected 0));
  ignore
    (check "DELETE FROM t WHERE t > 1"
       (`Error "type error: cannot compare alpha with 1"));
  (* an unknown column raises on the first row, and not on an empty table *)
  ignore (check "UPDATE t SET n = zz WHERE n > 0" (`Error "unknown column: zz"));
  ignore (check "DELETE FROM t WHERE zz = 1" (`Error "unknown column: zz"));
  ignore (check ~rows:[] "UPDATE t SET n = zz WHERE zz = 1" (`Affected 0));
  ignore (check ~rows:[] "DELETE FROM t WHERE zz = 1" (`Affected 0));
  (match run_stmt [] (parse "SELECT zz, SUM(yy) FROM t GROUP BY zz") with
  | Ok ([], _) -> ()
  | _ -> Alcotest.fail "GROUP BY an unknown column of an empty table");
  (* the seat reservation: a subquery in WHERE sees the pre-update rows *)
  ignore
    (check "UPDATE t SET m = 0 WHERE n = (SELECT MIN(n) FROM t WHERE m > 0)"
       (`Affected 1));
  ignore
    (check "DELETE FROM t WHERE EXISTS (SELECT k FROM s WHERE k = n)"
       (`Affected 2))

(* The list scan SQL IN used to be, kept here as the reference the
   prepared-set membership of both tiers must reproduce: TRUE on the first
   equal member; a Type_error from the first incomparable member met
   before that; else UNKNOWN if a member (or the needle) is NULL; else
   FALSE. *)
let ref_in_values v vs =
  if Value.is_null v then Value.Null
  else
    let saw_null = ref false in
    let found =
      List.exists
        (fun x ->
          match Eval.value_compare_sql v x with
          | None ->
              saw_null := true;
              false
          | Some 0 -> true
          | Some _ -> false)
        vs
    in
    if found then Value.Bool true
    else if !saw_null then Value.Null
    else Value.Bool false

(* values where a hashed key could part from [Value.compare] equality *)
let in_traps =
  [|
    Value.Null; i 0; i 3; i (-7); f 3.0; f 0.0; f (-0.0); f 2.5; i big;
    i (big - 1); f (float_of_int (big - 1)); i min_int; f (-0x1p62);
    f 0x1p62; i max_int; f Float.nan; f (-.Float.nan); f Float.infinity;
    s "alpha"; s ""; Value.Bool true; Value.Bool false;
  |]

(* long IN lists (up to 200 members), mostly distinct fillers with traps,
   NULLs and incomparable classes sprinkled at random positions, so the
   first match and the first incomparable member fall on either side of
   each other; a few members are [-k] or a column, which take the
   constant-folded and the per-row set paths *)
let gen_long_in rng =
  let open Ast in
  let p_trap = Random.State.int rng 20
  and p_null = Random.State.int rng 3
  and p_other_class = Random.State.int rng 3 in
  let member k =
    let r = Random.State.int rng 100 in
    if r < p_trap then Lit in_traps.(Random.State.int rng (Array.length in_traps))
    else if r < p_trap + p_null then Lit Value.Null
    else if r < p_trap + p_null + p_other_class then
      Lit (if Random.State.bool rng then s "beta" else Value.Bool false)
    else if r = 99 then Unop (Neg, Lit (i k))
    else if r = 98 then col (col_name (Random.State.int rng 5))
    else Lit (if Random.State.bool rng then i (1000 + k) else f (float_of_int k +. 0.5))
  in
  let arg =
    if Random.State.bool rng then col (col_name (Random.State.int rng 5))
    else Lit in_traps.(Random.State.int rng (Array.length in_traps))
  in
  let items = List.init (1 + Random.State.int rng 200) member in
  (arg, items, Random.State.bool rng)

let test_fuzz_long_in_lists () =
  let rng = Random.State.make [| 2718 |] in
  let seen = Hashtbl.create 4 in
  let show = function Ok v -> Value.to_string v | Error m -> m in
  for _ = 1 to 1500 do
    let arg, items, negated = gen_long_in rng in
    let e = Ast.In_list { arg; items; negated } in
    let closure =
      match Compile.compile_row fuzz_schema e with
      | Some c -> c
      | None -> Alcotest.fail "an IN list over local columns must compile"
    in
    for _ = 1 to 3 do
      let row = gen_row rng in
      let env = Eval.env fuzz_schema row in
      let want =
        outcome (fun () ->
            let v = Eval.eval ctx env arg in
            let vs = List.map (Eval.eval ctx env) items in
            Eval.negate_tv negated (ref_in_values v vs))
      in
      let interp = outcome (fun () -> Eval.eval ctx env e) in
      let compiled = outcome (fun () -> closure row) in
      if interp <> want || compiled <> want then
        Alcotest.failf "IN over %d members: list scan %s, interpreter %s, \
                        compiled %s"
          (List.length items) (show want) (show interp) (show compiled);
      Hashtbl.replace seen
        (match want with Ok v -> Value.to_string v | Error _ -> "error")
        ()
    done
  done;
  List.iter
    (fun o ->
      Alcotest.(check bool) ("fuzz reached outcome " ^ o) true (Hashtbl.mem seen o))
    [ "TRUE"; "FALSE"; "NULL"; "error" ]

(* ---- chunk-size invariance of the full pipeline ------------------------ *)

(* same three-database federation as test_observability: a global join
   whose plan ships two MOVEs *)
let sales_schema = [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ]

let parts_schema =
  [ col "pid" Ty.Int; col ~width:16 "pname" Ty.Str; col "price" Ty.Float ]

let stock_schema = [ col "spid" Ty.Int; col ~width:16 "wh" Ty.Str ]

let make_fed3 () =
  let world = Netsim.World.create () in
  let directory = Narada.Directory.create () in
  let session = M.create ~world ~directory () in
  let sales = List.init 10 (fun k -> [| i k; i (k mod 5); i (k + 1) |]) in
  let parts =
    List.init 200 (fun k -> [| i k; s (Printf.sprintf "part%d" k); f 9.5 |])
  in
  let stock =
    List.init 150 (fun k -> [| i (k mod 50); s (Printf.sprintf "wh%d" k) |])
  in
  List.iter
    (fun (name, site, tname, schema, rows) ->
      Netsim.World.add_site world (Netsim.Site.make site);
      let db = Ldbms.Database.create name in
      Ldbms.Database.load db ~name:tname schema rows;
      Narada.Directory.register directory
        (Narada.Service.make ~site ~caps:Ldbms.Capabilities.ingres_like db);
      (match M.incorporate_auto session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m);
      match M.import_all session ~service:name with
      | Ok () -> ()
      | Error m -> failwith m)
    [
      ("market", "msite", "sales", sales_schema, sales);
      ("store", "ssite", "parts", parts_schema, parts);
      ("depot", "dsite", "stock", stock_schema, stock);
    ];
  (session, world)

let join3 =
  "USE market store depot SELECT s.sid, p.pname, st.wh FROM market.sales s, \
   store.parts p, depot.stock st WHERE s.part_id = p.pid AND s.part_id = \
   st.spid"

type run_record = {
  rr_result : string;
  rr_messages : int;
  rr_bytes : int;
  rr_ms : float;
  rr_moved : (int * int) list;  (* Moved (rows, bytes), in order *)
  rr_chunks : Trace.kind list;
}

let run_at_chunk_size chunk_rows =
  Narada.Lam.set_move_streaming ~chunk_rows ~window:4 ();
  let session, world = make_fed3 () in
  let moved = ref [] and chunks = ref [] in
  M.set_typed_trace session
    (Some
       (fun e ->
         match e.Trace.kind with
         | Trace.Moved { rows; bytes; _ } -> moved := (rows, bytes) :: !moved
         | Trace.Chunk _ as k -> chunks := k :: !chunks
         | _ -> ()));
  let result =
    match M.exec session join3 with
    | Ok r -> M.result_to_string r
    | Error m -> failwith m
  in
  let st = Netsim.World.stats world in
  {
    rr_result = result;
    rr_messages = st.Netsim.World.messages;
    rr_bytes = st.Netsim.World.bytes_moved;
    rr_ms = Netsim.World.now_ms world;
    rr_moved = List.rev !moved;
    rr_chunks = List.rev !chunks;
  }

let test_chunk_size_invariance () =
  Fun.protect ~finally:(fun () -> Narada.Lam.set_move_streaming ~chunk_rows:512 ~window:4 ())
  @@ fun () ->
  let base = run_at_chunk_size 0 (* monolithic legacy path *) in
  Alcotest.(check bool) "baseline shipped something" true (base.rr_bytes > 0);
  Alcotest.(check int) "monolithic run has no chunk events" 0
    (List.length base.rr_chunks);
  List.iter
    (fun chunk_rows ->
      let r = run_at_chunk_size chunk_rows in
      let tag fmt = Printf.sprintf fmt chunk_rows in
      Alcotest.(check string) (tag "results equal at chunk size %d")
        base.rr_result r.rr_result;
      Alcotest.(check int) (tag "messages equal at chunk size %d")
        base.rr_messages r.rr_messages;
      Alcotest.(check int) (tag "bytes equal at chunk size %d") base.rr_bytes
        r.rr_bytes;
      Alcotest.(check (float 0.0)) (tag "virtual time equal at chunk size %d")
        base.rr_ms r.rr_ms;
      Alcotest.(check bool) (tag "Moved events equal at chunk size %d") true
        (base.rr_moved = r.rr_moved);
      (* every streamed MOVE's installments: seq 1..total, rows summing to
         the Moved row count (chunk bytes also carry protocol overhead,
         so they are not compared to the payload figure) *)
      let by_move = Hashtbl.create 4 in
      List.iter
        (function
          | Trace.Chunk { mname; seq; total; rows; window; _ } ->
              Alcotest.(check int) (tag "window recorded at chunk size %d") 4
                window;
              let seqs, rowsum =
                Option.value ~default:([], 0) (Hashtbl.find_opt by_move mname)
              in
              Alcotest.(check bool) (tag "seq within total at %d") true
                (seq >= 1 && seq <= total);
              Hashtbl.replace by_move mname (seq :: seqs, rowsum + rows)
          | _ -> ())
        r.rr_chunks;
      Alcotest.(check bool) (tag "chunked runs emit chunk events at %d") true
        (Hashtbl.length by_move > 0);
      Hashtbl.iter
        (fun _ (seqs, _) ->
          let sorted = List.sort compare seqs in
          Alcotest.(check bool) (tag "contiguous stream at chunk size %d")
            true
            (sorted = List.init (List.length sorted) (fun k -> k + 1)))
        by_move;
      (* at one row per chunk, each shipped relation streams row-count
         installments: the per-move row sums match the Moved totals *)
      if chunk_rows = 1 then
        List.iter
          (fun (rows, _) ->
            Alcotest.(check bool) "a move streamed its rows one per chunk"
              true
              (Hashtbl.fold
                 (fun _ (_, rowsum) acc -> acc || rowsum = rows)
                 by_move false))
          r.rr_moved)
    [ 1; 7; 4096 ]

(* the metrics JSON document is byte-identical across chunk sizes: Chunk
   events have no metric dimension and Moved carries the totals *)
let test_chunk_size_invariant_metrics () =
  Fun.protect ~finally:(fun () -> Narada.Lam.set_move_streaming ~chunk_rows:512 ~window:4 ())
  @@ fun () ->
  let metrics_at chunk_rows =
    Narada.Lam.set_move_streaming ~chunk_rows ~window:4 ();
    let session, _world = make_fed3 () in
    (match M.exec session join3 with
    | Ok _ -> ()
    | Error m -> failwith m);
    M.metrics_json session
  in
  let base = metrics_at 0 in
  List.iter
    (fun chunk_rows ->
      Alcotest.(check string)
        (Printf.sprintf "metrics JSON identical at chunk size %d" chunk_rows)
        base (metrics_at chunk_rows))
    [ 1; 7; 4096 ]

let () =
  Alcotest.run "batch"
    [
      ( "differential",
        [
          Alcotest.test_case "compiled row closures vs interpreter" `Quick
            test_fuzz_compile_row;
          Alcotest.test_case "long IN lists vs list scan" `Quick
            test_fuzz_long_in_lists;
          Alcotest.test_case "DML and GROUP BY vs interpreter" `Quick
            test_fuzz_dml;
          Alcotest.test_case "DML edge cases" `Quick test_dml_edge_cases;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "chunk-size invariance" `Quick
            test_chunk_size_invariance;
          Alcotest.test_case "metrics JSON invariant" `Quick
            test_chunk_size_invariant_metrics;
        ] );
    ]
