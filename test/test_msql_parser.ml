module A = Msql.Ast
module P = Msql.Mparser
module S = Sqlfront.Ast

let parse_q s = P.parse_query s

let test_use_simple () =
  let q = parse_q "USE avis national SELECT code FROM cars" in
  Alcotest.(check int) "two dbs" 2 (List.length q.A.scope);
  Alcotest.(check (list string)) "names" [ "avis"; "national" ] (A.scope_db_names q);
  List.iter
    (fun u -> Alcotest.(check bool) "non-vital default" true (u.A.vital = A.Non_vital))
    q.A.scope

let test_use_vital () =
  let q =
    parse_q "USE continental VITAL delta united VITAL UPDATE flight% SET rate% = 1"
  in
  (match q.A.scope with
  | [ c; d; u ] ->
      Alcotest.(check bool) "cont vital" true (c.A.vital = A.Vital);
      Alcotest.(check bool) "delta non" true (d.A.vital = A.Non_vital);
      Alcotest.(check bool) "united vital" true (u.A.vital = A.Vital)
  | _ -> Alcotest.fail "scope arity")

let test_use_alias () =
  let q = parse_q "USE (continental cont) VITAL (delta d) SELECT a FROM t" in
  (match q.A.scope with
  | [ c; d ] ->
      Alcotest.(check (option string)) "alias" (Some "cont") c.A.alias;
      Alcotest.(check bool) "vital" true (c.A.vital = A.Vital);
      Alcotest.(check (option string)) "alias2" (Some "d") d.A.alias
  | _ -> Alcotest.fail "scope arity");
  Alcotest.(check bool) "find by alias" true
    (A.find_in_scope q.A.scope "cont" <> None);
  Alcotest.(check bool) "find by name" true
    (A.find_in_scope q.A.scope "delta" <> None)

(* the MSQL lexer shares the SQL number lexer: exponents included *)
let test_float_exponent () =
  let q =
    parse_q "USE continental SELECT flnu FROM flights WHERE rate > 1e-05"
  in
  match q.A.body with
  | S.Select { where = Some (S.Binop (S.Gt, _, S.Lit (Sqlcore.Value.Float f))); _ } ->
      Alcotest.(check (float 0.0)) "1e-05" 1e-05 f
  | _ -> Alcotest.fail "expected rate > 1e-05"

let test_let () =
  let q =
    parse_q
      "USE avis national LET car.type.status BE cars.cartype.carst \
       vehicle.vty.vstat SELECT %code, type, ~rate FROM car WHERE status = 'available'"
  in
  (match q.A.lets with
  | [ { A.var_path; bindings } ] ->
      Alcotest.(check (list string)) "path" [ "car"; "type"; "status" ] var_path;
      Alcotest.(check int) "bindings" 2 (List.length bindings)
  | _ -> Alcotest.fail "one let expected");
  match q.A.body with
  | S.Select { projections = [ _; _; S.Proj_expr (S.Col { name = "~rate"; _ }, None) ]; _ } -> ()
  | _ -> Alcotest.fail "optional column token preserved"

let test_let_arity_mismatch () =
  match parse_q "USE a b LET x.y BE t.c u SELECT x FROM t" with
  | exception P.Error _ -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_multiple_identifiers_lexing () =
  let q =
    parse_q
      "USE continental UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'"
  in
  match q.A.body with
  | S.Update { table = "flight%"; assignments = [ ("rate%", _) ]; where = Some _ } -> ()
  | _ -> Alcotest.fail "patterns preserved in body"

let test_comp_clause () =
  let q =
    parse_q
      "USE continental VITAL united VITAL UPDATE flight% SET rate% = rate% * 1.1 \
       COMP continental UPDATE flights SET rate = rate / 1.1"
  in
  (match q.A.comps with
  | [ { A.comp_db = "continental"; comp_stmt = S.Update _ } ] -> ()
  | _ -> Alcotest.fail "comp clause")

let test_multitransaction () =
  let t =
    P.parse_toplevel
      {|
BEGIN MULTITRANSACTION
  USE continental delta
  UPDATE flight% SET rate% = 1;
  USE avis national
  UPDATE %code SET client = 'x';
COMMIT
  continental AND national
  delta AND avis
END MULTITRANSACTION
|}
  in
  match t with
  | A.Multitransaction { queries; acceptable } ->
      Alcotest.(check int) "queries" 2 (List.length queries);
      Alcotest.(check (list (list string))) "states"
        [ [ "continental"; "national" ]; [ "delta"; "avis" ] ]
        acceptable
  | _ -> Alcotest.fail "expected multitransaction"

let test_incorporate () =
  let t =
    P.parse_toplevel
      "INCORPORATE SERVICE oracle1 SITE siteA CONNECTMODE CONNECT COMMITMODE \
       NOCOMMIT CREATE NOCOMMIT INSERT NOCOMMIT DROP COMMIT"
  in
  match t with
  | A.Incorporate i ->
      Alcotest.(check string) "service" "oracle1" i.A.inc_service;
      Alcotest.(check (option string)) "site" (Some "siteA") i.A.inc_site;
      Alcotest.(check bool) "2pc" true (i.A.inc_commitmode = A.Supports_prepare);
      Alcotest.(check bool) "create" false i.A.inc_create_commit;
      Alcotest.(check bool) "drop" true i.A.inc_drop_commit
  | _ -> Alcotest.fail "expected incorporate"

let test_incorporate_defaults_follow_commitmode () =
  match P.parse_toplevel "INCORPORATE SERVICE s COMMITMODE COMMIT" with
  | A.Incorporate i ->
      Alcotest.(check bool) "autocommit" true (i.A.inc_commitmode = A.Commits_automatically);
      Alcotest.(check bool) "create defaults to commit" true i.A.inc_create_commit
  | _ -> Alcotest.fail "expected incorporate"

let test_import () =
  (match P.parse_toplevel "IMPORT DATABASE avis FROM SERVICE avis" with
  | A.Import { imp_scope = A.Import_all; _ } -> ()
  | _ -> Alcotest.fail "import all");
  (match P.parse_toplevel "IMPORT DATABASE avis FROM SERVICE avis TABLE cars" with
  | A.Import { imp_scope = A.Import_table { itable = "cars"; icolumns = None }; _ } -> ()
  | _ -> Alcotest.fail "import table");
  match
    P.parse_toplevel "IMPORT DATABASE avis FROM SERVICE avis TABLE cars COLUMN code rate"
  with
  | A.Import { imp_scope = A.Import_table { icolumns = Some [ "code"; "rate" ]; _ }; _ } -> ()
  | _ -> Alcotest.fail "import columns"

let test_script_parsing () =
  let tls =
    P.parse_script
      "IMPORT DATABASE a FROM SERVICE a; USE a SELECT x FROM t; USE a b UPDATE t SET x = 1"
  in
  Alcotest.(check int) "three statements" 3 (List.length tls)

let test_parse_errors () =
  let bad =
    [ "USE"; "USE a LET x BE SELECT 1 FROM t"; "SELECT a FROM t";
      "BEGIN MULTITRANSACTION COMMIT a END MULTITRANSACTION";
      "BEGIN MULTITRANSACTION USE a UPDATE t SET x = 1; END MULTITRANSACTION";
      "USE a SELECT x FROM t COMP"; "INCORPORATE foo" ]
  in
  List.iter
    (fun s ->
      match P.parse_toplevel s with
      | exception P.Error _ -> ()
      | _ -> Alcotest.failf "expected error: %s" s)
    bad

let test_use_current_flag () =
  let q = parse_q "USE CURRENT avis SELECT code FROM cars" in
  Alcotest.(check bool) "current" true q.A.use_current;
  let q2 = parse_q "USE avis SELECT code FROM cars" in
  Alcotest.(check bool) "not current" false q2.A.use_current

let test_explain () =
  (match P.parse_toplevel "EXPLAIN USE avis SELECT code FROM cars" with
  | A.Explain (A.Query _) -> ()
  | _ -> Alcotest.fail "explain query");
  match
    P.parse_toplevel
      "EXPLAIN BEGIN MULTITRANSACTION USE a UPDATE t SET x = 1; COMMIT a END MULTITRANSACTION"
  with
  | A.Explain (A.Multitransaction _) -> ()
  | _ -> Alcotest.fail "explain mtx"

let test_retrieval_flag () =
  Alcotest.(check bool) "select" true
    (A.is_retrieval (parse_q "USE a SELECT x FROM t"));
  Alcotest.(check bool) "update" false
    (A.is_retrieval (parse_q "USE a UPDATE t SET x = 1"))

let () =
  Alcotest.run "msql-parser"
    [
      ( "use",
        [
          Alcotest.test_case "simple" `Quick test_use_simple;
          Alcotest.test_case "vital" `Quick test_use_vital;
          Alcotest.test_case "alias" `Quick test_use_alias;
          Alcotest.test_case "current flag" `Quick test_use_current_flag;
          Alcotest.test_case "float exponent" `Quick test_float_exponent;
        ] );
      ( "let",
        [
          Alcotest.test_case "bindings" `Quick test_let;
          Alcotest.test_case "arity mismatch" `Quick test_let_arity_mismatch;
        ] );
      ( "body",
        [
          Alcotest.test_case "multiple identifiers" `Quick test_multiple_identifiers_lexing;
          Alcotest.test_case "comp clause" `Quick test_comp_clause;
          Alcotest.test_case "retrieval flag" `Quick test_retrieval_flag;
        ] );
      ( "toplevel",
        [
          Alcotest.test_case "multitransaction" `Quick test_multitransaction;
          Alcotest.test_case "incorporate" `Quick test_incorporate;
          Alcotest.test_case "incorporate defaults" `Quick test_incorporate_defaults_follow_commitmode;
          Alcotest.test_case "import" `Quick test_import;
          Alcotest.test_case "script" `Quick test_script_parsing;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
    ]
