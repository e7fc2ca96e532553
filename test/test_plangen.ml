(* Structural tests of the MSQL→DOL translator: task modes per engine
   capability, condition construction, compensation guards, move/cleanup
   structure of decomposed plans, and the acceptable-state cascade. *)
module D = Narada.Dol_ast
module P = Msql.Plangen
module F = Msql.Fixtures
module M = Msql.Msession

let translate ?caps sql =
  let fx = F.make ?caps () in
  match M.translate fx.F.session sql with
  | Ok prog -> prog
  | Error m -> Alcotest.fail m

let rec find_tasks = function
  | [] -> []
  | D.Task t :: rest -> t :: find_tasks rest
  | D.Parallel inner :: rest -> find_tasks inner @ find_tasks rest
  | D.If (_, a, b) :: rest -> find_tasks a @ find_tasks b @ find_tasks rest
  | _ :: rest -> find_tasks rest

(* projections of inline-record constructors *)
let rec find_moves = function
  | [] -> []
  | D.Move { mname; src; dst; dest_table; query; _ } :: rest ->
      (mname, src, dst, dest_table, query) :: find_moves rest
  | D.Parallel inner :: rest -> find_moves inner @ find_moves rest
  | D.If (_, a, b) :: rest -> find_moves a @ find_moves b @ find_moves rest
  | _ :: rest -> find_moves rest

let rec find_comps = function
  | [] -> []
  | D.Comp { cname; compensates; target; commands } :: rest ->
      (cname, compensates, target, commands) :: find_comps rest
  | D.Parallel inner :: rest -> find_comps inner @ find_comps rest
  | D.If (_, a, b) :: rest -> find_comps a @ find_comps b @ find_comps rest
  | _ :: rest -> find_comps rest

let rec find_ifs = function
  | [] -> []
  | D.If (c, a, b) :: rest -> (c :: find_ifs a @ find_ifs b) @ find_ifs rest
  | D.Parallel inner :: rest -> find_ifs inner @ find_ifs rest
  | _ :: rest -> find_ifs rest

let task_named prog name =
  match List.find_opt (fun (t : D.task) -> t.D.tname = name) (find_tasks prog) with
  | Some t -> t
  | None -> Alcotest.failf "no task %s" name

let vital_update = {|
USE continental VITAL delta united VITAL
UPDATE flight% SET rate% = rate% * 1.1
|}

let test_vital_2pc_tasks_nocommit () =
  let prog = translate vital_update in
  Alcotest.(check bool) "continental nocommit" true
    ((task_named prog "t_continental").D.mode = D.No_commit);
  Alcotest.(check bool) "united nocommit" true
    ((task_named prog "t_united").D.mode = D.No_commit);
  Alcotest.(check bool) "delta commits" true
    ((task_named prog "t_delta").D.mode = D.With_commit)

let test_vital_autocommit_task_commits () =
  (* continental autocommit + COMP: its task must run in commit mode and a
     guarded compensation must exist in the else branch *)
  let prog =
    translate
      ~caps:[ ("continental", Ldbms.Capabilities.sybase_like) ]
      (vital_update
      ^ "COMP continental UPDATE flights SET rate = rate / 1.1")
  in
  Alcotest.(check bool) "continental with-commit" true
    ((task_named prog "t_continental").D.mode = D.With_commit);
  (match find_comps prog with
  | [ (_, compensates, target, _) ] ->
      Alcotest.(check (option string)) "compensates" (Some "t_continental")
        compensates;
      Alcotest.(check string) "target" "continental" target
  | l -> Alcotest.failf "expected one comp, got %d" (List.length l));
  (* the comp is guarded by (t_continental=C) *)
  let has_guard =
    List.exists
      (function D.Status_is ("t_continental", D.C) -> true | _ -> false)
      (find_ifs prog)
  in
  Alcotest.(check bool) "guard" true has_guard

let test_no_vital_no_conditions () =
  let prog = translate "USE continental delta UPDATE flight% SET rate% = 1" in
  Alcotest.(check int) "no IF" 0 (List.length (find_ifs prog));
  List.iter
    (fun (t : D.task) ->
      Alcotest.(check bool) "all with-commit" true (t.D.mode = D.With_commit))
    (find_tasks prog)

let test_retrieval_tasks_commit_mode () =
  let prog = translate "USE continental VITAL delta SELECT %nu FROM flight%" in
  List.iter
    (fun (t : D.task) ->
      Alcotest.(check bool) "reads commit" true (t.D.mode = D.With_commit))
    (find_tasks prog)

let test_multiple_matches_one_db_get_separate_tasks () =
  (* f% matches f838 and flights in continental -> two tasks, so both
     partial results are kept *)
  let prog = translate "USE continental SELECT % FROM f%" in
  let tasks = find_tasks prog in
  Alcotest.(check int) "two tasks" 2 (List.length tasks)

let test_global_plan_structure () =
  let prog =
    translate
      {|USE avis national
        SELECT c.code, v.vcode FROM avis.cars c, national.vehicle v
        WHERE c.cartype = v.vty|}
  in
  (match find_moves prog with
  | [ (_, src, dst, dest_table, _) ] ->
      Alcotest.(check string) "move from national" "national" src;
      Alcotest.(check string) "to avis" "avis" dst;
      Alcotest.(check string) "tmp" "msql_tmp_1" dest_table
  | l -> Alcotest.failf "expected one move, got %d" (List.length l));
  let q_task = task_named prog "t_q" in
  Alcotest.(check string) "coordinator" "avis" q_task.D.target;
  let clean = task_named prog "t_clean" in
  Alcotest.(check bool) "cleanup drops tmp" true
    (Astring_contains.contains clean.D.commands "DROP TABLE msql_tmp_1")

let test_mtx_cascade_structure () =
  let prog =
    translate
      {|BEGIN MULTITRANSACTION
          USE continental delta
          LET fltab.sstat BE f838.seatstatus f747.sstat
          UPDATE fltab SET sstat = 'HOLD';
        COMMIT
          continental
          delta
        END MULTITRANSACTION|}
  in
  (* two acceptable states -> an IF whose else contains another IF *)
  let rec depth = function
    | D.If (_, _, els) -> 1 + List.fold_left (fun acc s -> max acc (depth s)) 0 els
    | _ -> 0
  in
  let max_depth = List.fold_left (fun acc s -> max acc (depth s)) 0 prog in
  Alcotest.(check int) "nested cascade" 2 max_depth;
  (* 2PC participants are NOCOMMIT: held prepared until the commit point *)
  List.iter
    (fun (t : D.task) ->
      Alcotest.(check bool) "held prepared" true (t.D.mode = D.No_commit))
    (find_tasks prog)

let test_open_sites_from_ad () =
  let prog = translate "USE continental SELECT %nu FROM flight%" in
  match
    List.find_opt (function D.Open _ -> true | _ -> false) prog
  with
  | Some (D.Open { open_site = Some "site1"; _ }) -> ()
  | Some (D.Open { open_site; _ }) ->
      Alcotest.failf "wrong site %s" (Option.value open_site ~default:"none")
  | _ -> Alcotest.fail "no open"

let test_unincorporated_service_refused () =
  let fx = F.make () in
  (* forge a GDD-only database with no AD entry *)
  Msql.Gdd.import_table (M.gdd fx.F.session) ~db:"ghost" ~table:"t"
    [ Sqlcore.Schema.column "a" Sqlcore.Ty.Int ];
  match M.translate fx.F.session "USE ghost SELECT a FROM t" with
  | Error m ->
      Alcotest.(check bool) "mentions incorporate" true
        (Astring_contains.contains m "INCORPORATE")
  | Ok _ -> Alcotest.fail "must refuse"

let test_programs_reparse () =
  (* every generated plan must round-trip through the DOL concrete syntax *)
  List.iter
    (fun sql ->
      let prog = translate sql in
      let printed = Narada.Dol_pp.program_to_string prog in
      Alcotest.(check bool) ("reparse: " ^ sql) true
        (Narada.Dol_parser.parse printed = prog))
    [
      vital_update;
      "USE avis national SELECT %code FROM %";
      "USE avis national SELECT c.code, v.vcode FROM avis.cars c, \
       national.vehicle v WHERE c.cartype = v.vty";
      "USE continental delta UPDATE flight% SET rate% = 1";
    ]

(* Float literals ship in a form the site reads back as the same float:
   [100.0000001] once shipped as [100] (losing flight 101, rate 100.0)
   and [0.00001] as [1e-05], which the site lexer rejected. *)
let float_queries =
  [
    ( "USE continental SELECT flnu, rate FROM flights WHERE rate < 100.0000001",
      "(rate < 100.0000001)" );
    ( "USE continental SELECT flnu, rate FROM flights WHERE rate > 0.00001",
      "(rate > 1e-05)" );
  ]

let contains hay needle = Astring_contains.contains hay needle

let test_float_literals_ship_exactly () =
  List.iter
    (fun (sql, shipped) ->
      match find_tasks (translate sql) with
      | [ t ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s ships %s (got %s)" sql shipped t.D.commands)
            true
            (contains t.D.commands shipped)
      | ts -> Alcotest.failf "%s: %d tasks" sql (List.length ts))
    float_queries

(* the federated result equals the same SELECT run at the site itself *)
let test_float_literals_match_site () =
  List.iter
    (fun (sql, _) ->
      let fx = F.make () in
      let local_sql =
        String.sub sql (String.length "USE continental ")
          (String.length sql - String.length "USE continental ")
      in
      let svc = Narada.Directory.find fx.F.directory "continental" in
      let site =
        Ldbms.Session.connect svc.Narada.Service.database svc.Narada.Service.caps
      in
      let want =
        match Ldbms.Session.exec_sql site local_sql with
        | Ok (Ldbms.Session.Rows r) -> r
        | Ok _ -> Alcotest.fail "site: not rows"
        | Error m -> Alcotest.fail ("site: " ^ m)
      in
      match M.exec fx.F.session sql with
      | Ok (M.Multitable mt) -> (
          match Msql.Multitable.find mt "continental" with
          | Some got ->
              Alcotest.(check (list (list string)))
                sql
                (List.map
                   (fun r -> List.map Sqlcore.Value.to_string (Sqlcore.Row.to_list r))
                   (Sqlcore.Relation.rows want))
                (List.map
                   (fun r -> List.map Sqlcore.Value.to_string (Sqlcore.Row.to_list r))
                   (Sqlcore.Relation.rows got))
          | None -> Alcotest.failf "%s: no continental part" sql)
      | Ok r -> Alcotest.failf "%s: %s" sql (M.result_to_string r)
      | Error m -> Alcotest.failf "%s: %s" sql m)
    float_queries;
  (* and the first query keeps the flight at exactly 100.0 *)
  let fx = F.make () in
  match M.exec fx.F.session (fst (List.hd float_queries)) with
  | Ok r ->
      Alcotest.(check bool) "flight 101 kept" true
        (contains (M.result_to_string r) "101")
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "plangen"
    [
      ( "replicated",
        [
          Alcotest.test_case "vital 2pc modes" `Quick test_vital_2pc_tasks_nocommit;
          Alcotest.test_case "autocommit comp" `Quick test_vital_autocommit_task_commits;
          Alcotest.test_case "no vital" `Quick test_no_vital_no_conditions;
          Alcotest.test_case "retrieval modes" `Quick test_retrieval_tasks_commit_mode;
          Alcotest.test_case "multi-match tasks" `Quick test_multiple_matches_one_db_get_separate_tasks;
          Alcotest.test_case "sites from AD" `Quick test_open_sites_from_ad;
          Alcotest.test_case "needs incorporation" `Quick test_unincorporated_service_refused;
        ] );
      ( "global",
        [ Alcotest.test_case "move/coordinator/cleanup" `Quick test_global_plan_structure ] );
      ( "mtx",
        [ Alcotest.test_case "cascade" `Quick test_mtx_cascade_structure ] );
      ( "syntax",
        [ Alcotest.test_case "reparse" `Quick test_programs_reparse ] );
      ( "float literals",
        [
          Alcotest.test_case "shipped text reads back exactly" `Quick
            test_float_literals_ship_exactly;
          Alcotest.test_case "result equals the site's own" `Quick
            test_float_literals_match_site;
        ] );
    ]
