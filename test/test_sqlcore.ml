open Sqlcore

let value = Alcotest.testable Value.pp Value.equal

(* ---- Value ---------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "null lowest" true (Value.compare Value.Null (Value.Int (-1)) < 0);
  Alcotest.(check bool) "int vs float" true (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "float vs int eq" true (Value.compare (Value.Float 2.0) (Value.Int 2) = 0);
  Alcotest.(check bool) "strings" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "numbers before strings" true
    (Value.compare (Value.Int 999) (Value.Str "0") < 0)

let test_value_equal () =
  (* equal must agree with compare, in both directions: a mixed Int/Float
     pair that compares 0 is equal *)
  Alcotest.(check bool) "int = float" true
    (Value.equal (Value.Int 1) (Value.Float 1.0));
  Alcotest.(check bool) "float = int" true
    (Value.equal (Value.Float 1.0) (Value.Int 1));
  Alcotest.(check bool) "int <> float" false
    (Value.equal (Value.Int 1) (Value.Float 1.5));
  Alcotest.(check bool) "float <> int" false
    (Value.equal (Value.Float 1.5) (Value.Int 1));
  Alcotest.(check bool) "same string" true (Value.equal (Value.Str "x") (Value.Str "x"));
  Alcotest.(check bool) "null eq null" true (Value.equal Value.Null Value.Null)

let test_value_compare_exact_bigint () =
  (* the cross-type comparison must not round the int to a double: above
     2^53 adjacent ints share a float image but stay distinct values *)
  let big = 9007199254740992 (* 2^53 *) in
  Alcotest.(check bool) "int = its float image" true
    (Value.compare (Value.Int big) (Value.Float 9007199254740992.0) = 0);
  Alcotest.(check bool) "2^53+1 above Float 2^53" true
    (Value.compare (Value.Int (big + 1)) (Value.Float 9007199254740992.0) > 0);
  Alcotest.(check bool) "Float 2^53 below 2^53+1" true
    (Value.compare (Value.Float 9007199254740992.0) (Value.Int (big + 1)) < 0);
  Alcotest.(check bool) "adjacent ints distinct" true
    (Value.compare (Value.Int big) (Value.Int (big + 1)) < 0);
  (* fractions and extremes *)
  Alcotest.(check bool) "int below its successor's fraction" true
    (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "negative fraction" true
    (Value.compare (Value.Int (-3)) (Value.Float (-2.5)) < 0);
  Alcotest.(check bool) "huge float above max_int" true
    (Value.compare (Value.Int max_int) (Value.Float 1e19) < 0);
  Alcotest.(check bool) "huge negative float below min_int" true
    (Value.compare (Value.Int min_int) (Value.Float (-1e19)) > 0)

let test_hash_join_exact_bigint_keys () =
  (* regression: keys routed through string_of_float merge adjacent ints
     above 2^53 into one bucket, joining rows whose values differ *)
  let big = 9007199254740992 (* 2^53 *) in
  let mk name vals =
    Relation.make
      [ Schema.column name Ty.Int ]
      (List.map (fun n -> [| Value.Int n |]) vals)
  in
  let a = mk "x" [ big; big + 1 ] and b = mk "y" [ big; big + 1; big + 2 ] in
  let joined = Relation.hash_join a b ~keys:[ (0, 0) ] in
  Alcotest.(check int) "only exact matches join" 2
    (Relation.cardinality joined);
  List.iter
    (fun row -> Alcotest.check value "key columns agree" row.(0) row.(1))
    (Relation.rows joined);
  (* Int and integral Float still share a key across the type boundary *)
  let c =
    Relation.make
      [ Schema.column "z" Ty.Float ]
      [ [| Value.Float 9007199254740992.0 |] ]
  in
  Alcotest.(check int) "int matches its exact float image" 1
    (Relation.cardinality (Relation.hash_join a c ~keys:[ (0, 0) ]))

(* [hash_join] against its definition: the product, filtered on SQL
   equality of every key pair (NULL never matches), same rows in the same
   order. The shapes are the ones a hash table gets wrong: duplicate and
   skewed keys, ints above 2^53, NULL keys, empty sides, Int/Float keys
   that compare numerically, keys of other classes that must not. *)
let mk_rel prefix tys rows =
  Relation.make
    (List.mapi (fun k ty -> Schema.column (Printf.sprintf "%s%d" prefix k) ty) tys)
    rows

let check_join name a b keys =
  let on row =
    let na = Schema.arity (Relation.schema a) in
    List.for_all
      (fun (ka, kb) ->
        let va = row.(ka) and vb = row.(na + kb) in
        (not (Value.is_null va)) && (not (Value.is_null vb)) && Value.equal va vb)
      keys
  in
  let want = Relation.filter on (Relation.product a b) in
  let got = Relation.hash_join a b ~keys in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d row(s), as the filtered product" name
       (Relation.cardinality want))
    true (Relation.equal got want);
  got

let ii = [ Ty.Int; Ty.Int ]
let big = 9007199254740992 (* 2^53 *)

let test_join_uniform () =
  ignore
    (check_join "uniform"
       (mk_rel "p" ii (List.init 170 (fun k -> [| Value.Int k; Value.Int (k mod 60) |])))
       (mk_rel "b" ii (List.init 200 (fun k -> [| Value.Int k; Value.Int (k mod 50) |])))
       [ (1, 1) ])

let test_join_skewed () =
  (* every build row carries the same key: one bucket holds them all *)
  ignore
    (check_join "skewed"
       (mk_rel "p" ii
          (List.init 90 (fun k ->
               [| Value.Int k; Value.Int (if k mod 3 = 0 then 7 else k) |])))
       (mk_rel "b" ii (List.init 120 (fun k -> [| Value.Int k; Value.Int 7 |])))
       [ (1, 1) ])

let test_join_few_keys () =
  (* two distinct build keys over sixty rows, probed with four: half the
     probe rows find nothing, the other half find thirty matches each (the
     name is from a partitioned join, where most partitions held no key) *)
  ignore
    (check_join "few distinct keys"
       (mk_rel "p" ii (List.init 40 (fun k -> [| Value.Int k; Value.Int (k mod 4) |])))
       (mk_rel "b" ii (List.init 60 (fun k -> [| Value.Int k; Value.Int (k mod 2) |])))
       [ (1, 1) ])

let test_join_bigint_keys () =
  (* adjacent Ints above 2^53 share a float image and must stay apart *)
  let got =
    check_join "bigint"
      (mk_rel "p" ii [ [| Value.Int 10; Value.Int big |]; [| Value.Int 11; Value.Int (big + 1) |] ])
      (mk_rel "b" ii
         [ [| Value.Int 0; Value.Int big |]; [| Value.Int 1; Value.Int (big + 1) |];
           [| Value.Int 2; Value.Int (big + 2) |] ])
      [ (1, 1) ]
  in
  Alcotest.(check int) "bigint: exactly the two true matches" 2
    (Relation.cardinality got)

let test_join_null_keys () =
  (* NULL keys never match, on either side *)
  let got =
    check_join "NULL keys on both sides"
      (mk_rel "p" ii [ [| Value.Int 10; Value.Null |]; [| Value.Int 11; Value.Int 5 |] ])
      (mk_rel "b" ii
         [ [| Value.Int 0; Value.Null |]; [| Value.Int 1; Value.Int 5 |];
           [| Value.Int 2; Value.Null |] ])
      [ (1, 1) ]
  in
  Alcotest.(check int) "null keys: single non-null match" 1
    (Relation.cardinality got)

let test_join_empty_sides () =
  let some = mk_rel "x" ii (List.init 30 (fun k -> [| Value.Int k; Value.Int (k mod 5) |])) in
  let none = mk_rel "y" ii [] in
  List.iter
    (fun (name, a, b) -> ignore (check_join name a b [ (1, 1) ]))
    [ ("empty build", some, none); ("empty probe", none, some); ("both empty", none, none) ]

let test_join_multikey_mixed () =
  (* two key columns, one carrying mixed Int/Float values that compare
     numerically equal across classes *)
  let got =
    check_join "multikey mixed Int/Float"
      (mk_rel "p" [ Ty.Int; Ty.Float ]
         (List.init 70 (fun k ->
              [| Value.Int (k mod 12);
                 (if k mod 3 = 0 then Value.Float (float_of_int (k mod 4))
                  else Value.Int (k mod 4)) |])))
      (mk_rel "b" [ Ty.Int; Ty.Float ]
         (List.init 80 (fun k ->
              [| Value.Int (k mod 10);
                 (if k mod 2 = 0 then Value.Int (k mod 4)
                  else Value.Float (float_of_int (k mod 4))) |])))
      [ (0, 0); (1, 1) ]
  in
  Alcotest.(check bool) "multikey: joins across Int/Float classes" true
    (Relation.cardinality got > 0)

let test_hash_join_vs_product () =
  let i x = Value.Int x and f x = Value.Float x and null = Value.Null in
  let check name a b keys = ignore (check_join name a b keys) in
  check "duplicates, NULL and big ints"
    (mk_rel "a" ii
       [ [| i 0; i 7 |]; [| i 1; i 7 |]; [| i 2; null |]; [| i 3; i big |];
         [| i 4; i (big + 2) |]; [| i 5; i (-3) |] ])
    (mk_rel "b" ii
       [ [| i 10; i 7 |]; [| i 11; i big |]; [| i 12; null |]; [| i 13; i 7 |];
         [| i 14; i (-3) |]; [| i 15; i (big + 1) |] ])
    [ (1, 1) ];
  check "mixed numeric classes"
    (mk_rel "a" ii [ [| i 0; i 5 |]; [| i 1; i big |]; [| i 2; i 9 |]; [| i 3; i 0 |] ])
    (mk_rel "b" [ Ty.Int; Ty.Float ]
       [ [| i 10; f 5.0 |]; [| i 11; f (float_of_int big) |]; [| i 12; f 9.5 |];
         [| i 13; f (-0.0) |]; [| i 14; f (float_of_int big +. 2.0) |] ])
    [ (1, 1) ];
  check "string and int keys"
    (mk_rel "a" [ Ty.Int; Ty.Str; Ty.Int ]
       [ [| i 0; Value.Str "x"; i 1 |]; [| i 1; Value.Str "x"; i 2 |];
         [| i 2; null; i 1 |]; [| i 3; Value.Str "5"; i 1 |] ])
    (mk_rel "b" [ Ty.Int; Ty.Str; Ty.Int ]
       [ [| i 10; Value.Str "x"; i 1 |]; [| i 11; Value.Str "x"; i 1 |];
         [| i 12; Value.Str "y"; i 2 |]; [| i 13; Value.Str "5"; i 1 |] ])
    [ (1, 1); (2, 2) ];
  check "other classes never meet"
    (mk_rel "a" [ Ty.Str ] [ [| Value.Str "1" |]; [| Value.Bool true |]; [| i 1 |] ])
    (mk_rel "b" [ Ty.Int ] [ [| i 1 |]; [| Value.Str "1" |]; [| Value.Bool true |] ])
    [ (0, 0) ]

let test_equal_unordered_mixed () =
  (* Int/Float mixed multisets: sorting by compare interleaves the two
     classes, and equal agrees with the sort order, so numerically equal
     multisets match regardless of representation *)
  let open Value in
  let schema = [ Schema.column "x" Ty.Float ] in
  let a = Relation.make schema [ [| Int 1 |]; [| Float 2.0 |] ] in
  let b = Relation.make schema [ [| Float 1.0 |]; [| Int 2 |] ] in
  Alcotest.(check bool) "mixed multisets equal" true (Relation.equal_unordered a b);
  Alcotest.(check bool) "mixed multisets equal (flipped)" true
    (Relation.equal_unordered b a);
  let c = Relation.make schema [ [| Float 1.5 |]; [| Int 2 |] ] in
  Alcotest.(check bool) "distinct multisets differ" false
    (Relation.equal_unordered a c)

let test_value_literal_roundtrip () =
  let cases =
    [ Value.Null; Value.Int 42; Value.Int (-7); Value.Float 1.5; Value.Str "hello";
      Value.Str "it's"; Value.Str ""; Value.Bool true; Value.Bool false ]
  in
  List.iter
    (fun v ->
      Alcotest.check value "roundtrip" v (Value.of_literal_exn (Value.to_literal v)))
    cases

let test_value_to_string () =
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "float int-valued" "45.0" (Value.to_string (Value.Float 45.0));
  Alcotest.(check string) "string unquoted" "abc" (Value.to_string (Value.Str "abc"));
  Alcotest.(check string) "literal quoted" "'it''s'" (Value.to_literal (Value.Str "it's"))

let test_value_size () =
  Alcotest.(check int) "str size" 5 (Value.size_bytes (Value.Str "hello"));
  Alcotest.(check int) "int size" 8 (Value.size_bytes (Value.Int 3))

(* ---- Ty -------------------------------------------------------------- *)

let test_ty_of_string () =
  Alcotest.(check bool) "int" true (Ty.of_string "integer" = Some Ty.Int);
  Alcotest.(check bool) "varchar" true (Ty.of_string "VARCHAR" = Some Ty.Str);
  Alcotest.(check bool) "date is str" true (Ty.of_string "DATE" = Some Ty.Str);
  Alcotest.(check bool) "unknown" true (Ty.of_string "blob" = None)

(* ---- Names ------------------------------------------------------------ *)

let test_names () =
  Alcotest.(check bool) "equal ci" true (Names.equal "Cars" "CARS");
  Alcotest.(check bool) "mem ci" true (Names.mem "RATE" [ "code"; "rate" ]);
  Alcotest.(check (option int)) "assoc ci" (Some 2)
    (Names.assoc_opt "Foo" [ ("bar", 1); ("FOO", 2) ])

(* the byte-wise comparisons agree with comparing lowercase copies, on
   every pair of short strings over a mixed-case, non-ASCII alphabet *)
let test_names_agree_with_canon () =
  let alphabet = [| "a"; "A"; "z"; "Z"; "_"; "@"; "["; "\xc3"; "\xe9" |] in
  let rng = Random.State.make [| 7 |] in
  let word () =
    String.concat ""
      (List.init (Random.State.int rng 4) (fun _ ->
           alphabet.(Random.State.int rng (Array.length alphabet))))
  in
  for _ = 1 to 5000 do
    let a = word () and b = word () in
    let ca = Names.canon a and cb = Names.canon b in
    Alcotest.(check bool) ("equal " ^ a ^ " " ^ b) (String.equal ca cb)
      (Names.equal a b);
    Alcotest.(check int) ("compare " ^ a ^ " " ^ b) (String.compare ca cb)
      (Names.compare a b)
  done

(* ---- Like -------------------------------------------------------------- *)

let test_sql_like () =
  let check pattern s expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" pattern s)
      expected
      (Like.sql_like ~pattern s)
  in
  check "abc" "abc" true;
  check "a%" "abc" true;
  check "%c" "abc" true;
  check "a_c" "abc" true;
  check "a_c" "abbc" false;
  check "%" "" true;
  check "_" "" false;
  check "%b%" "abc" true;
  check "s%n" "sedan" true;
  check "s%n" "suv" false

let test_identifier_match () =
  let check pattern s expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" pattern s)
      expected
      (Like.identifier ~pattern s)
  in
  check "rate%" "rate" true;
  check "rate%" "rates" true;
  check "rate%" "RATES" true;
  check "%code" "code" true;
  check "%code" "vcode" true;
  check "%code" "codex" false;
  check "flight%" "flights" true;
  check "flight%" "fl838" false;
  (* '_' is a literal in identifiers, not a wildcard *)
  check "a_b" "a_b" true;
  check "a_b" "axb" false

let prop_like_vs_naive =
  (* compare against a naive reference matcher on alphabet {a,b,%} *)
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '%' ]) (0 -- 8))
        (string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 8)))
  in
  let rec naive p s =
    match p, s with
    | "", "" -> true
    | "", _ -> false
    | _ ->
        if p.[0] = '%' then
          naive (String.sub p 1 (String.length p - 1)) s
          || (s <> "" && naive p (String.sub s 1 (String.length s - 1)))
        else
          s <> ""
          && p.[0] = s.[0]
          && naive (String.sub p 1 (String.length p - 1)) (String.sub s 1 (String.length s - 1))
  in
  QCheck.Test.make ~name:"like agrees with naive matcher" ~count:500
    (QCheck.make gen) (fun (p, s) -> Like.sql_like ~pattern:p s = naive p s)

(* ---- Schema ------------------------------------------------------------- *)

let schema_abc =
  [ Schema.column "a" Ty.Int; Schema.column "b" Ty.Str; Schema.column "c" Ty.Float ]

let test_schema_lookup () =
  Alcotest.(check (option int)) "find b" (Some 1) (Schema.find_index schema_abc "B");
  Alcotest.(check (option int)) "missing" None (Schema.find_index schema_abc "z");
  let qualified = Schema.requalify (Some "t") schema_abc in
  Alcotest.(check (option int)) "qualified" (Some 0)
    (Schema.find_index qualified ~qualifier:"T" "a");
  Alcotest.(check (option int)) "wrong qualifier" None
    (Schema.find_index qualified ~qualifier:"u" "a")

let test_schema_ambiguity () =
  let dup = schema_abc @ [ Schema.column "a" Ty.Str ] in
  Alcotest.(check int) "two matches" 2 (List.length (Schema.find_indices dup "a"))

let test_schema_union_compat () =
  let other =
    [ Schema.column "x" Ty.Int; Schema.column "y" Ty.Str; Schema.column "z" Ty.Float ]
  in
  Alcotest.(check bool) "compatible" true (Schema.union_compatible schema_abc other);
  Alcotest.(check bool) "not equal (names)" false (Schema.equal schema_abc other);
  Alcotest.(check bool) "incompatible arity" false
    (Schema.union_compatible schema_abc (List.tl other))

(* ---- Relation ------------------------------------------------------------ *)

let rel rows = Relation.make schema_abc (List.map Row.of_list rows)
let r3 =
  rel
    [
      [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
      [ Value.Int 2; Value.Str "y"; Value.Float 2.0 ];
      [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
    ]

let test_relation_make_checks_arity () =
  Alcotest.check_raises "arity" (Invalid_argument "Relation.make: row arity 1, schema arity 3")
    (fun () -> ignore (Relation.make schema_abc [ Row.of_list [ Value.Int 1 ] ]))

let test_relation_distinct () =
  Alcotest.(check int) "distinct removes dup" 2 (Relation.cardinality (Relation.distinct r3))

let test_relation_union_product () =
  let u = Relation.union r3 r3 in
  Alcotest.(check int) "union all" 6 (Relation.cardinality u);
  let p = Relation.product r3 r3 in
  Alcotest.(check int) "product" 9 (Relation.cardinality p);
  Alcotest.(check int) "product arity" 6 (Schema.arity (Relation.schema p))

let test_relation_order_limit () =
  let sorted = Relation.order_by (fun a b -> Value.compare b.(0) a.(0)) r3 in
  (match Relation.rows sorted with
  | first :: _ -> Alcotest.check value "max first" (Value.Int 2) first.(0)
  | [] -> Alcotest.fail "empty");
  Alcotest.(check int) "limit" 2 (Relation.cardinality (Relation.limit 2 r3));
  Alcotest.(check int) "limit over" 3 (Relation.cardinality (Relation.limit 10 r3))

let test_relation_equal_unordered () =
  let shuffled =
    rel
      [
        [ Value.Int 2; Value.Str "y"; Value.Float 2.0 ];
        [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
        [ Value.Int 1; Value.Str "x"; Value.Float 1.0 ];
      ]
  in
  Alcotest.(check bool) "unordered equal" true (Relation.equal_unordered r3 shuffled);
  Alcotest.(check bool) "ordered not equal" false (Relation.equal r3 shuffled)

let prop_distinct_idempotent =
  let gen = QCheck.Gen.(list_size (0 -- 20) (int_bound 3)) in
  QCheck.Test.make ~name:"distinct idempotent" ~count:200 (QCheck.make gen)
    (fun ints ->
      let r =
        Relation.make
          [ Schema.column "n" Ty.Int ]
          (List.map (fun n -> [| Value.Int n |]) ints)
      in
      let d = Relation.distinct r in
      Relation.equal (Relation.distinct d) d)

let prop_union_cardinality =
  let gen = QCheck.Gen.(pair (small_list int) (small_list int)) in
  QCheck.Test.make ~name:"union cardinality adds" ~count:200 (QCheck.make gen)
    (fun (xs, ys) ->
      let mk l =
        Relation.make
          [ Schema.column "n" Ty.Int ]
          (List.map (fun n -> [| Value.Int n |]) l)
      in
      Relation.cardinality (Relation.union (mk xs) (mk ys))
      = List.length xs + List.length ys)

(* ---- Scan ------------------------------------------------------------------ *)

let test_scan_comments () =
  let sc = Scan.create "  -- hi\n /* multi \n line */ x" in
  Scan.skip_ws_and_comments sc;
  Alcotest.(check (option char)) "reaches x" (Some 'x') (Scan.peek sc)

let test_scan_string () =
  let sc = Scan.create "'it''s fine'" in
  Alcotest.(check string) "escaped quote" "it's fine" (Scan.quoted_string sc)

let test_scan_error_position () =
  let sc = Scan.create "ab\ncd" in
  Scan.advance sc;
  Scan.advance sc;
  Scan.advance sc;
  Alcotest.(check int) "line" 2 (Scan.line sc);
  Alcotest.(check int) "col" 1 (Scan.column sc)

let qtests = List.map QCheck_alcotest.to_alcotest
    [ prop_like_vs_naive; prop_distinct_idempotent; prop_union_cardinality ]

let () =
  Alcotest.run "sqlcore"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "compare exact above 2^53" `Quick
            test_value_compare_exact_bigint;
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "literal roundtrip" `Quick test_value_literal_roundtrip;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
          Alcotest.test_case "size" `Quick test_value_size;
        ] );
      ("ty", [ Alcotest.test_case "of_string" `Quick test_ty_of_string ]);
      ( "names",
        [
          Alcotest.test_case "case-insensitive" `Quick test_names;
          Alcotest.test_case "agree with lowercase copies" `Quick
            test_names_agree_with_canon;
        ] );
      ( "like",
        [
          Alcotest.test_case "sql like" `Quick test_sql_like;
          Alcotest.test_case "identifier match" `Quick test_identifier_match;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "ambiguity" `Quick test_schema_ambiguity;
          Alcotest.test_case "union compat" `Quick test_schema_union_compat;
        ] );
      ( "relation",
        [
          Alcotest.test_case "arity check" `Quick test_relation_make_checks_arity;
          Alcotest.test_case "distinct" `Quick test_relation_distinct;
          Alcotest.test_case "union/product" `Quick test_relation_union_product;
          Alcotest.test_case "order/limit" `Quick test_relation_order_limit;
          Alcotest.test_case "equal unordered" `Quick test_relation_equal_unordered;
          Alcotest.test_case "equal unordered mixed int/float" `Quick
            test_equal_unordered_mixed;
          Alcotest.test_case "hash join exact keys above 2^53" `Quick
            test_hash_join_exact_bigint_keys;
          Alcotest.test_case "hash join vs filtered product" `Quick
            test_hash_join_vs_product;
          Alcotest.test_case "uniform keys" `Quick test_join_uniform;
          Alcotest.test_case "skewed keys" `Quick test_join_skewed;
          Alcotest.test_case "empty partitions" `Quick test_join_few_keys;
          Alcotest.test_case "bigint keys" `Quick test_join_bigint_keys;
          Alcotest.test_case "null keys" `Quick test_join_null_keys;
          Alcotest.test_case "empty sides" `Quick test_join_empty_sides;
          Alcotest.test_case "multikey mixed classes" `Quick
            test_join_multikey_mixed;
        ] );
      ( "scan",
        [
          Alcotest.test_case "comments" `Quick test_scan_comments;
          Alcotest.test_case "string escapes" `Quick test_scan_string;
          Alcotest.test_case "positions" `Quick test_scan_error_position;
        ] );
      ("properties", qtests);
    ]
