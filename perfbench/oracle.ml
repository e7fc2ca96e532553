(* The correctness oracle: the workload's statements evaluated on a merged
   single-site mirror directly through Ldbms.Session.exec_sql, outside the
   timed passes, compared with what MSQL returned by order-insensitive
   digests. *)

open Sqlcore
module M = Msql.Msession

type expectation =
  | E_rows of string  (** digest of the result rows *)
  | E_update of (string * int) list  (** member database, affected rows *)
  | E_mtx of (string * int) list * string list

let row_key (r : Row.t) =
  String.concat "\x1f" (Array.to_list (Array.map Value.to_string r))

let digest_rows rows =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare (List.map row_key rows))))

type mirror = Ldbms.Session.t

let mirror (w : Gen.t) =
  let db = Ldbms.Database.create "mirror" in
  List.iter
    (fun (t : Gen.table) ->
      Ldbms.Database.load db ~name:(Gen.mirror_name t.db t.name) t.schema
        (List.map Array.copy t.rows))
    w.tables;
  Ldbms.Session.connect db Ldbms.Capabilities.sybase_like

let exec m sql =
  match Ldbms.Session.exec_sql m sql with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "mirror: %s: %s" e sql)

let rows_of m sql =
  match exec m sql with
  | Ldbms.Session.Rows rel -> Relation.rows rel
  | _ -> failwith ("mirror: not a retrieval: " ^ sql)

let affected m sql =
  match exec m sql with
  | Ldbms.Session.Affected n -> n
  | _ -> failwith ("mirror: not a write: " ^ sql)

(* evaluate one statement on the mirror, applying its writes *)
let expect m (st : Gen.stmt) =
  match st.expect with
  | Gen.Rows qs -> E_rows (digest_rows (List.concat_map (rows_of m) qs))
  | Gen.Update l -> E_update (List.map (fun (db, q) -> (db, affected m q)) l)
  | Gen.Mtx (l, undone) -> E_mtx (List.map (fun (db, q) -> (db, affected m q)) l, undone)

let multitable_rows mt =
  List.concat_map (fun p -> Relation.rows p.Msql.Multitable.part_table)
    (Msql.Multitable.parts mt)

let affected_of details db =
  List.find_map
    (fun (r : M.db_report) ->
      if String.equal (String.lowercase_ascii r.rdb) db then Some r.raffected else None)
    details

let undone (s : Narada.Dol_ast.status) =
  match s with A | X | N -> true | C | P | E -> false

(* does an MSQL result match the mirror's expectation? *)
let check exp (res : (M.result, string) result) =
  match exp, res with
  | E_rows d, Ok (M.Multitable mt) -> String.equal d (digest_rows (multitable_rows mt))
  | E_update l, Ok (M.Update_report { outcome = M.Success; details; _ }) ->
      List.for_all (fun (db, n) -> affected_of details db = Some (Some n)) l
  | E_mtx (l, gone), Ok (M.Mtx_report { chosen = Some 0; incorrect = false; details; _ }) ->
      List.for_all (fun (db, n) -> affected_of details db = Some (Some n)) l
      && List.for_all
           (fun db ->
             List.exists
               (fun (r : M.db_report) ->
                 String.equal (String.lowercase_ascii r.rdb) db && undone r.rstatus)
               details)
           gone
  | _ -> false

(* digest of one federation table read back through MSQL *)
let msql_table sess ~db ~table =
  match M.exec sess (Printf.sprintf "USE %s SELECT * FROM %s" db table) with
  | Ok (M.Multitable mt) -> Some (digest_rows (multitable_rows mt))
  | _ -> None

let mirror_table m ~db ~table =
  digest_rows (rows_of m (Printf.sprintf "SELECT * FROM %s" (Gen.mirror_name db table)))

(* every federation table equals its mirror copy; returns the mismatches *)
let compare_state sess m (w : Gen.t) =
  List.filter_map
    (fun (t : Gen.table) ->
      let want = mirror_table m ~db:t.db ~table:t.name in
      match msql_table sess ~db:t.db ~table:t.name with
      | Some got when String.equal got want -> None
      | _ -> Some (t.db ^ "." ^ t.name))
    w.tables
