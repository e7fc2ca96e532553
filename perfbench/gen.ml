(* Seeded inputs of the three workloads: the federation's tables and the
   statement streams, each statement paired with what the correctness
   oracle must evaluate on the merged single-site mirror (one LDBMS
   database holding every table as <db>_<table>). The same seed always
   yields the same inputs; nothing here touches the program under test. *)

open Sqlcore

type expect =
  | Rows of string list
      (** mirror SELECTs; the MSQL result is the union of their rows *)
  | Update of (string * string) list
      (** per member database, the mirror statement whose affected-row
          count the member's report must carry; outcome [Success] *)
  | Mtx of (string * string) list * string list
      (** members of acceptable state 0 with their mirror statements,
          then the members that must end undone *)

type stmt = {
  sql : string;
  expect : expect;
  stock : (string * int) option;
      (** [server_zipf] stock UPDATE: database and the row id it bumps *)
}

type table = { db : string; name : string; schema : Schema.t; rows : Row.t list }

type member = {
  service : string;
  site : string;
  caps : Ldbms.Capabilities.t;
  latency_ms : float;  (** the site's one-way message latency *)
}

(* Each seed deploys the sites with message latencies jittered by up to
   1% around Netsim's 5 ms default, so simulated times differ from seed to
   seed in their low digits instead of repeating exactly. *)
let latency rng = 5.0 *. (1.0 +. Random.State.float rng 0.02 -. 0.01)

type t = {
  members : member list;
  tables : table list;
  streams : stmt array array;
      (** one pass: a single stream for the session workloads, one stream
          per client for [server_zipf] *)
  depth : int;  (** per-client outstanding statements ([server_zipf]) *)
  det_passes : int;
      (** timed passes feeding the deterministic metrics: enough for at
          least 120 latency samples *)
  sizes : string;  (** human-readable sizes, recorded with each run *)
}

let col = Schema.column
let mirror_name db table = db ^ "_" ^ table

(* ---- random helpers ---------------------------------------------------- *)

let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let name40 rng prefix i =
  let s = Bytes.make 40 'x' in
  let p = Printf.sprintf "%s-%05d-" prefix i in
  Bytes.blit_string p 0 s 0 (String.length p);
  for k = String.length p to 39 do
    Bytes.set s k (Char.chr (97 + Random.State.int rng 26))
  done;
  Bytes.to_string s

(* [n] draws from a Zipf(s) law over [k] ranks, stratified: rank r gets
   floor(n p_r) draws and the slots left go to the largest remainders.
   Every seed therefore issues the same multiset of ranks, in its own
   order: the mix keeps its exact Zipf shape, and a seed moves the figures
   only through the parameters and data it draws. Returned shuffled. *)
let zipf_draws rng ~s ~k ~n =
  let w = Array.init k (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let quota = Array.map (fun x -> float_of_int n *. x /. total) w in
  let counts = Array.map int_of_float quota in
  let by_rest = Array.init k Fun.id in
  let rest i = quota.(i) -. float_of_int counts.(i) in
  Array.stable_sort (fun a b -> compare (rest b) (rest a)) by_rest;
  for j = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(by_rest.(j)) <- counts.(by_rest.(j)) + 1
  done;
  let draws = Array.concat (Array.to_list (Array.mapi (fun r c -> Array.make c r) counts)) in
  shuffle rng draws;
  draws

(* Random interleaving of write pairs with single statements: every
   pair's second half lands after its first half, so a pass that pairs
   each write with its inverse leaves the tables as it found them. *)
let interleave rng singles pairs =
  let items = Array.append (Array.map (fun s -> `One s) singles)
      (Array.map (fun p -> `Pair p) pairs) in
  shuffle rng items;
  let out = ref [] and pending = ref [] in
  let flush_one () =
    match !pending with
    | [] -> ()
    | _ ->
        let a = Array.of_list !pending in
        let i = Random.State.int rng (Array.length a) in
        out := a.(i) :: !out;
        pending := List.filteri (fun j _ -> j <> i) !pending
  in
  Array.iter
    (fun it ->
      if !pending <> [] && Random.State.int rng 3 = 0 then flush_one ();
      match it with
      | `One s -> out := s :: !out
      | `Pair (a, b) ->
          out := a :: !out;
          pending := b :: !pending)
    items;
  while !pending <> [] do flush_one () done;
  Array.of_list (List.rev !out)

(* ---- join_ship / server_zipf federation -------------------------------- *)

(* Prices are a fixed function of the row id, and sales reference the
   catalogue at a fixed stride from a seeded offset, so every seed sees
   the same spread of prices among the joined rows: a seed then moves a
   statement's shipped rows only through its own price bound, instead of
   through the luck of ~200 random keys. Names are seeded. *)
let price rid = (rid * 37) mod 97

let catalogue rng ~db ~table ~prefix ~rows ~stock =
  let schema =
    [ col "rid" Ty.Int; col ~width:40 "rname" Ty.Str; col "price" Ty.Float ]
    @ if stock then [ col "stock" Ty.Int ] else []
  in
  let row i =
    let base =
      [ Value.Int i; Value.Str (name40 rng prefix i); Value.Float (float_of_int (price i)) ]
    in
    Array.of_list (if stock then base @ [ Value.Int (Random.State.int rng 50) ] else base)
  in
  { db; name = table; schema; rows = List.init rows row }

let hub_members rng =
  let caps = Ldbms.Capabilities.ingres_like in
  List.map
    (fun (service, site) -> { service; site; caps; latency_ms = latency rng })
    [ ("hub", "h1"); ("depot", "d2"); ("mill", "m3") ]

let hub_tables rng ~parts ~supplies ~stock =
  let big = max parts supplies in
  let n = big / 32 in
  let stride = big / n in
  let offset = Random.State.int rng stride in
  let sales =
    { db = "hub"; name = "sales";
      schema = [ col "sid" Ty.Int; col "part_id" Ty.Int; col "qty" Ty.Int ];
      rows =
        List.init n (fun i ->
            [| Value.Int i; Value.Int ((i * stride) + offset);
               Value.Int (1 + ((i * 4) mod 9)) |]) }
  in
  [ sales;
    catalogue rng ~db:"depot" ~table:"parts" ~prefix:"part" ~rows:parts ~stock;
    catalogue rng ~db:"mill" ~table:"supplies" ~prefix:"sup" ~rows:supplies ~stock ]

(* 20 cross-site join templates: catalogue, projection and an optional
   quantity filter vary; the price bound is the statement's parameter *)
let join_template t price =
  let db, table = if t mod 2 = 0 then ("depot", "parts") else ("mill", "supplies") in
  let proj =
    match t / 2 mod 5 with
    | 0 -> "s.sid, r.rname, s.qty"
    | 1 -> "s.sid, r.price"
    | 2 -> "r.rname, r.price, s.qty"
    | 3 -> "s.sid, s.part_id, r.rname"
    | _ -> "r.rid, r.price, s.qty"
  in
  let qty = if t >= 10 then Printf.sprintf " AND s.qty > %d" (t mod 5 + 1) else "" in
  let where sales tbl =
    Printf.sprintf "FROM %s s, %s r WHERE s.part_id = r.rid AND r.price < %d%s"
      sales tbl price qty
  in
  let msql =
    Printf.sprintf "USE hub %s SELECT %s %s" db proj
      (where "hub.sales" (db ^ "." ^ table))
  in
  let mirror =
    Printf.sprintf "SELECT %s %s" proj
      (where (mirror_name "hub" "sales") (mirror_name db table))
  in
  { sql = msql; expect = Rows [ mirror ]; stock = None }

let join_ship ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let parts = 4000 and supplies = 2000 and n = 20 in
  let tables = hub_tables rng ~parts ~supplies ~stock:false in
  (* price bounds in 30..70 from a golden-ratio sequence with a seeded
     start, dealt in template order: every template's statements spread
     over the whole range, so a seed barely moves the shipped volume *)
  let templates = zipf_draws rng ~s:1.1 ~k:20 ~n in
  Array.sort compare templates;
  let start = Random.State.float rng 1.0 in
  let pass =
    Array.mapi
      (fun i t ->
        let u = Float.rem (start +. (float_of_int i *. 0.6180339887)) 1.0 in
        join_template t (30 + int_of_float (40.999 *. u)))
      templates
  in
  shuffle rng pass;
  { members = hub_members rng; tables; streams = [| pass |];
    depth = 1; det_passes = 6;
    sizes =
      Printf.sprintf "sales %d rows; parts %d, supplies %d rows; %d stmts/pass"
        (max parts supplies / 32) parts supplies n }

let server_zipf ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let parts = 2000 and supplies = 1500 in
  let clients = 4 and per_client = 50 and depth = 4 in
  let tables = hub_tables rng ~parts ~supplies ~stock:true in
  (* 1200 distinct reads over both catalogues and two projections. Each
     rank carries its own always-true rid bound, so every rank is a
     distinct plan and a distinct shipped subquery (its own plan- and
     result-cache entry) while all ranks of one shape ship the same rows.
     A pass draws more distinct statements than the 128-entry plan cache
     holds. *)
  let space = 1200 in
  let read_of_rank r =
    let db, table = if r mod 2 = 0 then ("depot", "parts") else ("mill", "supplies") in
    let proj = if r / 2 mod 2 = 0 then "s.sid, r.rname, s.qty" else "s.sid, r.price" in
    let where sales tbl =
      Printf.sprintf
        "FROM %s s, %s r WHERE s.part_id = r.rid AND r.price < 50 AND r.rid < %d"
        sales tbl (100000 + r)
    in
    { sql =
        Printf.sprintf "USE hub %s SELECT %s %s" db proj (where "hub.sales" (db ^ "." ^ table));
      expect =
        Rows
          [ Printf.sprintf "SELECT %s %s" proj
              (where (mirror_name "hub" "sales") (mirror_name db table)) ];
      stock = None }
  in
  let stock_update () =
    let db, table, n =
      if Random.State.bool rng then ("depot", "parts", parts)
      else ("mill", "supplies", supplies)
    in
    let rid = Random.State.int rng n in
    { sql = Printf.sprintf "USE %s UPDATE %s SET stock = stock + 1 WHERE rid = %d" db table rid;
      expect =
        Update
          [ (db, Printf.sprintf "UPDATE %s SET stock = stock + 1 WHERE rid = %d"
                   (mirror_name db table) rid) ];
      stock = Some (db, rid) }
  in
  (* 7% stock updates at evenly spaced positions, the rest Zipf reads in
     seeded order, dealt round-robin to the clients *)
  let total = clients * per_client in
  let updates = total * 7 / 100 in
  let reads = Array.map read_of_rank (zipf_draws rng ~s:0.9 ~k:space ~n:(total - updates)) in
  let next_read = ref 0 in
  let pass =
    Array.init total (fun i ->
        if (i + 1) * updates / total > i * updates / total then stock_update ()
        else begin
          incr next_read;
          reads.(!next_read - 1)
        end)
  in
  let streams = Array.init clients (fun c -> Array.init per_client (fun i -> pass.((i * clients) + c))) in
  let distinct = Hashtbl.create 512 in
  Array.iter (fun (st : stmt) -> Hashtbl.replace distinct st.sql ()) pass;
  { members = hub_members rng; tables; streams; depth; det_passes = 3;
    sizes =
      Printf.sprintf
        "sales %d rows; parts %d, supplies %d rows; %d clients x %d stmts/pass, \
         queue depth %d; %d distinct statements (read space %d)"
        (max parts supplies / 32) parts supplies clients per_client depth
        (Hashtbl.length distinct) space }

(* ---- fleet_update ------------------------------------------------------ *)

let cities = [| "Houston"; "San Antonio"; "Dallas"; "Austin"; "Chicago"; "Denver" |]
let fleet_n = 12

(* every fourth airline runs an autocommit-only engine *)
let fleet_caps k =
  if k mod 4 = 0 then Ldbms.Capabilities.sybase_like
  else if k mod 2 = 0 then Ldbms.Capabilities.oracle_like
  else Ldbms.Capabilities.ingres_like

let autocommit k = k mod 4 = 0
let airline k = Printf.sprintf "airline%d" k

let flight_schema =
  [ col "flnu" Ty.Int; col ~width:20 "source" Ty.Str;
    col ~width:20 "destination" Ty.Str; col "rate" Ty.Float; col "seats" Ty.Int ]

(* [m] distinct airlines in ascending order, drawn from [pool] *)
let choose rng pool m =
  let a = Array.copy pool in
  shuffle rng a;
  let l = Array.to_list (Array.sub a 0 m) in
  List.sort compare l

let fleet_update ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let rows = 200 in
  let members =
    List.init fleet_n (fun i ->
        let k = i + 1 in
        { service = airline k; site = Printf.sprintf "asite%d" k; caps = fleet_caps k;
          latency_ms = latency rng })
  in
  let tables =
    List.concat_map
      (fun i ->
        let k = i + 1 in
        (* routes and seat counts are spread evenly, so a predicate
           selects the same share of rows on every seed; rates are seeded *)
        let flights =
          List.init rows (fun j ->
              [| Value.Int ((k * 1000) + j); Value.Str cities.((j + k) mod 6);
                 Value.Str cities.(((j / 6) + (2 * k)) mod 6);
                 Value.Float (float_of_int (50 + Random.State.int rng 200));
                 Value.Int (20 + ((j * 97) mod 280)) |])
        in
        [ { db = airline k; name = "flights"; schema = flight_schema; rows = flights };
          { db = airline k; name = "xfer"; schema = flight_schema; rows = [] } ])
      (List.init fleet_n Fun.id)
  in
  let reads = 28 and updates = 28 and mtxs = 9 and transfers = 10 in
  let all = Array.init fleet_n (fun i -> i + 1) in
  let two_pc = Array.of_list (List.filter (fun k -> not (autocommit k)) (Array.to_list all)) in
  let pred () =
    if Random.State.bool rng then Printf.sprintf "source = '%s'" (pick rng cities)
    else Printf.sprintf "destination = '%s'" (pick rng cities)
  in
  let read i =
    let dbs = choose rng all (2 + (i mod 5)) in
    let cond = Printf.sprintf "%s AND seats > %d" (pred ()) (i * 250 / reads) in
    { sql =
        Printf.sprintf "USE %s SELECT flnu, rate, seats FROM flights WHERE %s"
          (String.concat " " (List.map airline dbs)) cond;
      expect =
        Rows
          (List.map
             (fun k ->
               Printf.sprintf "SELECT flnu, rate, seats FROM %s WHERE %s"
                 (mirror_name (airline k) "flights") cond)
             dbs);
      stock = None }
  in
  let set col d = if d >= 0 then Printf.sprintf "%s = %s + %d" col col d
    else Printf.sprintf "%s = %s - %d" col col (-d) in
  (* a multiple update with VITAL designators over 2-12 members and its
     inverse; autocommit VITAL members carry a COMP clause *)
  let update_pair i =
    let dbs = choose rng all (2 + (i mod 11)) in
    let vital = List.map (fun k -> (k, Random.State.bool rng)) dbs in
    let vital = if List.exists snd vital then vital
      else (fst (List.hd vital), true) :: List.tl vital in
    let column = if Random.State.bool rng then "seats" else "rate" in
    let d = 1 + Random.State.int rng 9 in
    let cond = pred () in
    let mk d =
      let scope =
        String.concat " "
          (List.map (fun (k, v) -> airline k ^ if v then " VITAL" else "") vital)
      in
      let comps =
        List.filter_map
          (fun (k, v) ->
            if v && autocommit k then
              Some (Printf.sprintf " COMP %s UPDATE flights SET %s WHERE %s"
                      (airline k) (set column (-d)) cond)
            else None)
          vital
      in
      { sql =
          Printf.sprintf "USE %s UPDATE flights SET %s WHERE %s%s" scope
            (set column d) cond (String.concat "" comps);
        expect =
          Update
            (List.map
               (fun k ->
                 ( airline k,
                   Printf.sprintf "UPDATE %s SET %s WHERE %s"
                     (mirror_name (airline k) "flights") (set column d) cond ))
               dbs);
        stock = None }
    in
    (mk d, mk (-d))
  in
  (* a multitransaction over three 2PC members with two acceptable
     states; without failures the first state is reached and the third
     member is rolled back *)
  let mtx_pair () =
    match choose rng two_pc 3 with
    | [ a; b; c ] ->
        let cond = pred () in
        let d = 1 + Random.State.int rng 9 in
        let mk d =
          let q k = Printf.sprintf "USE %s UPDATE flights SET %s WHERE %s;"
              (airline k) (set "rate" d) cond in
          { sql =
              Printf.sprintf
                "BEGIN MULTITRANSACTION %s %s %s COMMIT %s AND %s\n %s AND %s \
                 END MULTITRANSACTION"
                (q a) (q b) (q c) (airline a) (airline b) (airline a) (airline c);
            expect =
              Mtx
                ( List.map
                    (fun k ->
                      ( airline k,
                        Printf.sprintf "UPDATE %s SET %s WHERE %s"
                          (mirror_name (airline k) "flights") (set "rate" d) cond ))
                    [ a; b ],
                  [ airline c ] );
            stock = None }
        in
        (mk d, mk (-d))
    | _ -> assert false
  in
  (* a cross-database transfer into the target's xfer table, paired with
     the DELETE that empties it again *)
  let transfer_pair () =
    (* the target is a 2PC member, so every transfer pays the same
       commit protocol and the latency tail does not hinge on the draw *)
    let tgt = pick rng two_pc in
    let src = pick rng (Array.of_list (List.filter (( <> ) tgt) (Array.to_list all))) in
    let city = pick rng cities in
    let cols = "flnu, source, destination, rate, seats" in
    let ins =
      { sql =
          Printf.sprintf
            "USE %s %s INSERT INTO %s.xfer (%s) SELECT f.flnu, f.source, \
             f.destination, f.rate, f.seats FROM %s.flights f WHERE f.source = '%s'"
            (airline tgt) (airline src) (airline tgt) cols (airline src) city;
        expect =
          Update
            [ ( airline tgt,
                Printf.sprintf
                  "INSERT INTO %s (%s) SELECT f.flnu, f.source, f.destination, \
                   f.rate, f.seats FROM %s f WHERE f.source = '%s'"
                  (mirror_name (airline tgt) "xfer") cols
                  (mirror_name (airline src) "flights") city ) ];
        stock = None }
    in
    let del =
      { sql = Printf.sprintf "USE %s DELETE FROM xfer WHERE source = '%s'" (airline tgt) city;
        expect =
          Update
            [ ( airline tgt,
                Printf.sprintf "DELETE FROM %s WHERE source = '%s'"
                  (mirror_name (airline tgt) "xfer") city ) ];
        stock = None }
    in
    (ins, del)
  in
  let singles = Array.init reads read in
  let pairs =
    Array.concat
      [ Array.init updates update_pair;
        Array.init mtxs (fun _ -> mtx_pair ());
        Array.init transfers (fun _ -> transfer_pair ()) ]
  in
  let pass = interleave rng singles pairs in
  { members; tables; streams = [| pass |]; depth = 1; det_passes = 3;
    sizes =
      Printf.sprintf
        "%d airlines x %d flights (every 4th autocommit); %d stmts/pass: %d \
         reads, %d update, %d mtx, %d transfer pairs"
        fleet_n rows (Array.length pass) reads updates mtxs transfers }

let make ~workload ~seed =
  match workload with
  | "join_ship" -> Some (join_ship ~seed)
  | "fleet_update" -> Some (fleet_update ~seed)
  | "server_zipf" -> Some (server_zipf ~seed)
  | _ -> None
