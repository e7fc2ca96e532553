(* End-to-end MSQL benchmark: one workload, one seed, one run.

     msqlbench --workload join_ship|fleet_update|server_zipf --seed N
               --seconds S --trace 0|1

   A run first builds the federation from an empty process state (sites
   and tables loaded, INCORPORATE + IMPORT, server created and clients
   connected, one warm-up pass) and replays the seeded statement pass K
   times (K per workload, Gen.det_passes). Those deterministic passes
   feed every deterministic metric, so for a given seed they repeat
   exactly however fast the machine is. The run then keeps replaying the
   pass until S seconds are spent and builds the federation [n_builds]
   more times, spread over that window. These wall times are scaled to a
   reference machine speed measured beside them (calib.ml): throughput
   is the median scaled pass and set-up the median scaled build.
   Latency is read off the simulated clock. With --trace 1 the passes
   alternate untraced and traced, and the run reports the per-layer
   split instead (see ltrace.ml).

   The untraced path uses only the statement-level surface: Msession
   create/incorporate_auto/import_all/exec, Server create/connect/submit/
   step_round and their stats, the Netsim.World stats and clock, and the
   federation-building constructors. Prints one JSON object. *)

module M = Msql.Msession
module Srv = Msql.Server
module W = Netsim.World

let now_ns = Ltrace.now_ns

(* ---- federation -------------------------------------------------------- *)

let federation (w : Gen.t) =
  let world = W.create () and directory = Narada.Directory.create () in
  List.iter
    (fun (m : Gen.member) ->
      let db = Ldbms.Database.create m.service in
      List.iter
        (fun (t : Gen.table) ->
          if String.equal t.db m.service then
            Ldbms.Database.load db ~name:t.name t.schema (List.map Array.copy t.rows))
        w.tables;
      W.add_site world (Netsim.Site.make ~latency_ms:m.latency_ms m.site);
      Narada.Directory.register directory (Narada.Service.make ~site:m.site ~caps:m.caps db))
    w.members;
  (world, directory)

type fed =
  | Single of { sess : M.t; world : W.t }
  | Multi of { srv : Srv.t; world : W.t; sids : int array }

let world_of = function Single s -> s.world | Multi m -> m.world
let ok_or_fail = function Ok x -> x | Error m -> failwith m

let open_fed (w : Gen.t) =
  let world, directory = federation w in
  let services = List.map (fun (m : Gen.member) -> m.service) w.members in
  if Array.length w.streams = 1 then begin
    let sess = M.create ~world ~directory () in
    List.iter
      (fun service ->
        ok_or_fail (M.incorporate_auto sess ~service);
        ok_or_fail (M.import_all sess ~service))
      services;
    Single { sess; world }
  end
  else begin
    let clients = Array.length w.streams in
    let config =
      { (Srv.default_config ()) with
        Srv.max_sessions = clients; max_queue = w.depth; domains = 1 }
    in
    let srv = ok_or_fail (Srv.create ~config ~world ~directory ~services ()) in
    let sids =
      Array.init clients (fun _ ->
          match Srv.connect srv with
          | Ok sid -> sid
          | Error e -> failwith (Srv.error_message e))
    in
    Multi { srv; world; sids }
  end

(* ---- one pass ---------------------------------------------------------- *)

type outcome = {
  pos : int;  (** position in the pass ([-1] for server completions) *)
  st : Gen.stmt;
  res : (M.result, string) result;
  virt : float;  (** simulated ms from issue to completion *)
  wait : float;  (** simulated ms queued before its round began *)
}

(* how statements reach the program: plain calls, or the traced path *)
type runner = {
  exec : M.t -> string -> (M.result, string) result;
  round : Srv.t -> Srv.completion list;
  mutable excluded_ns : int;  (** tracer work inside a pass, not timed *)
}

let plain = { exec = M.exec; round = Srv.step_round; excluded_ns = 0 }

(* returns the pass's wall ns (tracer work excluded) and its outcomes *)
let run_pass runner fed (w : Gen.t) =
  let ex0 = runner.excluded_ns in
  let t0 = now_ns () in
  let out =
    match fed with
    | Single { sess; world } ->
        Array.mapi
          (fun pos (st : Gen.stmt) ->
            let v0 = W.now_ms world in
            let res = runner.exec sess st.sql in
            { pos; st; res; virt = W.now_ms world -. v0; wait = 0.0 })
          w.streams.(0)
    | Multi { srv; world; sids } ->
        let clients = Array.length sids in
        let next = Array.make clients 0 and outstanding = Array.make clients 0 in
        let pending = Hashtbl.create 64 in
        let out = ref [] in
        let more () =
          Hashtbl.length pending > 0
          || Array.exists Fun.id
               (Array.mapi (fun c n -> n < Array.length w.streams.(c)) next)
        in
        while more () do
          for c = 0 to clients - 1 do
            let stream = w.streams.(c) in
            let refused = ref false in
            while
              (not !refused) && outstanding.(c) < w.depth && next.(c) < Array.length stream
            do
              let st = stream.(next.(c)) in
              match Srv.submit srv sids.(c) st.sql with
              | Ok seq ->
                  Hashtbl.replace pending (sids.(c), seq) (c, st, W.now_ms world);
                  next.(c) <- next.(c) + 1;
                  outstanding.(c) <- outstanding.(c) + 1
              | Error (Srv.Overloaded _) -> refused := true  (* retry next round *)
              | Error e -> failwith (Srv.error_message e)
            done
          done;
          let start_v = W.now_ms world in
          let comps = runner.round srv in
          let end_v = W.now_ms world in
          List.iter
            (fun (c : Srv.completion) ->
              match Hashtbl.find_opt pending (c.c_sid, c.c_seq) with
              | Some (ci, st, submit_v) ->
                  Hashtbl.remove pending (c.c_sid, c.c_seq);
                  outstanding.(ci) <- outstanding.(ci) - 1;
                  out :=
                    { pos = -1; st; res = c.c_result; virt = end_v -. submit_v;
                      wait = start_v -. submit_v }
                    :: !out
              | None -> failwith "completion of a statement never submitted")
            comps
        done;
        Array.of_list (List.rev !out)
  in
  (now_ns () - t0 - (runner.excluded_ns - ex0), out)

(* ---- correctness ------------------------------------------------------- *)

type oracle = {
  mirror : Oracle.mirror;
  by_pos : Oracle.expectation array;  (** session workloads *)
  by_sql : (string, Oracle.expectation) Hashtbl.t;  (** [server_zipf] reads *)
  mutable stock_writes : string list;  (** successful stock UPDATEs, mirror SQL *)
}

(* A session workload's pass leaves the tables as it found them, so one
   in-order replay on the mirror gives what every position of every pass
   expects, and leaves the mirror in the federation's final state.
   [server_zipf] reads never depend on the stock column, so each distinct
   read is evaluated once whatever the interleaving; the successful stock
   updates are applied to the mirror at the end. *)
let make_oracle (w : Gen.t) =
  let mirror = Oracle.mirror w in
  let by_sql = Hashtbl.create 512 in
  let by_pos =
    if Array.length w.streams = 1 then Array.map (Oracle.expect mirror) w.streams.(0)
    else begin
      Array.iter
        (Array.iter (fun (st : Gen.stmt) ->
             if st.stock = None && not (Hashtbl.mem by_sql st.sql) then
               Hashtbl.replace by_sql st.sql (Oracle.expect mirror st)))
        w.streams;
      [||]
    end
  in
  { mirror; by_pos; by_sql; stock_writes = [] }

let expectation oracle o =
  match o.st.stock with
  | Some (db, _) -> Oracle.E_update [ (db, 1) ]
  | None -> if o.pos >= 0 then oracle.by_pos.(o.pos) else Hashtbl.find oracle.by_sql o.st.sql

(* count the outcomes that fail the oracle; [record] is false for the
   passes of the extra builds, whose stock updates land in federations
   the final state check never reads *)
let check_pass ?(record = true) oracle (outs : outcome array) =
  Array.fold_left
    (fun bad o ->
      let good = Oracle.check (expectation oracle o) o.res in
      (match o.st.stock, o.st.expect with
      | Some _, Gen.Update [ (_, sql) ] when good && record ->
          oracle.stock_writes <- sql :: oracle.stock_writes
      | _ -> ());
      if good then bad else bad + 1)
    0 outs

let final_state_mismatches oracle fed (w : Gen.t) =
  List.iter (fun sql -> ignore (Oracle.affected oracle.mirror sql)) oracle.stock_writes;
  oracle.stock_writes <- [];
  let reader =
    match fed with
    | Single { sess; _ } -> sess
    | Multi { srv; sids; _ } -> Option.get (Srv.session srv sids.(0))
  in
  Oracle.compare_state reader oracle.mirror w

(* exact fingerprint of a pass's deterministic observables *)
let fingerprint (outs : outcome array) ~bytes ~msgs =
  let b = Buffer.create 4096 in
  Array.iter
    (fun o ->
      Buffer.add_string b (Printf.sprintf "%h;" o.virt);
      Buffer.add_string b
        (match o.res with
        | Ok r -> Digest.to_hex (Digest.string (M.result_to_string r))
        | Error m -> m);
      Buffer.add_char b '\n')
    outs;
  Buffer.add_string b (Printf.sprintf "%d/%d" bytes msgs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- statistics -------------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* the highest standard percentile with at least ten samples beyond it *)
let tail_percentile n =
  List.find_opt
    (fun p -> n - int_of_float (ceil (p /. 100. *. float_of_int n)) >= 10)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
  |> Option.value ~default:50.0

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let word_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* ---- JSON -------------------------------------------------------------- *)

let jnum x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let jstr s = "\"" ^ String.escaped s ^ "\""
let jobj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) kvs) ^ "}"
let metric (name, value, unit) = (name, jobj [ ("value", jnum value); ("unit", jstr unit) ])

(* ---- the run ----------------------------------------------------------- *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  det_passes : int;
}

(* calibrated builds per untraced run, for set-up *)
let n_builds = 9

let stmts_in (w : Gen.t) =
  Array.fold_left (fun n s -> n + Array.length s) 0 w.streams

(* one independent build: federation, sessions, warm-up pass; the oracle
   check that follows is not part of set-up, so it is handed back as a
   thunk to run after the timing stops *)
let build_timed ?record oracle (w : Gen.t) =
  let fed = open_fed w in
  let world = world_of fed in
  let s0 = W.stats world in
  let b0 = s0.bytes_moved and m0 = s0.messages in
  let _, warm = run_pass plain fed w in
  fun () ->
    let bad = check_pass ?record oracle warm in
    let s1 = W.stats world in
    let fp = fingerprint warm ~bytes:(s1.bytes_moved - b0) ~msgs:(s1.messages - m0) in
    (fed, fp, bad)

let build ?record oracle w = build_timed ?record oracle w ()

type timed = {
  mutable passes : int;
  mutable best_ns : int;
  mutable stmts : int;
  mutable failed : int;
}

(* Wall times are taken between two runs of the calibration kernel
   (calib.ml) and scaled to the reference machine by their mean; the
   after-run of one measurement serves as the before-run of the next
   unless a build came between. *)
type clock = { mutable last : float option }

let calibrated clk f =
  let before = match clk.last with Some c -> c | None -> Calib.run_ms () in
  let t0 = now_ns () in
  let x = f () in
  let wall_s = float_of_int (now_ns () - t0) /. 1e9 in
  let after = Calib.run_ms () in
  clk.last <- Some after;
  (x, wall_s, wall_s *. Calib.reference_ms /. ((before +. after) /. 2.))

let untraced_run cfg (w : Gen.t) oracle =
  (* phase 1, before the calibration kernel first runs, so its garbage
     cannot touch the heap peak: the cold build and the deterministic
     passes *)
  let t0 = now_ns () in
  let finish = build_timed oracle w in
  let cold_s = float_of_int (now_ns () - t0) /. 1e9 in
  let fed, fp1, bad1 = finish () in
  let world = world_of fed in
  (* [W.stats] is the live record: read its counters out now *)
  let bytes0 = (W.stats world).bytes_moved and msgs0 = (W.stats world).messages in
  let tm = { passes = 0; best_ns = max_int; stmts = 0; failed = bad1 } in
  let record (ns, outs) =
    tm.passes <- tm.passes + 1;
    tm.best_ns <- min tm.best_ns ns;
    tm.stmts <- tm.stmts + Array.length outs;
    tm.failed <- tm.failed + check_pass oracle outs
  in
  let start = now_ns () in
  let det = ref [] in
  for _ = 1 to cfg.det_passes do
    let ns, outs = run_pass plain fed w in
    record (ns, outs);
    det := outs :: !det
  done;
  let peak = (Gc.quick_stat ()).top_heap_words in
  let bytes = (W.stats world).bytes_moved - bytes0 and msgs = (W.stats world).messages - msgs0 in
  let virt = List.concat_map (fun outs -> List.map (fun o -> o.virt) (Array.to_list outs)) !det in
  let det_stmts = List.length virt in
  (* phase 2, calibrated: passes for throughput, and the builds for
     set-up spread over the same window so they sample the machine's
     fast and slow spells alike; each build must reproduce the first
     build's warm-up exactly *)
  let clk = { last = None } in
  let builds = ref [] and pass_ref = ref [] in
  let another () =
    Gc.full_major ();
    clk.last <- None;
    let finish, s, s_ref = calibrated clk (fun () -> build_timed ~record:false oracle w) in
    let _, fp, bad = finish () in
    clk.last <- None;
    builds := (s, s_ref, fp, bad) :: !builds
  in
  let budget = int_of_float (cfg.seconds *. 1e9) in
  let due () = (now_ns () - start) * n_builds / max 1 budget in
  while !pass_ref = [] || now_ns () - start < budget do
    if List.length !builds < min n_builds (due ()) then another ();
    let (ns, outs), _, s_ref = calibrated clk (fun () -> run_pass plain fed w) in
    pass_ref := s_ref :: !pass_ref;
    record (ns, outs)
  done;
  let measured_s = float_of_int (now_ns () - start) /. 1e9 in
  let state_bad = final_state_mismatches oracle fed w in
  while List.length !builds < n_builds do another () done;
  let builds = List.rev !builds in
  let setups = cold_s :: List.map (fun (s, _, _, _) -> s) builds in
  let setups_ref = List.map (fun (_, s, _, _) -> s) builds in
  let fps_agree = List.for_all (fun (_, _, fp, _) -> String.equal fp fp1) builds in
  let build_bad = List.fold_left (fun n (_, _, _, b) -> n + b) 0 builds in
  let best_s = float_of_int tm.best_ns /. 1e9 in
  let sorted = Array.of_list (List.sort compare virt) in
  let n = Array.length sorted in
  let tail_p = tail_percentile n in
  let per_pass = stmts_in w in
  let attempted = tm.stmts + ((n_builds + 1) * per_pass) in
  let failed_stmts = tm.failed + build_bad in
  let failed = failed_stmts + List.length state_bad in
  let metrics =
    [ ("stmts_per_s", float_of_int per_pass /. median !pass_ref, "1/s");
      ("virt_p50_ms", percentile sorted 50., "ms");
      ("virt_tail_ms", percentile sorted tail_p, "ms");
      ("net_bytes_per_stmt", ratio (float_of_int bytes) (float_of_int det_stmts), "B");
      ("net_msgs_per_stmt", ratio (float_of_int msgs) (float_of_int det_stmts), "count");
      ("success_frac", ratio (float_of_int (attempted - failed_stmts)) (float_of_int attempted), "ratio");
      ("setup_s", median setups_ref, "s");
      ("peak_heap_mb", word_mb peak, "MiB") ]
  in
  let info =
    [ ("timed_passes", string_of_int tm.passes);
      ("det_passes", string_of_int cfg.det_passes);
      ("measured_s", jnum measured_s);
      ("virt_tail_pct", jnum tail_p);
      ("virt_samples", string_of_int n);
      ("fastest_pass_stmts_per_s", jnum (float_of_int per_pass /. best_s));
      ("raw_setup_s", "[" ^ String.concat ", " (List.map jnum setups) ^ "]");
      ("builds_agree", string_of_bool fps_agree);
      ("warmup_fingerprint", jstr fp1);
      ("state_mismatches", "[" ^ String.concat ", " (List.map jstr state_bad) ^ "]") ]
  in
  (fps_agree && failed = 0, attempted, failed, metrics, info)

(* ---- the traced run ---------------------------------------------------- *)

type tracer = {
  fr : Ltrace.front;
  eng : Ltrace.engine;
  mutable engine_kw : float;  (** minor kilowords inside engine calls *)
  mutable msess_self : float;
      (** prepare_text ns beyond the front-end layers; not clamped, so the
          layers sum to exactly the time spent inside statement calls *)
  runner : runner;
}

let sum = Array.fold_left ( +. ) 0.0

let tracer ~sids =
  let fr = Ltrace.front () and eng = Ltrace.engine () in
  let rec t =
    {
      fr; eng; engine_kw = 0.0; msess_self = 0.0;
      runner =
        {
          exec =
            (fun sess text ->
              let t0 = now_ns () in
              let res, prepare_ns =
                match M.prepare_text sess text with
                | Error m -> (Error m, now_ns () - t0)
                | Ok p ->
                    let prepare_ns = now_ns () - t0 in
                    let w0 = Gc.minor_words () in
                    Ltrace.begin_unit eng;
                    while M.step p do () done;
                    let res = M.finish p in
                    Ltrace.end_unit eng;
                    t.engine_kw <- t.engine_kw +. ((Gc.minor_words () -. w0) /. 1000.);
                    (res, prepare_ns)
              in
              (* the shadow translation runs after the real statement, so
                 the measured execution is not warmed by it *)
              let f0 = sum fr.f_ns in
              t.runner.excluded_ns <- t.runner.excluded_ns + Ltrace.shadow fr sess text ~full:true;
              t.msess_self <- t.msess_self +. float_of_int prepare_ns -. (sum fr.f_ns -. f0);
              res);
          round =
            (fun srv ->
              let sess sid = Option.get (Srv.session srv sid) in
              let misses sid = (M.cache_stats (sess sid)).plan_misses in
              let before = List.map (fun sid -> (sid, misses sid)) sids in
              let w0 = Gc.minor_words () in
              Ltrace.begin_unit eng;
              let comps = Srv.step_round srv in
              let t_end = now_ns () and w_end = Gc.minor_words () in
              let f0 = sum fr.f_ns and kw0 = sum fr.f_kw in
              (* a session that missed the plan cache this round ran the
                 whole front end; a hit stopped after parsing *)
              List.iter
                (fun (c : Srv.completion) ->
                  let full = misses c.c_sid > List.assoc c.c_sid before in
                  t.runner.excluded_ns <-
                    t.runner.excluded_ns + Ltrace.shadow fr (sess c.c_sid) c.c_sql ~full)
                comps;
              Ltrace.end_unit ~front_ns:(int_of_float (sum fr.f_ns -. f0)) ~at:t_end eng;
              t.engine_kw <- t.engine_kw +. ((w_end -. w0) /. 1000.) -. (sum fr.f_kw -. kw0);
              comps);
          excluded_ns = 0;
        };
    }
  in
  t

(* the counters the per-layer ratios are made of, as one vector so a
   pass's contribution is a difference *)
let c_plan_hits = 0 and c_plan_misses = 1 and c_result_hits = 2 and c_result_misses = 3
and c_pool_hits = 4 and c_pool_misses = 5 and c_ww = 6 and c_retries = 7
and c_compiled_hits = 8 and c_compiled_misses = 9 and c_rounds = 10 and c_requeues = 11
and c_shed = 12

let counters fed =
  let hits, misses, _ = Ldbms.Exec.compiled_cache_stats () in
  let cache, (m : Msql.Metrics.t), (rounds, requeues, shed) =
    match fed with
    | Single { sess; _ } -> (M.cache_stats sess, M.metrics sess, (0, 0, 0))
    | Multi { srv; _ } ->
        let s = Srv.stats srv in
        (Srv.cache_stats srv, Srv.metrics srv, (s.rounds, s.requeues, s.shed))
  in
  [| cache.plan_hits; cache.plan_misses; cache.result_hits; cache.result_misses;
     cache.pool_hits; cache.pool_misses; m.ww_conflicts; m.conflict_retries; hits; misses;
     rounds; requeues; shed |]

let traced_run cfg (w : Gen.t) oracle =
  let fed, _, bad1 = build oracle w in
  let sids = match fed with Multi { sids; _ } -> Array.to_list sids | Single _ -> [] in
  (* [t] records the first k traced passes, so the per-layer counts repeat
     exactly across runs; later traced passes run on a twin whose totals
     are dropped and only time the tracer's overhead *)
  let t = tracer ~sids and spare = tracer ~sids in
  let fr = t.fr and eng = t.eng in
  let set_sink tr =
    let sink = Option.map (fun tr -> Ltrace.sink tr.eng) tr in
    match fed with
    | Single { sess; _ } -> M.set_typed_trace sess sink
    | Multi { srv; _ } -> Srv.set_trace srv sink
  in
  let k = cfg.det_passes in
  let failed = ref bad1 and stmts = ref 0 in
  let best_plain = ref max_int and best_traced = ref max_int in
  let traced_wall = ref 0 and traced_stmts = ref 0 and plain_stmts = ref 0 in
  let minor = ref 0.0 and promoted = ref 0.0 and majors = ref 0 in
  let waits = ref [] in
  let counts = Array.make 13 0 in
  let start = now_ns () in
  let budget = int_of_float (cfg.seconds *. 1e9) in
  let i = ref 0 in
  while !i < 2 * k || now_ns () - start < budget do
    let traced = !i mod 2 = 1 and nth = (!i / 2) + 1 in
    let recording = traced && nth <= k in
    let tr = if not traced then None else Some (if recording then t else spare) in
    set_sink tr;
    let before = counters fed in
    let g0 = Gc.quick_stat () in
    let runner = match tr with Some tr -> tr.runner | None -> plain in
    let ns, outs = run_pass runner fed w in
    if traced then begin
      best_traced := min !best_traced ns;
      if recording then begin
        traced_wall := !traced_wall + ns;
        traced_stmts := !traced_stmts + Array.length outs;
        Array.iter (fun o -> waits := o.wait :: !waits) outs;
        Array.iteri (fun j x -> counts.(j) <- counts.(j) + x - before.(j)) (counters fed)
      end
    end
    else begin
      best_plain := min !best_plain ns;
      if nth <= k then begin
        let g1 = Gc.quick_stat () in
        minor := !minor +. (g1.minor_words -. g0.minor_words);
        promoted := !promoted +. (g1.promoted_words -. g0.promoted_words);
        majors := !majors + (g1.major_collections - g0.major_collections);
        plain_stmts := !plain_stmts + Array.length outs
      end
    end;
    stmts := !stmts + Array.length outs;
    failed := !failed + check_pass oracle outs;
    incr i
  done;
  set_sink None;
  let state_bad = final_state_mismatches oracle fed w in
  let n = float_of_int !traced_stmts in
  let per x = ratio x n and per_k x = ratio (1000. *. x) n in
  let fl = float_of_int in
  let count j = fl counts.(j) in
  let frac h m = ratio h (h +. m) in
  let layer_sum = sum fr.f_ns +. sum eng.e_ns +. t.msess_self in
  let pn = fl !plain_stmts in
  let waits = Array.of_list (List.sort compare !waits) in
  let is_server = match fed with Multi _ -> true | Single _ -> false in
  let metrics =
    [ ("mparser.ns_per_stmt", per fr.f_ns.(0), "ns");
      ("mparser.kw_per_stmt", per fr.f_kw.(0), "kw");
      ("expand.ns_per_stmt", per fr.f_ns.(1), "ns");
      ("expand.elementary_per_stmt", ratio (fl fr.elementary) (fl fr.planned), "count");
      ("decompose.ns_per_stmt", per fr.f_ns.(2), "ns");
      ("decompose.semijoin_frac", ratio (fl fr.reduced) (fl fr.shipped), "ratio");
      ("plangen.ns_per_stmt", per fr.f_ns.(3), "ns");
      ("plangen.dol_stmts_per_stmt", ratio (fl fr.dol_stmts) (fl fr.planned), "count");
      ("dol_opt.ns_per_stmt", per fr.f_ns.(4), "ns");
      ("dol_opt.waves_per_stmt", ratio (fl fr.waves) (fl fr.planned), "count");
      ("dol_opt.crit_frac", ratio (fl fr.crit_len) (fl fr.dag_nodes), "ratio");
      ("msession.self_ns_per_stmt", per t.msess_self, "ns");
      ("engine.self_ns_per_stmt", per eng.e_ns.(Ltrace.c_self), "ns");
      ("engine.kw_per_stmt", per t.engine_kw, "kw");
      ("lam.open_ns_per_stmt", per eng.e_ns.(Ltrace.c_open), "ns");
      ("lam.opens_per_stmt", per (fl eng.opens), "count");
      ("lam.move_ns_per_stmt", per eng.e_ns.(Ltrace.c_move), "ns");
      ("lam.move_rows_per_stmt", per (fl eng.move_rows), "count");
      ("lam.move_bytes_per_row", ratio (fl eng.move_bytes) (fl eng.move_rows), "B");
      ("lam.twopc_ns_per_stmt", per eng.e_ns.(Ltrace.c_twopc), "ns");
      ("lam.twopc_virt_ms_per_stmt", per eng.twopc_virt, "ms");
      ("ldbms.task_ns_per_stmt", per eng.e_ns.(Ltrace.c_task), "ns");
      ("ldbms.compiled_hit_frac", frac (count c_compiled_hits) (count c_compiled_misses), "ratio");
      ("ldbms.ww_conflicts_per_kstmt", per_k (count c_ww), "count");
      ("ldbms.conflict_retries_per_kstmt", per_k (count c_retries), "count");
      ("msession.plan_hit_frac",
       frac (count c_plan_hits) (count c_plan_misses), "ratio");
      ("msession.result_hit_frac",
       frac (count c_result_hits) (count c_result_misses), "ratio");
      ("pool.hit_frac", frac (count c_pool_hits) (count c_pool_misses), "ratio");
      ("server.rounds_per_stmt", per (count c_rounds), "count");
      ("server.requeues_per_kstmt", per_k (count c_requeues), "count");
      ("server.shed_per_kstmt", per_k (count c_shed), "count");
      ("server.wait_virt_ms_p50",
       (if is_server && Array.length waits > 0 then percentile waits 50. else 0.), "ms");
      ("gc.minor_kw_per_stmt", ratio (!minor /. 1000.) pn, "kw");
      ("gc.promoted_kw_per_stmt", ratio (!promoted /. 1000.) pn, "kw");
      ("gc.major_per_kstmt", ratio (1000. *. fl !majors) pn, "count");
      ("trace.coverage_frac", ratio layer_sum (fl !traced_wall), "ratio");
      ("trace.overhead_frac", ratio (fl !best_traced) (fl !best_plain) -. 1.0, "ratio") ]
  in
  let info =
    [ ("passes", string_of_int !i);
      ("traced_stmts", string_of_int !traced_stmts);
      ("state_mismatches", "[" ^ String.concat ", " (List.map jstr state_bad) ^ "]") ]
  in
  let failed = !failed + List.length state_bad in
  (failed = 0, !stmts + stmts_in w, failed, metrics, info)

(* ---- main -------------------------------------------------------------- *)

let pinned_env = [ "MSQL_TEST_DATAFLOW"; "MSQL_TEST_DOMAINS"; "OCAMLRUNPARAM"; "CAMLRUNPARAM" ]

let gc_params () =
  let g = Gc.get () in
  jobj
    [ ("minor_heap_size", string_of_int g.minor_heap_size);
      ("space_overhead", string_of_int g.space_overhead);
      ("max_overhead", string_of_int g.max_overhead);
      ("stack_limit", string_of_int g.stack_limit) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "join_ship | fleet_update | server_zipf");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "timed seconds");
      ("--trace", Arg.Set_int trace, "1 for the traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "msqlbench --workload W --seed N --seconds S --trace 0|1";
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
  | [] -> ()
  | set ->
      prerr_endline
        ("msqlbench: refusing to run with " ^ String.concat ", " set
       ^ " set: each changes the measured program");
      exit 2);
  match Gen.make ~workload:!workload ~seed:!seed with
  | None ->
      prerr_endline ("msqlbench: unknown workload " ^ !workload);
      exit 2
  | Some w ->
      let cfg =
        { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
          det_passes = w.det_passes }
      in
      let oracle = make_oracle w in
      let correct, attempted, failed, metrics, info =
        (if cfg.trace then traced_run else untraced_run) cfg w oracle
      in
      print_endline
        (jobj
           [ ("correct", string_of_bool correct);
             ("attempted", string_of_int attempted);
             ("failed", string_of_int failed);
             ("metrics", jobj (List.map metric metrics));
             ("info",
              jobj
                ([ ("workload", jstr cfg.workload); ("seed", string_of_int cfg.seed);
                   ("sizes", jstr w.sizes); ("ocaml", jstr Sys.ocaml_version);
                   ("gc", gc_params ()) ]
                @ info)) ]);
      exit (if correct then 0 else 1)
