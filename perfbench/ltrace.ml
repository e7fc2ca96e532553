(* The traced run's span recorder. Spans are taken from outside the
   library: the front-end layers are timed by calling their public entry
   points on each statement (a shadow translation whose result is
   discarded), and the engine side is split by stamping every typed trace
   event with the monotonic clock and charging the time since the
   previous stamp to the operation the event reports. Everything is kept
   in memory and folded into per-layer totals at the end. *)

module M = Msql.Msession
module D = Narada.Dol_ast
module T = Narada.Trace

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- front end: shadow translation ------------------------------------- *)

type layer = Parse | Expand | Decompose | Plangen | Dol_opt

let layer_index = function
  | Parse -> 0 | Expand -> 1 | Decompose -> 2 | Plangen -> 3 | Dol_opt -> 4

type front = {
  f_ns : float array;  (** self ns per front-end layer *)
  f_kw : float array;  (** minor-heap kilowords per front-end layer *)
  mutable planned : int;  (** statements that ran expansion through Dol_opt *)
  mutable elementary : int;
  mutable shipped : int;
  mutable reduced : int;
  mutable dol_stmts : int;
  mutable waves : int;
  mutable crit_len : int;
  mutable dag_nodes : int;
}

let front () =
  { f_ns = Array.make 5 0.0; f_kw = Array.make 5 0.0; planned = 0;
    elementary = 0; shipped = 0; reduced = 0; dol_stmts = 0; waves = 0;
    crit_len = 0; dag_nodes = 0 }

let timed fr layer f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f () in
  let t1 = now_ns () in
  let i = layer_index layer in
  fr.f_ns.(i) <- fr.f_ns.(i) +. float_of_int (t1 - t0);
  fr.f_kw.(i) <- fr.f_kw.(i) +. ((Gc.minor_words () -. w0) /. 1000.);
  x

let rec count_dol prog =
  List.fold_left
    (fun acc s ->
      match s with
      | D.Parallel body -> acc + count_dol body
      | D.If (_, a, b) -> acc + 1 + count_dol a + count_dol b
      | _ -> acc + 1)
    0 prog

let note_decomposition fr (dp : Msql.Decompose.plan) =
  fr.shipped <- fr.shipped + List.length dp.shipped;
  fr.reduced <-
    fr.reduced
    + List.length (List.filter (fun (s : Msql.Decompose.shipped) -> s.reduce <> None) dp.shipped)

(* Translate [text] the way the session's defaults do (semijoin gate and
   dataflow on, optimizer off). [full = false] stops after parsing: a
   plan-cache hit skips the rest. Returns the wall ns spent. *)
let shadow fr sess text ~full =
  let start = now_ns () in
  let ad = M.ad sess and gdd = M.gdd sess in
  let tl = timed fr Parse (fun () -> Msql.Mparser.parse_toplevel text) in
  if full then begin
    let plan =
      match tl with
      | Msql.Ast.Query q -> (
          match timed fr Expand (fun () -> Msql.Expand.expand gdd q) with
          | Msql.Expand.Replicated elems ->
              List.iter
                (fun (e : Msql.Expand.elementary) ->
                  fr.elementary <- fr.elementary + List.length e.stmts)
                elems;
              timed fr Plangen (fun () -> Msql.Plangen.plan_replicated ad q elems)
          | Msql.Expand.Global { gselect; grefs } ->
              fr.elementary <- fr.elementary + List.length grefs;
              let dp =
                timed fr Decompose (fun () ->
                    Msql.Decompose.decompose ~semijoin:true ~gselect ~grefs)
              in
              note_decomposition fr dp;
              timed fr Plangen (fun () -> Msql.Plangen.plan_global ad q dp)
          | Msql.Expand.Transfer { tdb; tuse; ttable; tcolumns; gselect; grefs } ->
              fr.elementary <- fr.elementary + List.length grefs;
              let dp =
                timed fr Decompose (fun () ->
                    Msql.Decompose.decompose ~semijoin:true ~gselect ~grefs)
              in
              note_decomposition fr dp;
              timed fr Plangen (fun () ->
                  Msql.Plangen.plan_transfer ad ~tdb ~tuse ~ttable ~tcolumns dp))
      | Msql.Ast.Multitransaction mtx ->
          let expanded =
            List.map
              (fun (q : Msql.Ast.query) ->
                match timed fr Expand (fun () -> Msql.Expand.expand gdd q) with
                | Msql.Expand.Replicated elems ->
                    List.iter
                      (fun (e : Msql.Expand.elementary) ->
                        fr.elementary <- fr.elementary + List.length e.stmts)
                      elems;
                    (q, elems)
                | _ -> failwith "shadow: cross-database query in a multitransaction")
              mtx.queries
          in
          timed fr Plangen (fun () -> Msql.Plangen.plan_mtx ad mtx expanded)
      | _ -> failwith "shadow: not a query"
    in
    let prog, st =
      timed fr Dol_opt (fun () -> Narada.Dol_opt.dataflow_with_stats plan.program)
    in
    fr.planned <- fr.planned + 1;
    fr.dol_stmts <- fr.dol_stmts + count_dol prog;
    fr.waves <- fr.waves + st.waves;
    fr.crit_len <- fr.crit_len + st.critical_path_len;
    fr.dag_nodes <- fr.dag_nodes + st.nodes
  end;
  now_ns () - start

(* ---- engine side: event-stamped gap charging --------------------------- *)

(* categories the gaps are charged to *)
let c_open = 0 and c_move = 1 and c_task = 2 and c_twopc = 3 and c_self = 4

type decision = { d_at : float; mutable d_last : float }

type engine = {
  e_ns : float array;  (** ns charged per category *)
  mutable cats : int array;  (** the current unit's buffered charges *)
  mutable gaps : int array;
  mutable len : int;
  mutable last : int;
  decided : (string, decision) Hashtbl.t;
  mutable twopc_virt : float;
  mutable opens : int;
  mutable move_rows : int;
  mutable move_bytes : int;
}

let engine () =
  { e_ns = Array.make 5 0.0; cats = Array.make 256 0; gaps = Array.make 256 0;
    len = 0; last = 0; decided = Hashtbl.create 8; twopc_virt = 0.0; opens = 0;
    move_rows = 0; move_bytes = 0 }

let tag ev = Option.value ev.T.tag ~default:""

let classify e (ev : T.event) =
  match ev.kind with
  | T.Opened _ ->
      e.opens <- e.opens + 1;
      c_open
  | T.Open_failed _ -> c_open
  | T.Moved { rows; bytes; _ } ->
      e.move_rows <- e.move_rows + rows;
      e.move_bytes <- e.move_bytes + bytes;
      c_move
  | T.Chunk _ -> c_move
  | T.Decision _ ->
      Hashtbl.replace e.decided (tag ev) { d_at = ev.at_ms; d_last = ev.at_ms };
      c_twopc
  | T.Recovered _ -> c_twopc
  | T.Status _ -> (
      match Hashtbl.find_opt e.decided (tag ev) with
      | Some d ->
          if ev.at_ms > d.d_last then d.d_last <- ev.at_ms;
          c_twopc
      | None -> c_task)
  | _ -> c_self

let push e cat gap =
  if e.len = Array.length e.cats then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    e.cats <- grow e.cats;
    e.gaps <- grow e.gaps
  end;
  e.cats.(e.len) <- cat;
  e.gaps.(e.len) <- gap;
  e.len <- e.len + 1

let sink e ev =
  let t = now_ns () in
  push e (classify e ev) (t - e.last);
  e.last <- t

let begin_unit e =
  e.len <- 0;
  Hashtbl.clear e.decided;
  e.last <- now_ns ()

(* Close a unit (one statement, or one server round): the tail after the
   last event is engine/scheduler self time. [front_ns] of front-end work
   known to sit at the start of the unit — a server round prepares its
   wave before stepping it — is taken out of the earliest gaps, because
   the shadow translation already accounts for it. *)
let end_unit ?(front_ns = 0) ?(at = now_ns ()) e =
  push e c_self (at - e.last);
  let left = ref front_ns in
  for i = 0 to e.len - 1 do
    let g = e.gaps.(i) in
    let take = min g !left in
    left := !left - take;
    e.e_ns.(e.cats.(i)) <- e.e_ns.(e.cats.(i)) +. float_of_int (g - take)
  done;
  Hashtbl.iter (fun _ d -> e.twopc_virt <- e.twopc_virt +. (d.d_last -. d.d_at)) e.decided;
  e.len <- 0
