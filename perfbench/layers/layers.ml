(* In-process probes for the per-layer metrics of perfbench.

   usage: layers.exe LINES TRACE REPS

   LINES holds one request line per line: the workload's distinct
   requests plus the probe lines the benchmark adds. Each public entry
   point of a layer is called on its own, [REPS] times, inside an
   Obs.Trace span named "perfbench.<layer>.<call>"; the program's own
   spans land in the same TRACE file, on the same monotonic clock, so
   the benchmark can subtract child spans of other layers (self time).

   Updates run last, in input order, on one store (the update-stream
   lines are a valid sequence from each session's initial state). *)

module Wire = Server.Wire
module Session = Server.Session
module Service = Server.Service
module Tuple = Relational.Tuple
module Parser = Logic.Parser
module Query = Logic.Query
module AE = Approx_measure.Estimator

let span name f = Obs.Trace.span ("perfbench." ^ name) f

let repeat reps f =
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done

let ok = function Ok v -> v | Error msg -> failwith msg
let field req name = Wire.str_field req name

(* The candidate tuple; [None] for a non-Boolean query without one
   (certain, analyze), which has no sentence to decompose or compile. *)
let tuple_of req q =
  match field req "tuple" with
  | Some s -> Some (ok (Parser.tuple s))
  | None -> if Query.arity q = 0 then Some Tuple.empty else None

let max_k req =
  match (field req "ks", Wire.int_field req "k") with
  | Some ks, _ ->
      List.fold_left max 1
        (List.map int_of_string (String.split_on_char ',' ks))
  | None, Some k -> k
  | None, None -> 16

(* The per-session layers, once per distinct (schema, db): a load into
   an empty store and a kernel-db build. *)
let probe_session reps loaded ~schema ~db =
  match Hashtbl.find_opt loaded (schema, db) with
  | Some entry -> entry
  | None ->
      repeat reps (fun () ->
          let store = Session.create () in
          span "server.session.load" (fun () -> Session.get store ~schema ~db));
      let entry = ok (Session.get (Session.create ()) ~schema ~db) in
      repeat reps (fun () ->
          span "incomplete.kernel_db" (fun () ->
              Incomplete.Support.kernel_db entry.Session.inst));
      Hashtbl.add loaded (schema, db) entry;
      entry

(* The layers behind one sentence Q(tuple): decomposition, kernel
   compile, and the op's own symbolic, conditional or sampling core. *)
let probe_sentence reps req entry q deps tuple =
  let inst = entry.Session.inst and schema = entry.Session.schema in
  let sentence = Query.instantiate q tuple in
  let extra_nulls = Tuple.nulls tuple in
  repeat reps (fun () ->
      span "analysis.decomp" (fun () ->
          Analysis.Decomp.analyze ~k:(max_k req) ~extra_nulls inst sentence));
  let db = Incomplete.Support.kernel_db inst in
  repeat reps (fun () ->
      span "incomplete.kernel_compile" (fun () ->
          Incomplete.Kernel.compile db sentence));
  match (req.Wire.op, deps) with
  | "measure", _ ->
      repeat reps (fun () ->
          span "core.symbolic" (fun () ->
              ( Zeroone.Support_poly.of_query inst q tuple,
                Zeroone.Measure.mu_symbolic inst q tuple,
                Zeroone.Measure.mu inst q tuple )))
  | "conditional", Some deps ->
      let sigma = Constraints.Dependency.set_to_formula schema deps in
      repeat reps (fun () ->
          span "core.conditional" (fun () ->
              Zeroone.Conditional.mu_cond_report ~sigma inst q tuple))
  | "approx", None ->
      let rat name = ok (AE.rat_of_string (Option.get (field req name))) in
      let seed = Option.value ~default:0 (Wire.int_field req "seed") in
      repeat reps (fun () ->
          span "approx_measure.mu_k" (fun () ->
              AE.mu_k inst q tuple ~k:(max_k req) ~eps:(rat "eps")
                ~delta:(rat "delta") ~seed))
  | _ -> ()

(* Every layer a read request passes through, called on its own. *)
let probe_read reps loaded req =
  let get name = Option.get (field req name) in
  let entry = probe_session reps loaded ~schema:(get "schema") ~db:(get "db") in
  let qs = get "query" in
  repeat reps (fun () -> span "logic.query_parse" (fun () -> Parser.query qs));
  let q = ok (Parser.query qs) in
  let tuple = tuple_of req q in
  let schema = entry.Session.schema in
  let deps =
    Option.map
      (fun s -> ok (Constraints.Dep_parser.parse schema s))
      (field req "constraints")
  in
  repeat reps (fun () ->
      span "analysis.report" (fun () ->
          Analysis.Report.analyze ~inst:entry.Session.inst ?deps ?tuple schema q));
  Option.iter (probe_sentence reps req entry q deps) tuple

(* The render of the payload Service.handle returned. *)
let render reps sessions req =
  match Service.handle ~sessions req with
  | Ok payload ->
      repeat reps (fun () ->
          span "server.wire.render" (fun () ->
              Wire.ok_line ~id:req.Wire.id ~op:req.Wire.op payload))
  | Error (e, msg) -> failwith (Printf.sprintf "%s: %s" (Wire.error_code e) msg)

let probe_update sessions req =
  let get name = Option.get (field req name) in
  let action =
    match get "action" with "insert" -> Session.Insert | _ -> Session.Delete
  in
  let tuple = ok (Parser.tuple (get "tuple")) in
  span "server.session.update" (fun () ->
      Session.update sessions ~schema:(get "schema") ~db:(get "db") ~action
        ~relation:(get "relation") ~tuple)
  |> function
  | Ok _ -> ()
  | Error msg -> failwith msg

let () =
  match Sys.argv with
  | [| _; lines_file; trace_file; reps |] ->
      let reps = int_of_string reps in
      let lines = In_channel.with_open_bin lines_file In_channel.input_all in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' lines)
      in
      let reqs = List.map (fun l -> ok (Wire.parse_request l)) lines in
      let sessions = Session.create ~max_sessions:1024 () in
      Obs.Metrics.enable ();
      Obs.Trace.enable_file trace_file;
      List.iter
        (fun l ->
          repeat reps (fun () ->
              span "server.wire.parse" (fun () -> Wire.parse_request l)))
        lines;
      let loaded = Hashtbl.create 64 in
      List.iter
        (fun r -> if r.Wire.op <> "update" then probe_read reps loaded r)
        reqs;
      List.iter (fun r -> if r.Wire.op <> "update" then render reps sessions r) reqs;
      List.iter
        (fun r -> if r.Wire.op = "update" then probe_update sessions r)
        reqs;
      Obs.Trace.close ()
  | _ ->
      prerr_endline "usage: layers.exe LINES TRACE REPS";
      exit 2
