(* End-to-end profile-directed optimization (Sec. 3).

   [analyze] turns a trace into a plan: build the event graph (Fig. 4),
   reduce it by the weight threshold (Fig. 6), extract synchronous event
   chains, and decide which events get super-handlers.  [apply] builds the
   merged, subsumed, compiler-optimized, compiled super-handlers and
   installs them with binding-version guards.

   A key difference from naive profile-guided specialization: correctness
   never depends on profile accuracy.  Subsumption rewrites the *actual*
   synchronous raise sites in handler code (conditional raises stay under
   their conditions), and stale bindings are caught by the runtime guards.
   The profile only decides *where* to spend the effort. *)

open Podopt_hir
open Podopt_eventsys
open Podopt_profile

let log = Logs.Src.create "podopt.driver" ~doc:"profile-directed optimizer"

module Log = (val Logs.src_log log)

let default_threshold = 100

(* --- Analysis --------------------------------------------------------- *)

(* The analysis proper, over any event graph — the live trace's (via
   [analyze]) or a merged cross-run profile (the warm-start path).  The
   runtime is consulted only for current handler bindings. *)
let plan_of_graph ?(threshold = default_threshold) ?(strategy = Plan.Monolithic)
    ?(speculate = false) (rt : Runtime.t) (g : Event_graph.t) :
    Plan.t =
  let reduced = Reduce.reduce g ~threshold in
  let chains = Chains.find reduced in
  let chain_events = List.concat chains in
  let chain_actions =
    List.map (fun events -> Plan.Merge_chain { events; strategy }) chains
  in
  (* hot events outside chains still profit from handler merging when they
     have more than one handler *)
  let merge_actions =
    List.filter_map
      (fun (n : Event_graph.node) ->
        let name = n.Event_graph.name in
        if List.mem name chain_events then None
        else if List.length (Runtime.handlers rt name) > 1 then
          Some (Plan.Merge_event name)
        else None)
      (List.sort compare (Event_graph.nodes reduced))
  in
  let speculate_pairs =
    if speculate then Speculate.choose reduced ~exclude:chain_events else []
  in
  {
    Plan.actions = chain_actions @ merge_actions;
    threshold;
    passes = Plan.default_passes;
    subsume = true;
    speculate = speculate_pairs;
  }

let analyze ?threshold ?strategy ?speculate (rt : Runtime.t) : Plan.t =
  plan_of_graph ?threshold ?strategy ?speculate rt
    (Event_graph.of_trace rt.Runtime.trace)

(* --- Application ------------------------------------------------------ *)

type applied = {
  plan : Plan.t;
  installed : string list;      (* events with super-handlers installed *)
  skipped : (string * string) list;  (* event, reason *)
  generated_procs : Ast.proc list;
  original_size : int;
  added_size : int;
}

(* Merge and optimize the super-handler body of one event.  If [subsume]
   lists (event, body) pairs, nested sync raises of those events are
   inlined first. *)
let build_super (rt : Runtime.t) (prog : Ast.program) ~passes
    ~(subsume : (string * Ast.block) list) ~(event : string) :
    Ast.proc * int =
  let merged, arity = Superhandler.merge rt prog ~event in
  let body =
    if subsume = [] then merged.Ast.body
    else Chain_merge.subsume ~covered:subsume merged.Ast.body
  in
  let body = Pipeline.optimize_block ~passes prog body in
  ({ merged with Ast.body }, arity)

(* Names of procedures this driver generates; they are regenerated on
   every [apply] and must not shadow their replacements. *)
let is_generated_name name =
  String.length name >= 8 && String.sub name 0 8 = "__super_"

(* [compile:false] installs interpreted closures over the transformed
   HIR instead of compiled ones: observably identical (same merged,
   subsumed, optimized bodies; same guards), different virtual cost.
   The replay differential oracle runs both variants against each other
   to check exactly that. *)
let apply ?(compile = true) (rt : Runtime.t) (plan : Plan.t) : applied =
  let compile_proc prog' name : Compile.compiled_proc =
    if compile then Compile.proc prog' name
    else fun host args -> Interp.run ~host prog' name args
  in
  (* drop super-handlers from earlier applications: they are about to be
     regenerated against the current bindings, and a stale same-named
     procedure would win the name lookup during compilation *)
  let prog =
    List.filter
      (fun (p : Ast.proc) -> not (is_generated_name p.Ast.name))
      (Runtime.program rt)
  in
  let original_size = Analysis.program_size prog in
  let installed = ref [] in
  let skipped = ref [] in
  let generated = ref [] in
  (* raw (un-subsumed, un-optimized) merged bodies of every covered event,
     used as subsumption material *)
  let raw_bodies : (string * Ast.block) list =
    List.filter_map
      (fun event ->
        try
          let merged, _ = Superhandler.merge rt prog ~event in
          Some (event, merged.Ast.body)
        with Superhandler.Not_mergeable reason ->
          skipped := (event, reason) :: !skipped;
          None)
      (Plan.covered_events plan)
  in
  let add_proc (p : Ast.proc) = generated := p :: !generated in
  let already_generated name =
    List.exists (fun (p : Ast.proc) -> p.Ast.name = name) !generated
  in
  let install_monolithic ~event ~covered ~subsume =
    match List.assoc_opt event raw_bodies with
    | None -> () (* already recorded as skipped *)
    | Some _ ->
      (* overlapping chains (e.g. two chains sharing a suffix) request the
         same super-handler more than once; generate it once *)
      if not (already_generated (Superhandler.super_name event)) then begin
        let proc, arity = build_super rt prog ~passes:plan.Plan.passes ~subsume ~event in
        add_proc proc;
        let prog' = prog @ [ proc ] in
        let compiled = compile_proc prog' proc.Ast.name in
        Runtime.install_super rt ~event ~covered ~arity compiled;
        installed := event :: !installed
      end
  in
  List.iter
    (fun action ->
      match action with
      | Plan.Merge_event event ->
        install_monolithic ~event ~covered:[ event ] ~subsume:[]
      | Plan.Merge_chain { events; strategy = Plan.Monolithic } ->
        (* every suffix of the chain gets its own super-handler: the head
           subsumes the whole chain; later events may also be raised from
           outside the chain *)
        let rec suffixes = function
          | [] -> []
          | _ :: tl as all -> all :: suffixes tl
        in
        List.iter
          (fun suffix ->
            match suffix with
            | [] -> ()
            | event :: tail ->
              let subsume =
                if plan.Plan.subsume then
                  List.filter (fun (e, _) -> List.mem e tail) raw_bodies
                else []
              in
              install_monolithic ~event ~covered:suffix ~subsume)
          (suffixes events)
      | Plan.Merge_chain { events; strategy = Plan.Partitioned } ->
        (* One compiled segment per event; the runtime driver checks each
           event's binding version separately (Fig. 14).  Partitioning
           requires every non-final event's merged body to raise its
           successor synchronously exactly once, in tail position —
           otherwise the runtime's capture would reorder execution — so
           chains that do not qualify downgrade to monolithic (still
           optimized, just with whole-chain guards). *)
        let supers =
          List.map
            (fun event ->
              match List.assoc_opt event raw_bodies with
              | None -> None
              | Some _ ->
                Some (event, build_super rt prog ~passes:plan.Plan.passes ~subsume:[] ~event))
            events
        in
        let rec tail_links_ok = function
          | Some (_, (proc, _)) :: (Some (next_event, _) :: _ as rest) ->
            (match Chain_merge.tail_raise proc.Ast.body with
             | Some (target, _)
               when target = next_event
                    && Chain_merge.residual_sites ~covered:[ next_event ]
                         proc.Ast.body
                       = 1 ->
               tail_links_ok rest
             | Some _ | None -> false)
          | [ Some _ ] | [] -> true
          | None :: _ | Some _ :: None :: _ -> false
        in
        if not (tail_links_ok supers) then begin
          skipped :=
            ( String.concat "->" events,
              "partitioned chaining needs unique tail raises; using monolithic" )
            :: !skipped;
          (* downgrade: same treatment as a monolithic chain *)
          let rec suffixes = function [] -> [] | _ :: tl as all -> all :: suffixes tl in
          List.iter
            (fun suffix ->
              match suffix with
              | [] -> ()
              | event :: tail ->
                let subsume =
                  if plan.Plan.subsume then
                    List.filter (fun (e, _) -> List.mem e tail) raw_bodies
                  else []
                in
                install_monolithic ~event ~covered:suffix ~subsume)
            (suffixes events)
        end
        else begin
          let segments =
            List.mapi
              (fun i entry ->
                match entry with
                | Some (event, (proc, arity)) ->
                  add_proc proc;
                  let prog' = prog @ [ proc ] in
                  let compiled = compile_proc prog' proc.Ast.name in
                  let next = List.nth_opt events (i + 1) in
                  Some (Runtime.make_segment rt ~event ?next ~arity compiled)
                | None -> None)
              supers
          in
          match events, segments with
          | head :: _, segs when List.for_all Option.is_some segs ->
            Runtime.install_partitioned rt ~event:head
              (List.filter_map Fun.id segs);
            installed := head :: !installed
          | _ ->
            skipped :=
              (String.concat "->" events, "partitioned chain not mergeable")
              :: !skipped
        end)
    plan.Plan.actions;
  Speculate.apply rt plan.Plan.speculate;
  let generated_procs = List.rev !generated in
  (* keep generated procedures in the runtime program so the fallback path
     and later re-optimization see a consistent program *)
  let keep_old =
    List.filter
      (fun (p : Ast.proc) ->
        not (List.exists (fun (q : Ast.proc) -> q.Ast.name = p.Ast.name) generated_procs))
      prog
  in
  Runtime.set_program rt (keep_old @ generated_procs);
  {
    plan;
    installed = List.rev !installed;
    skipped = List.rev !skipped;
    generated_procs;
    original_size;
    added_size = List.fold_left (fun acc p -> acc + Analysis.proc_size p) 0 generated_procs;
  }

(* --- Convenience: two-phase profiling --------------------------------- *)

(* Run the paper's methodology end to end: (1) run [workload] with event
   instrumentation to find hot events and chains; (2) re-run with handler
   instrumentation on the hot events (the analysis itself only needs the
   event level, but the handler profile is what a user inspects); (3)
   analyze and apply. *)
let profile_and_optimize ?threshold ?strategy ?speculate ~(workload : unit -> unit)
    (rt : Runtime.t) : applied =
  Trace.clear rt.Runtime.trace;
  Trace.enable_events rt.Runtime.trace;
  workload ();
  let plan = analyze ?threshold ?strategy ?speculate rt in
  let hot = Plan.covered_events plan in
  Trace.enable_handlers rt.Runtime.trace hot;
  workload ();
  Trace.disable_events rt.Runtime.trace;
  Trace.disable_handlers rt.Runtime.trace;
  apply rt plan

let size_report (a : applied) =
  Size.report ~original:a.original_size ~added:a.added_size
