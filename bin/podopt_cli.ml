(* podopt: command-line driver for the profile-directed event optimizer.

     podopt report   <app>      profile an app and print graphs/chains
     podopt graph    <app>      emit the event graph as Graphviz DOT
     podopt optimize <app>      profile, optimize, and report the speedup
     podopt serve    <workload> run the sharded event broker and print stats
     podopt record   <workload> run the broker and record a replay log
     podopt replay   <file>     re-run a recorded log, check byte-identity
     podopt diff     <file>     differential oracle over a recorded log
     podopt profile  merge|show operate on persistent profile stores
     podopt hir      <file>     parse, optimize and run a HIR program

   <app> is one of: video, seccomm, xclient. *)

open Cmdliner
open Podopt
module B = Podopt_broker

(* --- app harnesses ---------------------------------------------------- *)

type app = Video | Seccomm | Xclient

let app_conv =
  let parse = function
    | "video" -> Ok Video
    | "seccomm" -> Ok Seccomm
    | "xclient" -> Ok Xclient
    | s -> Error (`Msg (Printf.sprintf "unknown app %S (expected video|seccomm|xclient)" s))
  in
  let print ppf = function
    | Video -> Fmt.string ppf "video"
    | Seccomm -> Fmt.string ppf "seccomm"
    | Xclient -> Fmt.string ppf "xclient"
  in
  Arg.conv (parse, print)

(* Build a runtime plus a repeatable profiling workload for the app. *)
let harness : app -> Runtime.t * (unit -> unit) = function
  | Video ->
    let rt = Podopt_apps.Video_player.create () in
    (rt, fun () -> Podopt_apps.Video_player.profile_workload rt ~frames:120 ())
  | Seccomm ->
    let rt = Podopt_apps.Secure_messenger.create () in
    (rt, fun () -> Podopt_apps.Secure_messenger.profile_workload rt ())
  | Xclient ->
    let ed = Podopt_apps.Editor.create () in
    (Podopt_apps.Editor.runtime ed, fun () -> Podopt_apps.Editor.profile_workload ed ())

let profiled_graph rt workload =
  Trace.clear rt.Runtime.trace;
  Trace.enable_events rt.Runtime.trace;
  workload ();
  Event_graph.of_trace rt.Runtime.trace

(* --- report ------------------------------------------------------------ *)

let report app threshold =
  let rt, workload = harness app in
  let g = profiled_graph rt workload in
  Fmt.pr "event graph (%d events, %d edges):@.@.%a@." (Event_graph.node_count g)
    (Event_graph.edge_count g) Report.pp_edge_table g;
  let reduced = Reduce.reduce g ~threshold in
  Fmt.pr "@.reduced graph (W=%d):@.@.%a@." threshold Report.pp_edge_table reduced;
  Fmt.pr "@.event paths:@.%a" Report.pp_paths (Paths.linear_paths reduced);
  Fmt.pr "@.event chains:@.%a" Report.pp_chains (Chains.find reduced);
  (* handler-level profile for the hot events *)
  let hot = List.map (fun (n : Event_graph.node) -> n.Event_graph.name)
      (Event_graph.nodes reduced)
  in
  Trace.clear rt.Runtime.trace;
  Trace.enable_handlers rt.Runtime.trace hot;
  workload ();
  let occs = Handler_graph.occurrences rt.Runtime.trace in
  Fmt.pr "@.handler sequences:@.%a" Report.pp_handler_sequences occs;
  Fmt.pr "@.subsumption candidates:@.%a" Report.pp_subsumption
    (Subsume.find rt.Runtime.trace);
  (* dominator-based co-relations (Sec. 5), rooted at the most frequent
     reduced-graph event *)
  (match
     List.sort
       (fun (a : Event_graph.node) b -> compare b.Event_graph.occurrences a.Event_graph.occurrences)
       (Event_graph.nodes reduced)
   with
   | [] -> ()
   | root :: _ ->
     let doms = Dominators.compute reduced ~root:root.Event_graph.name in
     (match Dominators.correlated_pairs doms with
      | [] -> Fmt.pr "@.no dominator co-relations (root %s)@." root.Event_graph.name
      | pairs ->
        Fmt.pr "@.dominator co-relations (root %s):@." root.Event_graph.name;
        List.iter (fun (a, b) -> Fmt.pr "  %s always precedes %s@." a b) pairs));
  0

(* --- graph -------------------------------------------------------------- *)

let graph app threshold output =
  let rt, workload = harness app in
  let g = profiled_graph rt workload in
  let reduced = if threshold > 1 then Reduce.reduce g ~threshold else g in
  let dot = Dot.to_dot ~title:"events" ~chains:(Chains.find reduced) g in
  (match output with
   | None -> print_string dot
   | Some path ->
     let oc = open_out path in
     output_string oc dot;
     close_out oc;
     Fmt.pr "wrote %s@." path);
  0

(* --- optimize ------------------------------------------------------------ *)

let optimize app threshold strategy spec =
  let strategy =
    match strategy with
    | "monolithic" -> Plan.Monolithic
    | "partitioned" -> Plan.Partitioned
    | _ -> Plan.Monolithic
  in
  let rt, workload = harness app in
  (* unoptimized measurement *)
  workload ();
  Runtime.reset_measurements rt;
  workload ();
  let t_orig = Runtime.total_handler_time rt in
  let applied =
    Driver.profile_and_optimize ~threshold ~strategy ~speculate:spec rt ~workload
  in
  Fmt.pr "%a@." Plan.pp applied.Driver.plan;
  Fmt.pr "installed: %s@." (String.concat ", " applied.Driver.installed);
  List.iter (fun (e, why) -> Fmt.pr "skipped %s: %s@." e why) applied.Driver.skipped;
  Fmt.pr "code size: %a@." Size.pp_report (Driver.size_report applied);
  Runtime.reset_measurements rt;
  workload ();
  let t_opt = Runtime.total_handler_time rt in
  Fmt.pr "handler time: %d -> %d units (%.1f%% saved)@." t_orig t_opt
    (100.0 *. float_of_int (t_orig - t_opt) /. float_of_int (max 1 t_orig));
  Fmt.pr "%a@." Runtime.pp_stats rt.Runtime.stats;
  0

(* --- serve ----------------------------------------------------------------- *)

(* Load a profile store for [--profile-in], mapping failures to a
   message (the caller exits 1: a corrupt or missing profile is an
   input error, not a crash). *)
let load_profile = function
  | None -> Ok None
  | Some path ->
    (match Podopt.Profile_store.load path with
     | store -> Ok (Some store)
     | exception Podopt.Profile_store.Format_error msg ->
       Error (Printf.sprintf "bad profile %s: %s" path msg)
     | exception Sys_error msg -> Error msg)

(* The broker flags [serve] and [record] share: the first count that is
   not positive is a usage error (exit 2) and a bad [--profile-in] store
   an input error (exit 1); otherwise [k] gets the broker config and
   the load profile. *)
let with_broker ?(extra = []) kind sessions shards batch queue_limit ops
    interval latency jitter policy seed generic domains route faults
    checkpoint_every arrivals profile_in k =
  match
    List.find_opt
      (fun (v, _) -> v <= 0)
      ([
         (sessions, "--sessions");
         (shards, "--shards");
         (batch, "--batch");
         (queue_limit, "--queue-limit");
         (ops, "--ops");
         (domains, "--domains");
         (checkpoint_every, "--checkpoint-every");
       ]
      @ extra)
  with
  | Some (_, flag) ->
    Fmt.epr "podopt: %s must be positive@." flag;
    2
  | None ->
  match load_profile profile_in with
  | Error msg ->
    Fmt.epr "podopt: %s@." msg;
    1
  | Ok profile_in ->
    k
      {
        B.Broker.default_config with
        B.Broker.shards;
        batch;
        queue_limit;
        policy;
        kind;
        optimize = not generic;
        seed = Int64.of_int seed;
        domains;
        route;
        faults;
        profile_in;
        checkpoint_every;
        arrivals;
      }
      {
        B.Loadgen.default_profile with
        B.Loadgen.sessions;
        ops;
        interval;
        latency;
        jitter;
      }

let serve kind sessions shards batch queue_limit ops interval latency jitter
    policy seed generic warmup domains route faults checkpoint_every
    arrivals max_ticks metrics json show_dead redrain_dead
    profile_in profile_out =
  with_broker
    ~extra:[ (Option.value max_ticks ~default:1, "--max-ticks") ]
    kind sessions shards batch queue_limit ops interval latency jitter policy
    seed generic domains route faults checkpoint_every arrivals profile_in
  @@ fun cfg profile ->
  let broker = B.Broker.create cfg in
  let summary, saved, redrained =
    Fun.protect
      ~finally:(fun () -> B.Broker.shutdown broker)
      (fun () ->
        let summary =
          B.Loadgen.steady ~warmup_ops:warmup ?max_ticks broker profile
        in
        let saved =
          match profile_out with
          | None -> None
          | Some path ->
            let store = B.Broker.profile_store broker in
            Podopt.Profile_store.save path store;
            Some (path, List.length (Podopt.Profile_store.entries store))
        in
        (* Put the dead letters back through the mill: refill every
           ingress queue with a fresh retry budget, then drain the
           broker to idle so the dump below shows what survived. *)
        let redrained =
          if not redrain_dead then None
          else begin
            let n =
              Array.fold_left
                (fun acc s -> acc + B.Shard.redrain_dead s)
                0 (B.Broker.shards broker)
            in
            while not (B.Broker.idle broker) do
              B.Broker.pump broker ~until:(B.Broker.now broker);
              ignore (B.Broker.drain broker);
              B.Broker.advance_to broker (B.Broker.now broker + cfg.B.Broker.tick)
            done;
            Some n
          end
        in
        (summary, saved, redrained))
  in
  if json then print_string (B.Report.json ~metrics broker summary)
  else begin
    Fmt.pr
      "serving %s: %d sessions -> %d shards (batch %d, queue limit %d, policy \
       %s, %s, seed %d, domains %d, faults %s, arrivals %s)@.@."
      (B.Workload.kind_to_string kind)
      sessions shards batch queue_limit
      (B.Policy.shed_to_string policy)
      (if generic then "generic" else "optimized")
      seed domains
      (Podopt.Faults.to_string faults)
      (B.Arrivals.to_string arrivals);
    if B.Broker.warm_start broker then
      Fmt.pr "warm start: %d super-handlers installed before the first packet \
              (%d stale events dropped)@.@."
        (B.Broker.warm_installed broker)
        (B.Broker.warm_stale broker);
    Fmt.pr "%a@.%a" B.Report.pp_table broker B.Report.pp_summary summary;
    if metrics then Fmt.pr "@.%a" B.Report.pp_metrics broker;
    (match redrained with
     | None -> ()
     | Some n -> Fmt.pr "@.redrained %d dead-letter ops@." n);
    if show_dead then begin
      let shards_arr = B.Broker.shards broker in
      let total =
        Array.fold_left
          (fun acc s -> acc + List.length (B.Shard.dead_letters s))
          0 shards_arr
      in
      Fmt.pr "@.dead letters (%d):@." total;
      if total = 0 then Fmt.pr "  (none)@."
      else
        Array.iteri
          (fun i s ->
            List.iter
              (fun (pkt : Podopt_net.Packet.t) ->
                Fmt.pr "  shard %d: %s#%d %s@." i pkt.Podopt_net.Packet.src
                  pkt.Podopt_net.Packet.seq
                  (B.Workload.path kind pkt.Podopt_net.Packet.payload))
              (B.Shard.dead_letters s))
          shards_arr
    end;
    match saved with
    | None -> ()
    | Some (path, n) -> Fmt.pr "@.wrote profile -> %s (%d entries)@." path n
  end;
  (* A truncated run's counters describe an unfinished run: fail loudly
     (the summary / JSON already carry the flag) instead of letting a
     silently cut-off big run pass in CI. *)
  if summary.B.Loadgen.truncated then 1 else 0

(* --- record / replay / diff ----------------------------------------------- *)

let record_run kind sessions shards batch queue_limit ops interval latency
    jitter policy seed generic warmup domains route faults
    checkpoint_every arrivals metrics profile_in out =
  with_broker kind sessions shards batch queue_limit ops interval latency
    jitter policy seed generic domains route faults checkpoint_every arrivals
    profile_in
  @@ fun cfg profile ->
    let log = Record.run ~warmup_ops:warmup ~metrics cfg profile in
    Replay_log.save out log;
    Fmt.pr "recorded %s run -> %s (%d sessions, %d arrivals, %d fault streams)@."
      (B.Workload.kind_to_string kind)
      out
      (List.length log.Replay_log.sessions)
      (List.length log.Replay_log.arrivals)
      (List.length log.Replay_log.fault_draws);
    0

let replay_run file domains json =
  match domains with
  | Some d when d <= 0 ->
    Fmt.epr "podopt: --domains must be positive@.";
    2
  | _ ->
    (match Replay_log.load file with
     | exception Replay_log.Format_error msg ->
       Fmt.epr "bad replay log: %s@." msg;
       1
     | exception Sys_error msg ->
       Fmt.epr "podopt: %s@." msg;
       1
     | log ->
       let outcome = Replay.run ?domains log in
       if json then print_string outcome.Replay.json;
       let ok = ref true in
       (match Replay.first_diff log.Replay_log.json outcome.Replay.json with
        | None ->
          if not json then
            Fmt.pr "replay OK: document byte-identical to the recording (%d lines)@."
              (max 0 (List.length (String.split_on_char '\n' log.Replay_log.json) - 1))
        | Some (n, recorded, replayed) ->
          ok := false;
          Fmt.epr "replay DIVERGED at line %d:@.  recorded: %s@.  replayed: %s@." n
            recorded replayed);
       if outcome.Replay.fault_mismatches > 0 then begin
         ok := false;
         Fmt.epr "%d fault draws differed from the recording@."
           outcome.Replay.fault_mismatches
       end;
       if !ok then 0 else 1)

let diff_run file variant tamper out =
  match Replay_log.load file with
  | exception Replay_log.Format_error msg ->
    Fmt.epr "bad replay log: %s@." msg;
    1
  | exception Sys_error msg ->
    Fmt.epr "podopt: %s@." msg;
    1
  | log ->
    let axes =
      match variant with
      | "default" -> [ Replay_diff.Optimizer; Replay_diff.Codegen ]
      | "optimizer" -> [ Replay_diff.Optimizer ]
      | "codegen" -> [ Replay_diff.Codegen ]
      | "killed" -> [ Replay_diff.Killed ]
      | "all" ->
        [ Replay_diff.Optimizer; Replay_diff.Codegen; Replay_diff.Killed ]
      | _ -> assert false (* the conv below rejects anything else *)
    in
    let reports = List.map (fun axis -> Replay_diff.run ~tamper axis log) axes in
    List.iteri
      (fun i r ->
        if i > 0 then Fmt.pr "@.";
        Fmt.pr "%a" Replay_diff.pp_report r)
      reports;
    let diverged = List.filter_map (fun r -> r.Replay_diff.shrink) reports in
    (match (out, diverged) with
     | Some path, s :: _ ->
       Replay_log.save path s.Replay_diff.minimal;
       Fmt.pr "wrote minimal reproducer -> %s@." path
     | _ -> ());
    if diverged = [] then 0 else 1

(* --- profile merge / show ------------------------------------------------- *)

let profile_merge out files =
  let rec load_all acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest ->
      (match load_profile (Some path) with
       | Ok (Some store) -> load_all (store :: acc) rest
       | Ok None -> assert false
       | Error msg -> Error msg)
  in
  match load_all [] files with
  | Error msg ->
    Fmt.epr "podopt: %s@." msg;
    1
  | Ok stores ->
    let merged = Podopt.Profile_store.merge_all stores in
    Podopt.Profile_store.save out merged;
    Fmt.pr "merged %d profiles -> %s (%d entries)@." (List.length files) out
      (List.length (Podopt.Profile_store.entries merged));
    0

let profile_show file =
  match load_profile (Some file) with
  | Error msg ->
    Fmt.epr "podopt: %s@." msg;
    1
  | Ok None -> assert false
  | Ok (Some store) ->
    Fmt.pr "%a" Podopt.Profile_store.pp store;
    0

(* --- trace / analyze ------------------------------------------------------ *)

let trace_cmd_run app output handler_level =
  let rt, workload = harness app in
  Trace.enable_events rt.Runtime.trace;
  if handler_level then begin
    (* first pass to find the hot events, then re-run instrumented *)
    workload ();
    let g = Event_graph.of_trace rt.Runtime.trace in
    let hot =
      List.map (fun (n : Event_graph.node) -> n.Event_graph.name) (Event_graph.nodes g)
    in
    Trace.clear rt.Runtime.trace;
    Trace.enable_handlers rt.Runtime.trace hot
  end;
  workload ();
  Trace_io.save rt.Runtime.trace ~path:output;
  Fmt.pr "wrote %d trace entries to %s@." (Trace.length rt.Runtime.trace) output;
  0

let analyze_cmd_run path threshold =
  match Trace_io.load ~path with
  | exception Trace_io.Format_error msg ->
    Fmt.epr "bad trace file: %s@." msg;
    1
  | trace ->
    let g = Event_graph.of_trace trace in
    Fmt.pr "event graph (%d events, %d edges):@.@.%a@." (Event_graph.node_count g)
      (Event_graph.edge_count g) Report.pp_edge_table g;
    let reduced = Reduce.reduce g ~threshold in
    Fmt.pr "@.reduced (W=%d):@.@.%a@." threshold Report.pp_edge_table reduced;
    Fmt.pr "@.chains:@.%a" Report.pp_chains (Chains.find reduced);
    let occs = Handler_graph.occurrences trace in
    if occs <> [] then begin
      Fmt.pr "@.handler sequences:@.%a" Report.pp_handler_sequences occs;
      Fmt.pr "@.subsumption candidates:@.%a" Report.pp_subsumption (Subsume.find trace)
    end;
    0

(* --- hir ----------------------------------------------------------------- *)

let hir_cmd file proc args show_opt =
  let src =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Parse.program src with
  | exception Parse.Error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | prog ->
    Podopt_crypto.Prims.install ();
    if show_opt then begin
      let optimized = Pipeline.optimize_program prog in
      Fmt.pr "%a@." Pp.pp_program optimized;
      Fmt.pr "@.(size %d -> %d nodes)@." (Analysis.program_size prog)
        (Analysis.program_size optimized)
    end;
    (match proc with
     | None -> 0
     | Some name ->
       let vargs = List.map (fun n -> Value.Int n) args in
       let emits = ref [] in
       let globals = Hashtbl.create 16 in
       let host =
         {
           Interp.null_host with
           Interp.get_global =
             (fun g ->
               match Hashtbl.find_opt globals g with
               | Some v -> v
               | None -> Value.Int 0);
           set_global = (fun g v -> Hashtbl.replace globals g v);
           emit = (fun tag args -> emits := (tag, args) :: !emits);
         }
       in
       (match Interp.run ~host prog name vargs with
        | result ->
          Fmt.pr "%s(%s) = %s@." name
            (String.concat ", " (List.map Value.to_string vargs))
            (Value.to_string result);
          List.iter
            (fun (tag, args) ->
              Fmt.pr "emit %s(%s)@." tag
                (String.concat ", " (List.map Value.to_string args)))
            (List.rev !emits);
          0
        | exception e ->
          Fmt.epr "error: %s@." (Printexc.to_string e);
          1))

(* --- cmdliner plumbing ---------------------------------------------------- *)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP"
         ~doc:"Application: video, seccomm or xclient.")

let threshold_arg =
  Arg.(value & opt int 50 & info [ "w"; "threshold" ] ~docv:"W"
         ~doc:"Edge-weight threshold for graph reduction.")

let report_cmd =
  let doc = "Profile an application and print its event/handler analysis." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const report $ app_arg $ threshold_arg)

let graph_cmd =
  let doc = "Emit the profiled event graph as Graphviz DOT." in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write DOT to $(docv) instead of stdout.")
  in
  Cmd.v (Cmd.info "graph" ~doc) Term.(const graph $ app_arg $ threshold_arg $ output)

let optimize_cmd =
  let doc = "Profile, optimize, and measure an application." in
  let strategy =
    Arg.(value & opt string "monolithic" & info [ "strategy" ] ~docv:"S"
           ~doc:"Chain guard strategy: monolithic or partitioned.")
  in
  let spec =
    Arg.(value & flag & info [ "speculate" ] ~doc:"Enable speculative prefetch pairs.")
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(const optimize $ app_arg $ threshold_arg $ strategy $ spec)

let hir_cmd_t =
  let doc = "Parse, optimize, and optionally run a HIR source file." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"HIR source file.")
  in
  let proc =
    Arg.(value & opt (some string) None & info [ "run" ] ~docv:"PROC"
           ~doc:"Run procedure $(docv) after loading.")
  in
  let args =
    Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N"
           ~doc:"Integer argument passed to the procedure (repeatable).")
  in
  let show =
    Arg.(value & flag & info [ "print-optimized" ] ~doc:"Print the optimized program.")
  in
  Cmd.v (Cmd.info "hir" ~doc) Term.(const hir_cmd $ file $ proc $ args $ show)

(* Broker flags shared by [serve] and [record]. *)

let kind_conv =
  Arg.conv
    ( (fun s ->
        match B.Workload.kind_of_string s with
        | Ok k -> Ok k
        | Error msg -> Error (`Msg msg)),
      fun ppf k -> Fmt.string ppf (B.Workload.kind_to_string k) )

(* The workload can arrive positionally (the historical spelling) or
   via --workload; the named flag wins when both are given. *)
let kind_arg =
  let pos =
    Arg.(value & pos 0 (some kind_conv) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to serve: video, seccomm, xwin, or chat.")
  in
  let named =
    Arg.(value & opt (some kind_conv) None & info [ "workload" ] ~docv:"W"
           ~doc:"Workload to serve: $(b,video), $(b,seccomm), $(b,xwin) (GUI \
                 event storms: scroll / popup / keystroke payloads against \
                 the widget tree), or $(b,chat) (fan-out chat room: one \
                 inbound message raises 2-7 outbound deliveries). Equivalent \
                 to the positional $(i,WORKLOAD); the flag wins when both \
                 are given.")
  in
  Term.(
    ret
      (const (fun p n ->
           match (n, p) with
           | Some k, _ | None, Some k -> `Ok k
           | None, None ->
             `Error (true, "missing workload: pass WORKLOAD or --workload"))
      $ pos $ named))

let arrivals_conv =
  Arg.conv
    ( (fun s ->
        match B.Arrivals.of_string s with
        | Ok a -> Ok a
        | Error msg -> Error (`Msg msg)),
      fun ppf a -> Fmt.string ppf (B.Arrivals.to_string a) )

let arrivals_arg =
  Arg.(value & opt arrivals_conv B.Arrivals.Periodic
       & info [ "arrivals" ] ~docv:"SPEC"
           ~doc:"Per-session op arrival process: $(b,periodic) (default, the \
                 closed-loop grid), $(b,uniform) (seeded uniform gaps around \
                 --interval), $(b,pareto:ALPHA) (heavy-tailed gaps, ALPHA > \
                 1), or $(b,flash:T:MULT) (flash crowd: every period of T \
                 virtual units opens with a burst window sending MULT times \
                 faster). Seeded per session, so runs are reproducible and \
                 byte-identical at any --domains.")

let max_ticks_arg =
  Arg.(value & opt (some int) None & info [ "max-ticks" ] ~docv:"N"
         ~doc:"Simulation tick budget. The default is computed from the \
               session schedules' horizon and total op count, so it scales \
               with the load; a run that still hits the budget is reported \
               truncated and exits 1.")

let policy_conv =
  Arg.conv
    ( (fun s ->
        match B.Policy.shed_of_string s with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)),
      fun ppf p -> Fmt.string ppf (B.Policy.shed_to_string p) )

let policy_arg =
  Arg.(value & opt policy_conv B.Policy.Drop_newest & info [ "policy" ] ~docv:"P"
         ~doc:"Shed policy when an ingress queue is full: newest or oldest.")

let faults_conv =
  Arg.conv
    ( (fun s ->
        match Podopt.Faults.of_string s with
        | Ok spec -> Ok spec
        | Error msg -> Error (`Msg msg)),
      fun ppf spec -> Fmt.string ppf (Podopt.Faults.to_string spec) )

let faults_arg =
  Arg.(value & opt faults_conv Podopt.Faults.none & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Deterministic fault plan: comma-separated key=value pairs \
               with keys seed (stream seed), crash, spike (optionally \
               rate:cost), corrupt, drop, kill (permille rates, 0..1000); \
               'none' disables. kill=P wipes a shard's live state with \
               probability P per epoch; the supervisor restores it from \
               its latest checkpoint and redelivers the journal, so \
               observable output stays byte-identical. Example: \
               seed=7,crash=200,kill=150.")

let intopt name v doc = Arg.(value & opt int v & info [ name ] ~docv:"N" ~doc)

let route_conv =
  Arg.conv
    ( (fun s ->
        match B.Shard_map.route_of_string s with
        | Ok r -> Ok r
        | Error msg -> Error (`Msg msg)),
      fun ppf r -> Fmt.string ppf (B.Shard_map.route_to_string r) )

let route_arg =
  Arg.(value & opt route_conv B.Broker.default_config.B.Broker.route
       & info [ "route" ] ~docv:"R"
           ~doc:"Session-to-shard routing: $(b,hash) (default, uniform) or \
                 $(b,zipf:S) (Zipf-skewed with exponent S > 0; shard 0 \
                 hottest). Routing changes which shard serves each session, \
                 so it IS part of the observable output — unlike --domains.")

let checkpoint_every_arg =
  intopt "checkpoint-every" B.Broker.default_config.B.Broker.checkpoint_every
    "Checkpoint interval in drain epochs when kills are enabled: every \
     shard snapshots its full live state every N epochs (and whenever its \
     redo journal fills). Smaller values shorten redelivery; observable \
     output is byte-identical at any setting."

let generic_flag =
  Arg.(value & flag & info [ "generic" ]
         ~doc:"Disable per-shard adaptive optimization.")

let metrics_flag =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the latency metrics section: per-shard and total \
               queue-wait and service-time percentiles, plus per-event \
               dispatch-time distributions.")

let profile_in_arg =
  Arg.(value & opt (some string) None & info [ "profile-in" ] ~docv:"FILE"
         ~doc:"Warm-start from the profile store $(docv): merged event \
               graphs compile super-handlers before the first packet. A \
               stale profile (bindings changed since it was recorded) \
               degrades safely to generic dispatch.")

let serve_cmd =
  let doc = "Serve a workload through the sharded event broker." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ kind_arg
      $ intopt "sessions" 8 "Concurrent client sessions."
      $ intopt "shards" 2 "Broker shards (one runtime each)."
      $ intopt "batch" 16 "Max events dispatched per shard per tick."
      $ intopt "queue-limit" 64 "Per-shard ingress queue bound."
      $ intopt "ops" 8 "Events per session."
      $ intopt "interval" 200 "Virtual units between a session's events."
      $ intopt "latency" 50 "Link latency in virtual units."
      $ intopt "jitter" 0 "Link jitter bound in virtual units."
      $ policy_arg
      $ intopt "seed" 42 "Deterministic seed for the session links."
      $ generic_flag
      $ intopt "warmup" 12 "Warm-up ops per session before measurement."
      $ intopt "domains" 1
          "Worker domains draining the shards in parallel (1 = sequential; \
           results are identical at any domain count)."
      $ route_arg
      $ faults_arg
      $ checkpoint_every_arg
      $ arrivals_arg
      $ max_ticks_arg
      $ metrics_flag
      $ Arg.(value & flag & info [ "json" ]
               ~doc:"Print the run as a JSON document (schema podopt/serve/v9) \
                     instead of the tables; deterministic and independent of \
                     --domains.")
      $ Arg.(value & flag & info [ "show-dead" ]
               ~doc:"After the run, dump every shard's dead-letter queue \
                     (source session, sequence number, op path).")
      $ Arg.(value & flag & info [ "redrain-dead" ]
               ~doc:"After the run, move every dead-letter op back into its \
                     shard's ingress queue with a fresh retry budget and \
                     drain the broker to idle again.")
      $ profile_in_arg
      $ Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
               ~doc:"After the run, write every shard's accumulated profile \
                     to the store $(docv) (merge stores across runs with \
                     $(b,podopt profile merge))."))

let record_cmd =
  let doc = "Run a broker workload and record it to a replay log." in
  let out =
    Arg.(value & opt string "run.plog" & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Replay log to write (default run.plog).")
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(
      const record_run $ kind_arg
      $ intopt "sessions" 8 "Concurrent client sessions."
      $ intopt "shards" 2 "Broker shards (one runtime each)."
      $ intopt "batch" 16 "Max events dispatched per shard per tick."
      $ intopt "queue-limit" 64 "Per-shard ingress queue bound."
      $ intopt "ops" 8 "Events per session."
      $ intopt "interval" 200 "Virtual units between a session's events."
      $ intopt "latency" 50 "Link latency in virtual units."
      $ intopt "jitter" 0 "Link jitter bound in virtual units."
      $ policy_arg
      $ intopt "seed" 42 "Deterministic seed for the session links."
      $ generic_flag
      $ intopt "warmup" 12 "Warm-up ops per session before measurement."
      $ intopt "domains" 1
          "Worker domains recorded in the log (the replayed document is \
           identical at any domain count)."
      $ route_arg
      $ faults_arg
      $ checkpoint_every_arg
      $ arrivals_arg
      $ Arg.(value & flag & info [ "metrics" ]
               ~doc:"Record the document with the latency metrics section.")
      $ profile_in_arg
      $ out)

let replay_cmd =
  let doc =
    "Replay a recorded run and check it reproduces the recorded document \
     byte-for-byte."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Replay log written by $(b,podopt record).")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Override the recorded worker-domain count; the regenerated \
                 document is identical at any value.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the regenerated JSON document.")
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const replay_run $ file $ domains $ json)

let diff_cmd =
  let doc =
    "Differentially test a recorded run: optimizer on vs off, compiled vs \
     interpreted super-handlers, or killed-and-recovered vs kill-free. On \
     divergence, shrink the log to a minimal reproducer."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Replay log written by $(b,podopt record).")
  in
  let variant =
    Arg.(value & opt (enum [ ("default", "default"); ("optimizer", "optimizer");
                             ("codegen", "codegen"); ("killed", "killed");
                             ("all", "all") ])
           "default"
         & info [ "variant" ] ~docv:"V"
             ~doc:"Axis to diff: $(b,optimizer), $(b,codegen), $(b,killed) \
                   (shard kills with checkpoint recovery vs kill-free), \
                   $(b,all), or $(b,default) (optimizer + codegen).")
  in
  let tamper =
    Arg.(value & flag & info [ "break-handler" ]
           ~doc:"Install a deliberately payload-corrupting handler on the \
                 first variant (a divergence fixture for exercising the \
                 oracle and the shrinker).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the minimal reproducer log to $(docv) on divergence.")
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const diff_run $ file $ variant $ tamper $ out)

let profile_cmd =
  let doc = "Operate on persistent profile stores." in
  let merge =
    let doc =
      "Merge profile stores into one. The merge is a content-addressed set \
       union: associative, commutative, idempotent, and byte-identical \
       under any argument order."
    in
    let out =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT"
             ~doc:"Merged store to write.")
    in
    let files =
      Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"FILE"
             ~doc:"Profile stores to merge (written by \
                   $(b,podopt serve --profile-out)).")
    in
    Cmd.v (Cmd.info "merge" ~doc) Term.(const profile_merge $ out $ files)
  in
  let show =
    let doc = "Print a profile store's entries in human-readable form." in
    let file =
      Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
             ~doc:"Profile store to print.")
    in
    Cmd.v (Cmd.info "show" ~doc) Term.(const profile_show $ file)
  in
  Cmd.group (Cmd.info "profile" ~doc) [ merge; show ]

let trace_cmd =
  let doc = "Profile an application and save the trace to a file." in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Trace file to write.")
  in
  let handlers =
    Arg.(value & flag & info [ "handlers" ]
           ~doc:"Also record handler-level instrumentation for hot events.")
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace_cmd_run $ app_arg $ output $ handlers)

let analyze_cmd =
  let doc = "Analyze a previously saved trace file off-line." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze_cmd_run $ file $ threshold_arg)

let () =
  let doc = "profile-directed optimization of event-based programs" in
  let info = Cmd.info "podopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ report_cmd; graph_cmd; optimize_cmd; serve_cmd; record_cmd; replay_cmd;
            diff_cmd; profile_cmd; trace_cmd; analyze_cmd; hir_cmd_t ]))
