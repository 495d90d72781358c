(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 4) plus the extension experiments, and runs Bechamel
   wall-clock micro-benchmarks over the same code paths.

     dune exec bench/main.exe            -- all deterministic tables
     dune exec bench/main.exe -- fig10   -- one table
     dune exec bench/main.exe -- bechamel-- wall-clock micro-benchmarks

   Deterministic tables use the virtual cost model (units), so the output
   in EXPERIMENTS.md is reproducible bit-for-bit; the Bechamel suite
   measures real nanoseconds on the identical workloads. *)

open Podopt
module Video = Podopt_apps.Video_player
module Messenger = Podopt_apps.Secure_messenger
module Ed = Podopt_apps.Editor
module Ctp = Podopt_ctp.Ctp
module Ctp_events = Podopt_ctp.Events

let section title =
  Fmt.pr "@.=== %s ===@.@." title

let pct opt orig = if orig = 0.0 then 100.0 else 100.0 *. opt /. orig

(* --- paired app builders (plain runs the profiling workload too, so the
   two sides start measurement from identical state) ------------------- *)

let video_workload rt ~frames () = Video.profile_workload rt ~frames ()

let video_pair ?(frames = 150) () =
  let orig = Video.create () in
  let opt = Video.create () in
  video_workload orig ~frames ();
  video_workload orig ~frames ();
  ignore
    (Driver.profile_and_optimize ~threshold:20 opt
       ~workload:(video_workload opt ~frames));
  (orig, opt)

let seccomm_pair () =
  let orig = Messenger.create () in
  let opt = Messenger.create () in
  Messenger.profile_workload orig ();
  Messenger.profile_workload orig ();
  ignore
    (Driver.profile_and_optimize ~threshold:10 opt
       ~workload:(fun () -> Messenger.profile_workload opt ()));
  (orig, opt)

let editor_pair () =
  let orig = Ed.create () in
  let opt = Ed.create () in
  Ed.profile_workload orig ();
  Ed.profile_workload orig ();
  ignore
    (Driver.profile_and_optimize ~threshold:10 (Ed.runtime opt)
       ~workload:(fun () -> Ed.profile_workload opt ()));
  (orig, opt)

(* --- Fig. 5: event graph of the video player -------------------------- *)

let traced_video_graph ~frames =
  let rt = Video.create () in
  Trace.enable_events rt.Runtime.trace;
  video_workload rt ~frames ();
  Event_graph.of_trace rt.Runtime.trace

let fig5 () =
  section "Figure 5: event graph generated from the video player";
  let g = traced_video_graph ~frames:390 in
  Fmt.pr "%a" Report.pp_edge_table g;
  Fmt.pr "@.nodes: %d, edges: %d, trace transitions: %d@." (Event_graph.node_count g)
    (Event_graph.edge_count g) (Event_graph.total_weight g);
  let chains = Chains.find g in
  Fmt.pr "@.synchronous event chains (bold edges of Fig. 5):@.";
  Fmt.pr "%a" Report.pp_chains chains

(* --- Fig. 6: reduced event graph at threshold 300 ---------------------- *)

let fig6 () =
  section "Figure 6: reduced event graph (threshold W = 300)";
  let g = traced_video_graph ~frames:390 in
  let r = Reduce.reduce g ~threshold:300 in
  Fmt.pr "%a" Report.pp_edge_table r;
  Fmt.pr "@.linear event paths in the reduced graph:@.";
  Fmt.pr "%a" Report.pp_paths (Paths.linear_paths r);
  Fmt.pr "@.chains in the reduced graph:@.";
  Fmt.pr "%a" Report.pp_chains (Chains.find r)

(* --- Fig. 10: video player total & handler time by frame rate --------- *)

let fig10 () =
  section "Figure 10: video player optimization results";
  Fmt.pr
    "%10s | %12s %12s %6s | %13s %13s %6s | %s@."
    "Frame rate" "Total orig" "Total opt" "(%)" "Handler orig" "Handler opt" "(%)"
    "misses orig/opt";
  List.iter
    (fun rate ->
      let orig, opt = video_pair () in
      let r1 = Video.play orig ~rate ~seconds:8 in
      let r2 = Video.play opt ~rate ~seconds:8 in
      Fmt.pr "%10d | %12d %12d %6.1f | %13d %13d %6.1f | %d/%d@." rate
        r1.Video.total_time r2.Video.total_time
        (pct (float_of_int r2.Video.total_time) (float_of_int r1.Video.total_time))
        r1.Video.handler_time r2.Video.handler_time
        (pct (float_of_int r2.Video.handler_time) (float_of_int r1.Video.handler_time))
        r1.Video.deadline_misses r2.Video.deadline_misses)
    [ 10; 15; 20; 25 ];
  Fmt.pr
    "@.(paper: total %% = 97.2 / 98.0 / 90.2 / 89.1; handler %% = 39.1 / 37.5 / 33.3 / 33.3 —@. the total-time gap should grow with the frame rate as idle CPU runs out)@."

(* --- Fig. 11: per-event processing times ------------------------------- *)

let fig11 () =
  section "Figure 11: event processing times in the video player";
  Fmt.pr "%14s | %10s %10s | %s@." "Event" "Original" "Optimized" "Speedup (%)";
  let orig, opt = video_pair () in
  List.iter
    (fun event ->
      let t1 = Video.measure_event orig ~event ~n:1000 in
      let t2 = Video.measure_event opt ~event ~n:1000 in
      Fmt.pr "%14s | %10.1f %10.1f | %10.1f@." event t1 t2
        (100.0 *. (t1 -. t2) /. t1))
    Video.fig11_events;
  Fmt.pr "@.(paper: Adapt 80.0%%, SegFromUser 88.2%%, Seg2Net 73.0%%)@."

(* --- Fig. 12: SecComm push/pop times by packet size -------------------- *)

let fig12 () =
  section "Figure 12: impact of optimization in SecComm";
  Fmt.pr "%6s | %10s %10s %6s | %10s %10s %6s@." "Size" "Push orig" "Push opt" "(%)"
    "Pop orig" "Pop opt" "(%)";
  let orig, opt = seccomm_pair () in
  List.iter
    (fun size ->
      let m1 = Messenger.measure orig ~size ~rounds:100 in
      let m2 = Messenger.measure opt ~size ~rounds:100 in
      Fmt.pr "%6d | %10.0f %10.0f %6.1f | %10.0f %10.0f %6.1f@." size
        m1.Messenger.push_mean m2.Messenger.push_mean
        (pct m2.Messenger.push_mean m1.Messenger.push_mean)
        m1.Messenger.pop_mean m2.Messenger.pop_mean
        (pct m2.Messenger.pop_mean m1.Messenger.pop_mean))
    Messenger.paper_sizes;
  Fmt.pr
    "@.(paper push %%: 88.0 / 91.6 / 89.8 / 89.0 / 86.7 / 96.5; pop %%: 95.2 / 97.4 / 94.4 / 95.1 / 93.8 / 87.9 —@. crypto dominates, so improvements stay modest)@."

(* --- Fig. 13: X client event response times ----------------------------- *)

let fig13 () =
  section "Figure 13: optimization of X events";
  Fmt.pr "%10s | %10s %10s | %6s@." "Type" "Original" "Optimized" "(%)";
  let orig, opt = editor_pair () in
  let s1 = Ed.measure_scroll orig ~n:250 in
  let s2 = Ed.measure_scroll opt ~n:250 in
  let p1 = Ed.measure_popup orig ~n:250 in
  let p2 = Ed.measure_popup opt ~n:250 in
  let k1 = Ed.measure_keystroke orig ~n:250 in
  let k2 = Ed.measure_keystroke opt ~n:250 in
  Fmt.pr "%10s | %10.1f %10.1f | %6.1f@." "Scroll" s1 s2 (pct s2 s1);
  Fmt.pr "%10s | %10.1f %10.1f | %6.1f@." "Popup" p1 p2 (pct p2 p1);
  Fmt.pr "%10s | %10.1f %10.1f | %6.1f@." "Keystroke" k1 k2 (pct k2 k1);
  Fmt.pr
    "@.(paper: Scroll 93.7%%, Popup 83.8%% — popup gains more because its handlers@. do more framework work per activation.  Keystroke is this repo's extra@. scenario: its real work is two tiny cell renders, so the event machinery@. dominates and the optimizations win far more)@."

(* --- Sec. 4.2 code-size table ------------------------------------------ *)

(* The paper measures growth against the whole binary (objdump -d | wc -l
   of all of xterm / the CTP player), in which handler code is a small
   fraction.  Our HIR node counts cover only the handler code, so the
   whole-program column uses an instruction-count proxy for the framework
   each program links against (Xlib+Xt / the Cactus runtime + CTP +
   player ≈ tens of thousands of instructions in the 2002 binaries). *)
let framework_instructions = 60_000

let codesize () =
  section "Code size growth (Sec. 4.2: paper reports 1.3% video player, 1.1% SecComm)";
  Fmt.pr "%14s | %9s %7s %14s %14s@." "Program" "Handlers" "Added" "vs handlers"
    "vs whole prog";
  let row name (r : Size.report) =
    Fmt.pr "%14s | %9d %7d %13.1f%% %13.1f%%@." name r.Size.original r.Size.added
      r.Size.growth_percent
      (100.0 *. float_of_int r.Size.added
      /. float_of_int (framework_instructions + r.Size.original))
  in
  let report name mk workload =
    let rt = mk () in
    let applied = Driver.profile_and_optimize ~threshold:10 rt ~workload:(workload rt) in
    row name (Driver.size_report applied)
  in
  report "video player" Video.create (fun rt () -> video_workload rt ~frames:40 ());
  report "SecComm" Messenger.create (fun rt () -> Messenger.profile_workload rt ());
  let ed = Ed.create () in
  let applied =
    Driver.profile_and_optimize ~threshold:10 (Ed.runtime ed)
      ~workload:(fun () -> Ed.profile_workload ed ())
  in
  row "X client" (Driver.size_report applied);
  Fmt.pr
    "@.(super-handlers duplicate handler code, so growth relative to handler code@. alone is large; relative to the whole program — the paper's objdump metric —@. it stays around a percent.  Originals are retained for the guard fallback.)@."

(* --- Ablation: which optimization buys what ----------------------------- *)

let ablate () =
  section "Ablation: video player handler time under partial optimization";
  let measure plan_of =
    let rt = Video.create () in
    (* profile *)
    Trace.clear rt.Runtime.trace;
    Trace.enable_events rt.Runtime.trace;
    video_workload rt ~frames:60 ();
    let plan = Driver.analyze ~threshold:20 rt in
    Trace.disable_events rt.Runtime.trace;
    (match plan_of plan with
     | Some plan -> ignore (Driver.apply rt plan)
     | None -> ());
    let r = Video.play rt ~rate:20 ~seconds:5 in
    r.Video.handler_time
  in
  let baseline = measure (fun _ -> None) in
  let row name f =
    let t = measure f in
    Fmt.pr "%34s | %10d | %5.1f%% of baseline@." name t
      (100.0 *. float_of_int t /. float_of_int baseline)
  in
  Fmt.pr "%34s | %10d | (baseline)@." "no optimization" baseline;
  row "merging only (no chains, no passes)" (fun plan ->
      Some
        {
          plan with
          Plan.subsume = false;
          passes = [];
          actions =
            List.concat_map
              (function
                | Plan.Merge_chain { events; _ } ->
                  List.map (fun e -> Plan.Merge_event e) events
                | a -> [ a ])
              plan.Plan.actions;
        });
  row "merging + compiler passes" (fun plan ->
      Some
        {
          plan with
          Plan.subsume = false;
          actions =
            List.concat_map
              (function
                | Plan.Merge_chain { events; _ } ->
                  List.map (fun e -> Plan.Merge_event e) events
                | a -> [ a ])
              plan.Plan.actions;
        });
  row "chains, no compiler passes" (fun plan -> Some { plan with Plan.passes = [] });
  row "full (chains + subsume + passes)" (fun plan -> Some plan)

(* --- Fig. 14 extension: partitioned guards under rebinding -------------- *)

let chain_program =
  {|
handler a_h(x) { global a_n = global a_n + 1; let y = x + 1; raise sync ChainB(y); }
handler b_h(x) { global b_n = global b_n + 1; raise sync ChainC(x * 2); }
handler b_alt(x) { global b_n = global b_n + 1; raise sync ChainC(x * 2); }
handler c_h(x) { global c_n = global c_n + 1; raise sync ChainD(x + 3); }
handler d_h(x) { global d_n = global d_n + x; }
|}

let chain_rt () =
  let rt = Runtime.create ~program:(Parse.program chain_program) () in
  List.iter (fun g -> Runtime.set_global rt g (Value.Int 0)) [ "a_n"; "b_n"; "c_n"; "d_n" ];
  Runtime.bind rt ~event:"ChainA" (Handler.hir' "a_h");
  Runtime.bind rt ~event:"ChainB" (Handler.hir' "b_h");
  Runtime.bind rt ~event:"ChainC" (Handler.hir' "c_h");
  Runtime.bind rt ~event:"ChainD" (Handler.hir' "d_h");
  rt

let fig14 () =
  section "Figure 14 extension: monolithic vs partitioned guards under rebinding";
  let run ~strategy ~rebind_every =
    let rt = chain_rt () in
    (match strategy with
     | Some strategy ->
       ignore
         (Driver.apply rt
            {
              Plan.empty with
              Plan.actions =
                [
                  Plan.Merge_chain
                    { events = [ "ChainA"; "ChainB"; "ChainC"; "ChainD" ]; strategy };
                ];
            })
     | None -> ());
    Runtime.reset_measurements rt;
    let flip = ref false in
    for i = 1 to 2000 do
      (match rebind_every with
       | Some k when i mod k = 0 ->
         flip := not !flip;
         ignore (Runtime.unbind rt ~event:"ChainB" ~handler:(if !flip then "b_h" else "b_alt"));
         Runtime.bind rt ~event:"ChainB" (Handler.hir' (if !flip then "b_alt" else "b_h"))
       | _ -> ());
      Runtime.raise_sync rt "ChainA" [ Value.Int i ]
    done;
    Runtime.total_handler_time rt
  in
  Fmt.pr "%16s | %12s %12s %12s@." "Rebind every" "unoptimized" "monolithic"
    "partitioned";
  List.iter
    (fun rebind_every ->
      let base = run ~strategy:None ~rebind_every in
      let mono = run ~strategy:(Some Plan.Monolithic) ~rebind_every in
      let part = run ~strategy:(Some Plan.Partitioned) ~rebind_every in
      let label =
        match rebind_every with None -> "never" | Some k -> string_of_int k
      in
      Fmt.pr "%16s | %12d %12d %12d@." label base mono part)
    [ None; Some 500; Some 100; Some 20 ];
  Fmt.pr
    "@.(with rebinding, a monolithic super-handler permanently falls back to the@. original code; partitioned guards keep events A, C, D optimized — Fig. 14)@."

(* --- Sec. 5 extension: speculative successor preparation ---------------- *)

let speculate () =
  section "Sec. 5 extension: speculative handler-list prefetch (A -> B 90% / C 10%)";
  let program =
    {|
handler a_spec(x) { global sa = global sa + 1; }
handler b_spec(x) { global sb = global sb + 1; }
handler c_spec(x) { global sc = global sc + 1; }
|}
  in
  let run ~speculate =
    let rt = Runtime.create ~program:(Parse.program program) () in
    List.iter (fun g -> Runtime.set_global rt g (Value.Int 0)) [ "sa"; "sb"; "sc" ];
    Runtime.bind rt ~event:"SpecA" (Handler.hir' "a_spec");
    Runtime.bind rt ~event:"SpecB" (Handler.hir' "b_spec");
    Runtime.bind rt ~event:"SpecC" (Handler.hir' "c_spec");
    if speculate then Runtime.set_speculation rt ~after:"SpecA" ~expect:"SpecB";
    Runtime.reset_measurements rt;
    for i = 1 to 2000 do
      Runtime.raise_sync rt "SpecA" [ Value.Int i ];
      if i mod 10 = 0 then Runtime.raise_sync rt "SpecC" [ Value.Int i ]
      else Runtime.raise_sync rt "SpecB" [ Value.Int i ]
    done;
    (Runtime.total_handler_time rt, rt.Runtime.stats.Runtime.spec_hits,
     rt.Runtime.stats.Runtime.spec_misses)
  in
  let t0, _, _ = run ~speculate:false in
  let t1, hits, misses = run ~speculate:true in
  Fmt.pr "without speculation: %d units@." t0;
  Fmt.pr "with speculation:    %d units (%.1f%%), %d hits / %d misses@." t1
    (100.0 *. float_of_int t1 /. float_of_int t0)
    hits misses

(* --- Configurability cost: CTP configurations --------------------------- *)

let configs () =
  section "Configurability cost: CTP configurations (handler time per 100 frames)";
  Fmt.pr "%12s | %9s | %12s %12s %7s@." "Config" "handlers" "orig" "optimized" "saved";
  let measure name mk =
    let run opt =
      let rt : Runtime.t = mk () in
      Ctp.open_session rt;
      let wl () =
        for i = 1 to 100 do
          Ctp.send rt ~priority:(i mod 4 / 3) (Video.frame_payload i)
        done;
        Runtime.run rt
      in
      if opt then ignore (Driver.profile_and_optimize ~threshold:20 rt ~workload:wl)
      else begin
        wl ();
        wl ()
      end;
      Runtime.reset_measurements rt;
      wl ();
      let handlers =
        List.length (Runtime.handlers rt Ctp_events.seg_from_user)
        + List.length (Runtime.handlers rt Ctp_events.seg2net)
        + List.length (Runtime.handlers rt Ctp_events.segment_acked)
      in
      (Runtime.total_handler_time rt, handlers)
    in
    let t1, handlers = run false in
    let t2, _ = run true in
    Fmt.pr "%12s | %9d | %12d %12d %6.1f%%@." name handlers t1 t2
      (100.0 *. float_of_int (t1 - t2) /. float_of_int t1)
  in
  measure "minimal" (fun () -> Ctp.create ~minimal:true ());
  measure "default" (fun () -> Ctp.create ());
  measure "extended" (fun () -> Ctp.create ~extended:true ());
  Fmt.pr
    "@.(richer configurations bind more handlers per event; the event-machinery@. overhead grows with configuration richness and optimization recovers it —@. the paper's configurability-vs-performance trade-off)@."

(* --- Sec. 5 extension: deferred pair execution --------------------------- *)

let defer () =
  section "Sec. 5 extension: deferred pair execution (A then B or C, 50/50)";
  let program =
    {|
handler da1(x) { global d_sum = global d_sum + x; }
handler da2(x) { global d_runs = global d_runs + 1; }
handler db(x) { global db_sum = global db_sum + x + global d_sum; }
handler dc(x) { global dc_sum = global dc_sum + x * 3 - global d_sum; }
|}
  in
  let setup () =
    let rt = Runtime.create ~program:(Parse.program program) () in
    List.iter (fun g -> Runtime.set_global rt g (Value.Int 0))
      [ "d_sum"; "d_runs"; "db_sum"; "dc_sum" ];
    Runtime.bind rt ~event:"DefA" (Handler.hir' "da1");
    Runtime.bind rt ~event:"DefA" (Handler.hir' "da2");
    Runtime.bind rt ~event:"DefB" (Handler.hir' "db");
    Runtime.bind rt ~event:"DefC" (Handler.hir' "dc");
    rt
  in
  let workload rt =
    for i = 1 to 2000 do
      Runtime.raise_sync rt "DefA" [ Value.Int i ];
      Runtime.raise_sync rt (if i mod 2 = 0 then "DefB" else "DefC") [ Value.Int i ]
    done;
    Runtime.run rt
  in
  let measure mode =
    let rt = setup () in
    (match mode with
     | `Generic -> ()
     | `Merged ->
       ignore
         (Driver.apply rt
            { Plan.empty with
              Plan.actions =
                [ Plan.Merge_event "DefA"; Plan.Merge_event "DefB" ] })
       (* DefC has one handler; merging DefA/DefB shows plain merging *)
     | `Deferred -> Defer.install rt ~event:"DefA" ~followers:[ "DefB"; "DefC" ]);
    Runtime.reset_measurements rt;
    workload rt;
    (Runtime.total_handler_time rt, rt.Runtime.stats.Runtime.deferred_pairs)
  in
  let tg, _ = measure `Generic in
  let tm, _ = measure `Merged in
  let td, pairs = measure `Deferred in
  Fmt.pr "generic:            %8d units@." tg;
  Fmt.pr "per-event merging:  %8d units (%.1f%%)@." tm
    (100.0 *. float_of_int tm /. float_of_int tg);
  Fmt.pr "deferred pairs:     %8d units (%.1f%%), %d pair executions@." td
    (100.0 *. float_of_int td /. float_of_int tg)
    pairs;
  Fmt.pr
    "@.(with a 50/50 successor split neither chaining nor speculation applies;@. deferral runs one jointly-optimized dispatch instead of two)@."

(* --- Broker: sharded serving with per-shard adaptive optimization ------- *)

module Bk = Podopt_broker

(* Machine-readable results: every broker measurement also lands in an
   in-memory journal; [--json] dumps it as BENCH_broker.json (schema in
   doc/BROKER.md) — the repo's perf-trajectory format.  Virtual-cost
   fields are deterministic; [wall_ns] is the real monotonic clock. *)
module Bjson = struct
  type entry = {
    bsection : string;
    bkind : string;
    bmode : string; (* "generic" | "optimized" *)
    bshards : int;
    bdomains : int;
    bsessions : int;
    bops : int;
    bwall_ns : int64;
    bbusy : int;
    bmakespan : int;
    bdispatched : int;
    bshed : int;
    boptimized : int;
    bgeneric : int;
    bfallbacks : int;
    bfailures : int;
    brequeued : int;
    bquarantined : int;
    btrips : int;
    bdropped : int;
    bdecode : int;
    bwarm : bool; (* warm-started from a profile store *)
    bfirst_opt : int;
    bfirst_gen : int;
    bckpt_every : int;
    bkills : int;
    brecoveries : int;
    bredelivered : int;
    bcheckpoints : int;
    bramp_opt : int;
    bramp_gen : int;
    broute : string; (* "hash" | "zipf:S" *)
    barrivals : string; (* "periodic" | "uniform" | "pareto:A" | "flash:T:M" *)
    belapsed : int;
    blatency : Bk.Loadgen.latency;
  }

  let entries : entry list ref = ref []
  let record e = entries := e :: !entries

  (* v3 latency fields: four flat ints per distribution *)
  let dist_json prefix (d : Podopt_obs.Hist.dist) =
    Printf.sprintf
      "\"%s_p50\": %d, \"%s_p90\": %d, \"%s_p99\": %d, \"%s_max\": %d" prefix
      d.Podopt_obs.Hist.p50 prefix d.Podopt_obs.Hist.p90 prefix
      d.Podopt_obs.Hist.p99 prefix d.Podopt_obs.Hist.max

  let of_summary ?(bwarm = false) ?(bckpt_every = 8)
      ?(broute = "hash") ?(barrivals = "periodic") ~bsection ~bkind
      ~bmode ~bshards ~bdomains ~(profile : Bk.Loadgen.profile) ~wall_ns
      (s : Bk.Loadgen.summary) =
    {
      bsection;
      bkind;
      bmode;
      bshards;
      bdomains;
      bsessions = profile.Bk.Loadgen.sessions;
      bops = profile.Bk.Loadgen.ops;
      bwall_ns = wall_ns;
      bbusy = s.Bk.Loadgen.busy;
      bmakespan = s.Bk.Loadgen.makespan;
      bdispatched = s.Bk.Loadgen.dispatched;
      bshed = s.Bk.Loadgen.shed;
      boptimized = s.Bk.Loadgen.optimized;
      bgeneric = s.Bk.Loadgen.generic;
      bfallbacks = s.Bk.Loadgen.fallbacks;
      bfailures = s.Bk.Loadgen.failures;
      brequeued = s.Bk.Loadgen.requeued;
      bquarantined = s.Bk.Loadgen.quarantined;
      btrips = s.Bk.Loadgen.breaker_trips;
      bdropped = s.Bk.Loadgen.link_dropped;
      bdecode = s.Bk.Loadgen.decode_failures;
      bwarm;
      bfirst_opt = s.Bk.Loadgen.first_epoch_optimized;
      bfirst_gen = s.Bk.Loadgen.first_epoch_generic;
      bckpt_every;
      bkills = s.Bk.Loadgen.kills;
      brecoveries = s.Bk.Loadgen.recoveries;
      bredelivered = s.Bk.Loadgen.redelivered;
      bcheckpoints = s.Bk.Loadgen.checkpoints;
      bramp_opt = s.Bk.Loadgen.ramp_optimized;
      bramp_gen = s.Bk.Loadgen.ramp_generic;
      broute;
      barrivals;
      belapsed = s.Bk.Loadgen.elapsed;
      blatency = s.Bk.Loadgen.latency;
    }

  let write path =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\n";
    Buffer.add_string b "  \"schema\": \"podopt/bench-broker/v10\",\n";
    Printf.bprintf b "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
    Buffer.add_string b "  \"entries\": [\n";
    let n = List.length !entries in
    List.iteri
      (fun i e ->
        Printf.bprintf b
          "    {\"section\": %S, \"kind\": %S, \"mode\": %S, \"shards\": %d, \
           \"domains\": %d, \"sessions\": %d, \"ops\": %d, \"wall_ns\": %Ld, \
           \"busy\": %d, \"makespan\": %d, \"dispatched\": %d, \"shed\": %d, \
           \"optimized\": %d, \"generic\": %d, \"fallbacks\": %d, \
           \"failures\": %d, \"requeued\": %d, \"quarantined\": %d, \
           \"breaker_trips\": %d, \"link_dropped\": %d, \"decode_failures\": %d, \
           \"warm\": %b, \"first_epoch_optimized\": %d, \
           \"first_epoch_generic\": %d, \"checkpoint_every\": %d, \
           \"kills\": %d, \"recoveries\": %d, \"redelivered\": %d, \
           \"checkpoints\": %d, \"ramp_optimized\": %d, \
           \"ramp_generic\": %d, \"route\": %S, \"arrivals\": %S, \
           \"elapsed\": %d, %s, %s, %s}%s\n"
          e.bsection e.bkind e.bmode e.bshards e.bdomains e.bsessions e.bops
          e.bwall_ns e.bbusy e.bmakespan e.bdispatched e.bshed e.boptimized
          e.bgeneric e.bfallbacks e.bfailures
          e.brequeued e.bquarantined
          e.btrips e.bdropped e.bdecode e.bwarm e.bfirst_opt e.bfirst_gen
          e.bckpt_every e.bkills e.brecoveries e.bredelivered e.bcheckpoints
          e.bramp_opt e.bramp_gen e.broute e.barrivals e.belapsed
          (dist_json "qwait" e.blatency.Bk.Loadgen.queue_wait)
          (dist_json "svc_opt" e.blatency.Bk.Loadgen.service_opt)
          (dist_json "svc_gen" e.blatency.Bk.Loadgen.service_gen)
          (if i = n - 1 then "" else ","))
      (List.rev !entries);
    Buffer.add_string b "  ]\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    Fmt.pr "@.wrote %s (%d entries)@." path n
end

(* Warm up and reset outside the timed window, then measure the steady
   phase under the monotonic clock (same protocol as Loadgen.steady,
   opened up so wall time covers exactly the measured run). *)
let timed_steady ?(warmup_ops = 12) broker profile =
  let cfg = Bk.Broker.config broker in
  if warmup_ops > 0 then begin
    let warm =
      Bk.Loadgen.make_sessions broker { profile with Bk.Loadgen.ops = warmup_ops }
    in
    ignore (Bk.Loadgen.run broker warm);
    if cfg.Bk.Broker.optimize then Bk.Broker.force_reoptimize broker
  end;
  Bk.Broker.reset_measurements broker;
  let sessions = Bk.Loadgen.make_sessions broker profile in
  let t0 = Monotonic_clock.now () in
  let s = Bk.Loadgen.run broker sessions in
  let t1 = Monotonic_clock.now () in
  (s, Int64.sub t1 t0)

(* Any broker run that hit the load generator's tick budget produced an
   unfinished summary — its numbers (and any determinism comparison made
   with them) are meaningless, so the whole bench run fails. *)
let broker_truncated = ref false

(* Build a broker, run the steady protocol, record the JSON entry, hand
   the serve document to [on_doc] if given, shut the pool down.  Returns
   (summary, wall ns). *)
let run_broker ~bsection ~kind ~shards ~domains ~optimize ~profile ~warmup_ops
    ?(tweak = fun c -> c) ?on_doc () =
  let cfg =
    tweak
      {
        Bk.Broker.default_config with
        Bk.Broker.shards;
        kind;
        optimize;
        batch = 16;
        queue_limit = 256;
        seed = 11L;
        domains;
      }
  in
  let b = Bk.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> Bk.Broker.shutdown b)
    (fun () ->
      let s, wall_ns = timed_steady ~warmup_ops b profile in
      if s.Bk.Loadgen.truncated then begin
        broker_truncated := true;
        Fmt.epr
          "%s (%s, %d shards, %d domains): run truncated at the tick budget — \
           the summary describes an unfinished run (NO — BUG)@."
          bsection
          (if optimize then "optimized" else "generic")
          shards domains
      end;
      Option.iter (fun f -> f (Bk.Report.json ~metrics:false b s)) on_doc;
      Bjson.record
        (Bjson.of_summary ~bsection
           ~bwarm:(cfg.Bk.Broker.optimize && cfg.Bk.Broker.profile_in <> None)
           ~bckpt_every:cfg.Bk.Broker.checkpoint_every
           ~broute:(Bk.Shard_map.route_to_string cfg.Bk.Broker.route)
           ~bkind:(Bk.Workload.kind_to_string kind)
           ~bmode:(if optimize then "optimized" else "generic")
           ~bshards:shards ~bdomains:domains ~profile ~wall_ns s);
      (s, wall_ns))

let broker_row ~kind ~shards ~profile ~warmup_ops =
  let run optimize =
    fst
      (run_broker ~bsection:"broker" ~kind ~shards ~domains:1 ~optimize ~profile
         ~warmup_ops ())
  in
  let g = run false in
  let o = run true in
  Fmt.pr "%6d | %10d | %12d %12d %6.1f | %9.1f | %12d %12d@." shards
    g.Bk.Loadgen.dispatched g.Bk.Loadgen.busy o.Bk.Loadgen.busy
    (pct (float_of_int o.Bk.Loadgen.busy) (float_of_int g.Bk.Loadgen.busy))
    (Bk.Loadgen.opt_pct o) g.Bk.Loadgen.makespan o.Bk.Loadgen.makespan

let broker_header () =
  Fmt.pr "%6s | %10s | %12s %12s %6s | %9s | %12s %12s@." "shards" "dispatched"
    "cost gen" "cost opt" "(%)" "opt-path%" "makespan g" "makespan o"

let broker ?(quick = false) () =
  section
    "Broker: sharded serving, generic vs per-shard-optimized (SecComm steady state)";
  broker_header ();
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 8 else 24);
      ops = (if quick then 8 else 25);
      interval = 120;
      spread = 31;
    }
  in
  List.iter
    (fun shards -> broker_row ~kind:Bk.Workload.Seccomm ~shards ~profile ~warmup_ops:12)
    (if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]);
  Fmt.pr
    "@.(every session's events route to one shard by stable hash; each shard's@. \
     adaptive controller installs SecPush/SecPop super-handlers from its own@. \
     live trace during warm-up, so steady-state dispatches take the guarded@. \
     optimized path and total virtual cost drops at every shard count, while@. \
     the makespan — the busiest shard's time — falls as shards are added)@.";
  section "Broker: video frames through CTP shards";
  broker_header ();
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 4 else 8);
      ops = (if quick then 3 else 6);
      interval = 400;
      spread = 53;
    }
  in
  List.iter
    (fun shards -> broker_row ~kind:Bk.Workload.Video ~shards ~profile ~warmup_ops:10)
    (if quick then [ 1; 2 ] else [ 1; 2; 4 ]);
  Fmt.pr
    "@.(the frame chain SendMsg -> MsgFrmUserH -> SegFromUser -> Seg2Net is one@. \
     optimized dispatch; acks, timeouts and flow control stay generic, so the@. \
     optimized-path share is lower than SecComm's but the chain savings still@. \
     cut total cost)@.";
  section "Broker: overload shedding (batch 1, queue limit 2, drop-oldest)";
  let cfg =
    {
      Bk.Broker.default_config with
      Bk.Broker.shards = 2;
      batch = 1;
      queue_limit = 2;
      policy = Bk.Policy.Drop_oldest;
      seed = 11L;
    }
  in
  let b = Bk.Broker.create cfg in
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = 12;
      ops = 10;
      interval = 60;
      spread = 11;
    }
  in
  let s, wall_ns = timed_steady ~warmup_ops:0 b profile in
  Bjson.record
    (Bjson.of_summary ~bsection:"broker-overload" ~bkind:"seccomm"
       ~bmode:"generic" ~bshards:2 ~bdomains:1 ~profile ~wall_ns s);
  Fmt.pr "%a@.%a" Bk.Report.pp_table b Bk.Report.pp_summary s;
  Fmt.pr
    "@.(arrivals outrun the drain rate; the bounded ingress queues shed per@. \
     policy, clients retry with exponential backoff and eventually give up —@. \
     the broker degrades deterministically instead of growing without bound)@."

(* --- Broker: parallel drain on OCaml 5 domains --------------------------- *)

let ms ns = Int64.to_float ns /. 1.0e6

let broker_par_failed = ref false

let broker_par ?(quick = false) () =
  section
    (Printf.sprintf
       "Broker: parallel drain on OCaml 5 domains (wall-clock ms, monotonic; \
        host has %d core%s)"
       (Domain.recommended_domain_count ())
       (if Domain.recommended_domain_count () = 1 then "" else "s"));
  let domains_list = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let shard_list = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 8 else 32);
      ops = (if quick then 6 else 30);
      interval = 120;
      spread = 31;
    }
  in
  Fmt.pr "%6s %7s | %12s %12s | %12s %12s | %9s | %s@." "shards" "domains"
    "wall gen" "wall opt" "cost gen" "cost opt" "speedup" "deterministic";
  List.iter
    (fun shards ->
      let base = ref None in
      List.iter
        (fun domains ->
          let g, gw =
            run_broker ~bsection:"broker-par" ~kind:Bk.Workload.Seccomm ~shards
              ~domains ~optimize:false ~profile ~warmup_ops:12 ()
          in
          let o, ow =
            run_broker ~bsection:"broker-par" ~kind:Bk.Workload.Seccomm ~shards
              ~domains ~optimize:true ~profile ~warmup_ops:12 ()
          in
          (* the virtual summaries must not depend on the domain count:
             compare every run against its 1-domain twin live *)
          let deterministic, speedup =
            match !base with
            | None ->
              base := Some (g, o, ow);
              (true, 1.0)
            | Some (g1, o1, ow1) ->
              (g = g1 && o = o1, Int64.to_float ow1 /. Int64.to_float ow)
          in
          Fmt.pr "%6d %7d | %12.2f %12.2f | %12d %12d | %8.2fx | %s@." shards
            domains (ms gw) (ms ow) g.Bk.Loadgen.busy o.Bk.Loadgen.busy speedup
            (if deterministic then "yes" else "NO — BUG");
          if not deterministic then begin
            broker_par_failed := true;
            Fmt.epr "broker-par: %d shards x %d domains diverged from the \
                     sequential run@." shards domains
          end)
        domains_list)
    shard_list;
  Fmt.pr
    "@.(wall-clock for the measured steady phase only; speedup = optimized@. \
     1-domain wall time over this row's optimized wall time.  The virtual@. \
     summaries — every per-shard counter and clock — are checked identical@. \
     across domain counts: parallel drains change elapsed seconds, never@. \
     results.  Speedup needs real cores; on a 1-core host expect ~1.0x@. \
     minus coordination overhead)@.";
  section "Broker: overload under parallel drain (batch 1, queue limit 2)";
  let overload_shards = if quick then 2 else 4 in
  let oprofile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = 12;
      ops = 10;
      interval = 60;
      spread = 11;
    }
  in
  let tweak c =
    {
      c with
      Bk.Broker.batch = 1;
      queue_limit = 2;
      policy = Bk.Policy.Drop_oldest;
    }
  in
  Fmt.pr "%6s %7s | %12s | %10s %6s %8s | %s@." "shards" "domains" "wall"
    "dispatched" "shed" "gave up" "deterministic";
  let base = ref None in
  List.iter
    (fun domains ->
      let s, wall =
        run_broker ~bsection:"broker-par-overload" ~kind:Bk.Workload.Seccomm
          ~shards:overload_shards ~domains ~optimize:false ~profile:oprofile
          ~warmup_ops:0 ~tweak ()
      in
      let deterministic =
        match !base with
        | None ->
          base := Some s;
          true
        | Some s1 -> s = s1
      in
      Fmt.pr "%6d %7d | %12.2f | %10d %6d %8d | %s@." overload_shards domains
        (ms wall) s.Bk.Loadgen.dispatched s.Bk.Loadgen.shed s.Bk.Loadgen.gave_up
        (if deterministic then "yes" else "NO — BUG");
      if not deterministic then broker_par_failed := true)
    domains_list;
  Fmt.pr
    "@.(shedding, nacks, and retry backoff all happen on the coordinator's@. \
     routing step, so even an overloaded run is bit-identical at every@. \
     domain count)@.";
  section
    "Broker: uniform vs Zipf-skewed routing under parallel drain (8 shards, \
     serve document identity)";
  let rprofile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 16 else 32);
      ops = (if quick then 8 else 12);
      interval = 80;
      spread = 31;
    }
  in
  Fmt.pr "%9s %7s | %12s | %10s %12s | %s@." "route" "domains" "wall opt"
    "dispatched" "cost opt" "identical";
  List.iter
    (fun route ->
      let rname = Bk.Shard_map.route_to_string route in
      let base = ref None in
      List.iter
        (fun domains ->
          let doc = ref "" in
          let s, wall =
            run_broker ~bsection:"broker-par-route" ~kind:Bk.Workload.Seccomm
              ~shards:8 ~domains ~optimize:true ~profile:rprofile ~warmup_ops:12
              ~tweak:(fun c -> { c with Bk.Broker.route })
              ~on_doc:(fun d -> doc := d)
              ()
          in
          (* the serve document (per-shard blocks included) and the
             summary must equal the sequential run's byte for byte *)
          let identical =
            match !base with
            | None ->
              base := Some (s, !doc);
              true
            | Some (s1, doc1) -> s = s1 && String.equal !doc doc1
          in
          Fmt.pr "%9s %7d | %12.2f | %10d %12d | %s@." rname domains (ms wall)
            s.Bk.Loadgen.dispatched s.Bk.Loadgen.busy
            (if identical then "yes" else "NO — BUG");
          if not identical then begin
            broker_par_failed := true;
            Fmt.epr "broker-par: route %s at %d domains diverged from the \
                     sequential serve document@." rname domains
          end)
        [ 1; 2; 4 ])
    [ Bk.Shard_map.Hash; Bk.Shard_map.Zipf 1.2 ];
  Fmt.pr
    "@.(Zipf routing piles sessions onto the low shards; the hottest shard@. \
     is claimed first each epoch, but which worker drains it is scheduling@. \
     only — the document is identical at every domain count, skewed or not)@."

(* --- Broker: latency distributions --------------------------------------- *)

(* Where in the distribution do super-handlers win?  Same steady-state
   SecComm load served generic and optimized; the per-op service-time
   percentiles show the shift is across the whole body of the
   distribution (every op takes the optimized path), not just the tail,
   while queue waits stay put (arrival pattern is identical). *)
let broker_latency ?(quick = false) () =
  section
    "Broker latency: queue-wait and service-time percentiles, generic vs \
     optimized (SecComm steady state)";
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 8 else 24);
      ops = (if quick then 8 else 25);
      interval = 120;
      spread = 31;
    }
  in
  let dist_row (d : Podopt_obs.Hist.dist) =
    Fmt.str "%8d %8d %8d %8d" d.Podopt_obs.Hist.p50 d.Podopt_obs.Hist.p90
      d.Podopt_obs.Hist.p99 d.Podopt_obs.Hist.max
  in
  Fmt.pr "%9s %9s | %35s | %35s@." "mode" "path" "queue-wait p50/p90/p99/max"
    "service-time p50/p90/p99/max";
  let run optimize =
    fst
      (run_broker ~bsection:"broker-latency" ~kind:Bk.Workload.Seccomm
         ~shards:2 ~domains:1 ~optimize ~profile ~warmup_ops:12 ())
  in
  let g = run false in
  let o = run true in
  Fmt.pr "%9s %9s | %35s | %35s@." "generic" "generic"
    (dist_row g.Bk.Loadgen.latency.Bk.Loadgen.queue_wait)
    (dist_row g.Bk.Loadgen.latency.Bk.Loadgen.service_gen);
  Fmt.pr "%9s %9s | %35s | %35s@." "optimized" "optimized"
    (dist_row o.Bk.Loadgen.latency.Bk.Loadgen.queue_wait)
    (dist_row o.Bk.Loadgen.latency.Bk.Loadgen.service_opt);
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let gd = g.Bk.Loadgen.latency.Bk.Loadgen.service_gen in
  let od = o.Bk.Loadgen.latency.Bk.Loadgen.service_opt in
  Fmt.pr
    "@.(optimized service time = %.2fx generic at p50, %.2fx at p99: the@. \
     merged super-handler cuts every op's dispatch cost, so the whole@. \
     distribution shifts left rather than just the tail.  Queue waits@. \
     depend only on arrivals and drain cadence, hence barely move)@."
    (ratio od.Podopt_obs.Hist.p50 gd.Podopt_obs.Hist.p50)
    (ratio od.Podopt_obs.Hist.p99 gd.Podopt_obs.Hist.p99)

(* --- Broker: warm start from a profile store ----------------------------- *)

(* Cold vs warm ramp: a seed run's per-shard profiles are captured into
   a store, then the same load is served twice with no warm-up phase —
   once cold (the adaptive controllers must rediscover the hot chains
   from live traffic) and once warm-started from the store (the merged
   profile compiles super-handlers before the first packet).  The
   first-epoch counters make the ramp visible: cold's first batches are
   all generic. *)
let broker_warm ?(quick = false) () =
  section
    "Broker warm start: cold vs profile-store-fed, no warm-up phase (SecComm \
     steady state)";
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 8 else 16);
      ops = (if quick then 8 else 20);
      interval = 120;
      spread = 31;
    }
  in
  let shards = 2 in
  let store =
    let cfg =
      {
        Bk.Broker.default_config with
        Bk.Broker.shards;
        kind = Bk.Workload.Seccomm;
        optimize = true;
        batch = 16;
        queue_limit = 256;
        seed = 11L;
      }
    in
    let b = Bk.Broker.create cfg in
    Fun.protect
      ~finally:(fun () -> Bk.Broker.shutdown b)
      (fun () ->
        ignore (Bk.Loadgen.steady ~warmup_ops:12 b profile);
        Bk.Broker.profile_store b)
  in
  let run tweak =
    fst
      (run_broker ~bsection:"broker-warm" ~kind:Bk.Workload.Seccomm ~shards
         ~domains:1 ~optimize:true ~profile ~warmup_ops:0 ~tweak ())
  in
  let cold = run (fun c -> c) in
  let warm = run (fun c -> { c with Bk.Broker.profile_in = Some store }) in
  Fmt.pr "%6s | %13s %13s | %9s | %12s %12s@." "mode" "1st-epoch opt"
    "1st-epoch gen" "opt-path%" "cost" "makespan";
  let row name (s : Bk.Loadgen.summary) =
    Fmt.pr "%6s | %13d %13d | %9.1f | %12d %12d@." name
      s.Bk.Loadgen.first_epoch_optimized s.Bk.Loadgen.first_epoch_generic
      (Bk.Loadgen.opt_pct s) s.Bk.Loadgen.busy s.Bk.Loadgen.makespan
  in
  row "cold" cold;
  row "warm" warm;
  Fmt.pr
    "@.(the seed run's store is merged and fed back via profile_in; the warm@. \
     broker dispatches optimized in its very first batch while the cold one@. \
     must re-profile from scratch, so the warm run's optimized-path share@. \
     and total cost beat cold for the same traffic)@."

(* --- Broker: deterministic fault injection ------------------------------- *)

let broker_faults ?(quick = false) () =
  section
    "Broker: fault injection (seeded crash/spike/drop plans, SecComm steady \
     state)";
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 8 else 16);
      ops = (if quick then 8 else 20);
      interval = 120;
      spread = 31;
    }
  in
  let shards = 2 in
  Fmt.pr "%6s | %10s %8s %8s %5s %5s | %12s %12s %6s | %s@." "crash%"
    "dispatched" "failed" "requeued" "quar" "trips" "cost gen" "cost opt" "(%)"
    "deterministic";
  List.iter
    (fun crash_permille ->
      (* crashes dominate; spikes at half the rate, a sprinkle of wire
         drops — all from the same seeded plan *)
      let spec =
        {
          Podopt_faults.Plan.none with
          Podopt_faults.Plan.seed = 7L;
          crash_permille;
          spike_permille = crash_permille / 2;
          drop_permille = crash_permille / 20;
        }
      in
      let tweak c = { c with Bk.Broker.faults = spec } in
      let g, _ =
        run_broker ~bsection:"broker-faults" ~kind:Bk.Workload.Seccomm ~shards
          ~domains:1 ~optimize:false ~profile ~warmup_ops:12 ~tweak ()
      in
      let o, _ =
        run_broker ~bsection:"broker-faults" ~kind:Bk.Workload.Seccomm ~shards
          ~domains:1 ~optimize:true ~profile ~warmup_ops:12 ~tweak ()
      in
      (* faulty runs obey the same law as clean ones: the virtual summary
         must not depend on the domain count *)
      let o2, _ =
        run_broker ~bsection:"broker-faults" ~kind:Bk.Workload.Seccomm ~shards
          ~domains:2 ~optimize:true ~profile ~warmup_ops:12 ~tweak ()
      in
      let deterministic = o = o2 in
      Fmt.pr "%6.1f | %10d %8d %8d %5d %5d | %12d %12d %6.1f | %s@."
        (float_of_int crash_permille /. 10.0)
        o.Bk.Loadgen.dispatched o.Bk.Loadgen.failures o.Bk.Loadgen.requeued
        o.Bk.Loadgen.quarantined o.Bk.Loadgen.breaker_trips g.Bk.Loadgen.busy
        o.Bk.Loadgen.busy
        (pct (float_of_int o.Bk.Loadgen.busy) (float_of_int g.Bk.Loadgen.busy))
        (if deterministic then "yes" else "NO — BUG");
      if not deterministic then
        Fmt.epr "broker-faults: crash=%d diverged across domain counts@."
          crash_permille)
    (if quick then [ 0; 200 ] else [ 0; 10; 50; 200 ]);
  Fmt.pr
    "@.(every fault is drawn from a per-kind, per-shard seeded PRNG stream, so@. \
     a fault scenario replays bit-identically at any domain count.  Failed ops@. \
     are isolated at the dispatch boundary and retried; after 3 consecutive@. \
     failures an op is quarantined to the shard's dead-letter queue.  When@. \
     the optimized path's fault rate trips the circuit breaker the shard@. \
     falls back to generic dispatch and re-optimizes after the cool-down)@."

(* --- Broker: deterministic crash recovery -------------------------------- *)

(* The recovery invariant under load: a run with shard kills enabled
   must produce end-of-run observables — global dispatch order,
   per-attempt success, payload digests, and every client's accounting —
   byte-identical to the same run with kills disabled, at any kill rate
   and checkpoint interval; and the killed run itself must be
   bit-identical across domain counts.  Any violation (or a recovery
   whose first post-recovery batch dispatches nothing optimized — a cold
   restart where a warm one was promised) fails the whole bench. *)
let broker_recovery_failed = ref false

let broker_recovery ?(quick = false) () =
  section
    "Broker recovery: seeded shard kills, epoch checkpoints, journal \
     redelivery (SecComm steady state)";
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 8 else 16);
      ops = (if quick then 8 else 20);
      interval = 120;
      spread = 31;
    }
  in
  let shards = 2 in
  (* One observed run: warm up, reset, then capture the measured phase's
     deliveries (domains = 1 only — the hook needs a deterministic global
     append order) and per-client accounting alongside the summary. *)
  let observed ~domains ~kill ~checkpoint_every =
    let cfg =
      {
        Bk.Broker.default_config with
        Bk.Broker.shards;
        kind = Bk.Workload.Seccomm;
        optimize = true;
        batch = 16;
        queue_limit = 256;
        seed = 11L;
        domains;
        checkpoint_every;
        faults =
          {
            Podopt_faults.Plan.none with
            Podopt_faults.Plan.seed = 7L;
            kill_permille = kill;
          };
      }
    in
    let b = Bk.Broker.create cfg in
    Fun.protect
      ~finally:(fun () -> Bk.Broker.shutdown b)
      (fun () ->
        let warm =
          Bk.Loadgen.make_sessions b { profile with Bk.Loadgen.ops = 12 }
        in
        ignore (Bk.Loadgen.run b warm);
        Bk.Broker.force_reoptimize b;
        Bk.Broker.reset_measurements b;
        let deliveries = ref [] in
        if domains = 1 then
          Bk.Broker.set_delivery_hook b
            (Some
               (fun ~shard ~src ~seq ~ok ~payload ->
                 deliveries :=
                   Printf.sprintf "%d %s#%d %b %08x" shard src seq ok
                     (Podopt_crypto.Crc32.compute payload land 0xffffffff)
                   :: !deliveries));
        let sessions = Bk.Loadgen.make_sessions b profile in
        let t0 = Monotonic_clock.now () in
        let s = Bk.Loadgen.run b sessions in
        let wall_ns = Int64.sub (Monotonic_clock.now ()) t0 in
        if s.Bk.Loadgen.truncated then broker_truncated := true;
        let clients =
          List.map
            (fun sess ->
              let st = Bk.Session.stats sess in
              Printf.sprintf "%s %d %d %d %d" (Bk.Session.id sess)
                st.Bk.Session.sent st.Bk.Session.retries st.Bk.Session.nacks
                st.Bk.Session.gave_up)
            sessions
        in
        if domains = 1 then
          Bjson.record
            (Bjson.of_summary ~bsection:"broker-recovery" ~bkind:"seccomm"
               ~bmode:(if kill > 0 then "killed" else "optimized")
               ~bckpt_every:checkpoint_every ~bshards:shards ~bdomains:domains
               ~profile ~wall_ns s);
        (s, List.rev !deliveries, clients))
  in
  let _, d0, c0 = observed ~domains:1 ~kill:0 ~checkpoint_every:8 in
  Fmt.pr "%6s %9s | %5s %5s %8s %6s | %10s | %9s | %s@." "kill%" "ckpt-every"
    "kills" "recov" "redeliv" "ckpts" "ramp o/g" "identical" "deterministic";
  List.iter
    (fun (kill, checkpoint_every) ->
      let s1, d1, c1 = observed ~domains:1 ~kill ~checkpoint_every in
      let identical = d1 = d0 && c1 = c0 in
      let s2, _, _ = observed ~domains:2 ~kill ~checkpoint_every in
      let deterministic = s1 = s2 in
      let warm_ramp =
        s1.Bk.Loadgen.recoveries = 0 || s1.Bk.Loadgen.ramp_optimized > 0
      in
      Fmt.pr "%6.1f %9d | %5d %5d %8d %6d | %5d/%4d | %9s | %s@."
        (float_of_int kill /. 10.0)
        checkpoint_every s1.Bk.Loadgen.kills s1.Bk.Loadgen.recoveries
        s1.Bk.Loadgen.redelivered s1.Bk.Loadgen.checkpoints
        s1.Bk.Loadgen.ramp_optimized s1.Bk.Loadgen.ramp_generic
        (if identical then "yes" else "NO — BUG")
        (if deterministic then "yes" else "NO — BUG");
      if not identical then begin
        broker_recovery_failed := true;
        Fmt.epr
          "broker-recovery: kill=%d ckpt=%d observables diverged from the \
           kill-free run@."
          kill checkpoint_every
      end;
      if not deterministic then begin
        broker_recovery_failed := true;
        Fmt.epr "broker-recovery: kill=%d ckpt=%d diverged across domain \
                 counts@." kill checkpoint_every
      end;
      if s1.Bk.Loadgen.kills = 0 then begin
        broker_recovery_failed := true;
        Fmt.epr "broker-recovery: kill=%d ckpt=%d drew no kills — the sweep \
                 is not exercising recovery@." kill checkpoint_every
      end;
      if not warm_ramp then begin
        broker_recovery_failed := true;
        Fmt.epr
          "broker-recovery: kill=%d ckpt=%d recovered cold — no optimized \
           dispatch in the first post-recovery batch@."
          kill checkpoint_every
      end)
    (if quick then [ (400, 4) ]
     else [ (150, 1); (150, 8); (400, 2); (400, 8) ]);
  Fmt.pr
    "@.(each kill wipes a shard's runtime, optimizer, ingress and retry state;@. \
     the supervisor restores the latest checkpoint — counters, globals,@. \
     queue, retries, dead letters, fault streams, and the profile that@. \
     warm-starts the super-handlers — then redelivers the journal in@. \
     admission order.  The ramp column shows the first post-recovery batch@. \
     dispatching optimized: restarts are warm, not cold)@."

(* --- broker workload zoo: open-loop arrivals across workloads ----------- *)

let broker_zoo_failed = ref false

let broker_zoo ?(quick = false) () =
  section
    "Broker workload zoo: GUI-storm / chat-fanout workloads under open-loop \
     arrivals (shed-prone queue, domain identity checked per cell)";
  let profile =
    {
      Bk.Loadgen.default_profile with
      Bk.Loadgen.sessions = (if quick then 8 else 12);
      ops = (if quick then 6 else 10);
      interval = 120;
      spread = 17;
    }
  in
  let shards = 4 in
  (* One steady-state run per cell: a tight queue (limit 4, batch 2) so
     the flash-crowd bursts actually pressure the shed policy, and the
     serve document captured for the domain-identity comparison.  The
     warm-up is [Loadgen.steady]'s 12 ops: the xwin trace needs that
     many to cross the analysis threshold, and a cell labelled
     optimized must actually run optimized (gated below). *)
  let run ~kind ~arrivals ~domains =
    let cfg =
      {
        Bk.Broker.default_config with
        Bk.Broker.shards;
        kind;
        optimize = true;
        batch = 2;
        queue_limit = 4;
        seed = 13L;
        domains;
        arrivals;
      }
    in
    let b = Bk.Broker.create cfg in
    Fun.protect
      ~finally:(fun () -> Bk.Broker.shutdown b)
      (fun () ->
        let s, wall_ns = timed_steady b profile in
        if s.Bk.Loadgen.truncated then broker_truncated := true;
        let json = Bk.Report.json ~metrics:false b s in
        Bjson.record
          (Bjson.of_summary ~bsection:"broker-zoo"
             ~bkind:(Bk.Workload.kind_to_string kind)
             ~bmode:"optimized"
             ~barrivals:(Bk.Arrivals.to_string arrivals)
             ~bshards:shards ~bdomains:domains ~profile ~wall_ns s);
        (s, json))
  in
  let kinds = [ Bk.Workload.Seccomm; Bk.Workload.Xwin; Bk.Workload.Chat ] in
  let specs =
    [ Bk.Arrivals.Uniform; Bk.Arrivals.Pareto 1.5; Bk.Arrivals.Flash (600, 8) ]
  in
  let alt_domains = if quick then 2 else 4 in
  let flash_pressure = ref 0 in
  Fmt.pr "%8s %12s | %10s %6s %6s %6s | %9s@." "workload" "arrivals"
    "dispatched" "shed" "displ" "opt%" "identical";
  List.iter
    (fun kind ->
      List.iter
        (fun spec ->
          let s1, json1 = run ~kind ~arrivals:spec ~domains:1 in
          let sn, jsonn = run ~kind ~arrivals:spec ~domains:alt_domains in
          let identical = String.equal json1 jsonn && s1 = sn in
          let optimized = Bk.Loadgen.opt_pct s1 > 0.0 in
          (match spec with
           | Bk.Arrivals.Flash _ ->
             flash_pressure :=
               !flash_pressure + s1.Bk.Loadgen.shed + s1.Bk.Loadgen.displaced
           | _ -> ());
          Fmt.pr "%8s %12s | %10d %6d %6d %6.1f | %9s@."
            (Bk.Workload.kind_to_string kind)
            (Bk.Arrivals.to_string spec)
            s1.Bk.Loadgen.dispatched s1.Bk.Loadgen.shed s1.Bk.Loadgen.displaced
            (Bk.Loadgen.opt_pct s1)
            (if identical then "yes" else "NO — BUG");
          if not optimized then begin
            broker_zoo_failed := true;
            Fmt.epr
              "broker-zoo: %s under %s arrivals is labelled optimized but \
               served 0.0%% of its dispatches on the optimized path@."
              (Bk.Workload.kind_to_string kind)
              (Bk.Arrivals.to_string spec)
          end;
          if not identical then begin
            broker_zoo_failed := true;
            Fmt.epr
              "broker-zoo: %s under %s arrivals — observables diverged \
               between --domains 1 and --domains %d@."
              (Bk.Workload.kind_to_string kind)
              (Bk.Arrivals.to_string spec)
              alt_domains
          end)
        specs)
    kinds;
  if !flash_pressure = 0 then begin
    broker_zoo_failed := true;
    Fmt.epr
      "broker-zoo: no flash-crowd cell shed or displaced a single packet — \
       the bursts never pressured the queues, so the open-loop path is not \
       being exercised@."
  end;
  Fmt.pr
    "@.(each cell is one steady-state run per domain count; identical means@. \
     the serve JSON document and every summary counter match byte-for-byte@. \
     between the sequential and the parallel drain.  The flash rows must@. \
     shed or displace — a burst that never pressures the shed-prone queue@. \
     would leave the open-loop machinery untested)@."

(* --- Bechamel wall-clock suite ------------------------------------------ *)

let bechamel () =
  section "Bechamel wall-clock micro-benchmarks (monotonic clock, ns/run)";
  let open Bechamel in
  let open Toolkit in
  (* pre-built pairs reused across samples *)
  let v_orig, v_opt = video_pair () in
  let s_orig, s_opt = seccomm_pair () in
  let e_orig, e_opt = editor_pair () in
  let frame = Video.frame_payload 3 in
  let msg = Messenger.message ~size:512 1 in
  let tests =
    [
      Test.make ~name:"marshal/roundtrip-512B"
        (Staged.stage (fun () ->
             ignore
               (Value.unmarshal (Value.marshal [ Value.Bytes (Bytes.create 512) ]))));
      Test.make ~name:"video/frame-orig"
        (Staged.stage (fun () -> Ctp.send v_orig frame));
      Test.make ~name:"video/frame-opt" (Staged.stage (fun () -> Ctp.send v_opt frame));
      Test.make ~name:"seccomm/push-512-orig"
        (Staged.stage (fun () -> Podopt_seccomm.Seccomm.push s_orig msg));
      Test.make ~name:"seccomm/push-512-opt"
        (Staged.stage (fun () -> Podopt_seccomm.Seccomm.push s_opt msg));
      Test.make ~name:"xclient/scroll-orig"
        (Staged.stage (fun () -> Ed.scroll_once e_orig ~y:77));
      Test.make ~name:"xclient/scroll-opt"
        (Staged.stage (fun () -> Ed.scroll_once e_opt ~y:77));
      Test.make ~name:"xclient/popup-orig"
        (Staged.stage (fun () -> Ed.popup_once e_orig ~at:(120, 130)));
      Test.make ~name:"xclient/popup-opt"
        (Staged.stage (fun () -> Ed.popup_once e_opt ~at:(120, 130)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Fmt.pr "%28s : %12.1f ns/run@." name est
          | Some _ | None -> Fmt.pr "%28s : (no estimate)@." name)
        analyzed)
    tests;
  (* keep queues from growing unboundedly if tests are re-run *)
  Runtime.run v_orig;
  Runtime.run v_opt

(* --- dispatcher ----------------------------------------------------------- *)

let all_tables () =
  fig5 ();
  fig6 ();
  fig10 ();
  fig11 ();
  fig12 ();
  fig13 ();
  codesize ();
  ablate ();
  fig14 ();
  speculate ();
  defer ();
  configs ();
  broker ();
  broker_latency ();
  broker_warm ();
  broker_faults ();
  broker_recovery ();
  broker_zoo ()

let () =
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (( <> ) "--") in
  let json = List.mem "--json" args in
  let quick = List.mem "--quick" args in
  let names =
    List.filter (fun a -> a <> "--json" && a <> "--quick") args
  in
  (match names with
  | [] ->
    all_tables ();
    bechamel ()
  | names ->
    List.iter
      (fun name ->
        match name with
        | "fig5" -> fig5 ()
        | "fig6" -> fig6 ()
        | "fig10" -> fig10 ()
        | "fig11" -> fig11 ()
        | "fig12" -> fig12 ()
        | "fig13" -> fig13 ()
        | "codesize" -> codesize ()
        | "ablate" -> ablate ()
        | "fig14" -> fig14 ()
        | "speculate" -> speculate ()
        | "defer" -> defer ()
        | "configs" -> configs ()
        | "broker" -> broker ~quick ()
        | "broker-latency" -> broker_latency ~quick ()
        | "broker-warm" -> broker_warm ~quick ()
        | "broker-par" -> broker_par ~quick ()
        | "broker-faults" -> broker_faults ~quick ()
        | "broker-recovery" -> broker_recovery ~quick ()
        | "broker-zoo" -> broker_zoo ~quick ()
        | "bechamel" -> bechamel ()
        | "tables" -> all_tables ()
        | other ->
          Fmt.epr "unknown benchmark %s@." other;
          exit 2)
      names);
  if json then Bjson.write "BENCH_broker.json";
  if !broker_truncated then begin
    Fmt.epr "bench: at least one broker run was truncated — results invalid@.";
    exit 1
  end;
  if !broker_recovery_failed then begin
    Fmt.epr
      "bench: crash recovery diverged from the kill-free run or restarted \
       cold — results invalid@.";
    exit 1
  end;
  if !broker_par_failed then begin
    Fmt.epr
      "bench: a parallel drain diverged from the sequential run — results \
       invalid@.";
    exit 1
  end;
  if !broker_zoo_failed then begin
    Fmt.epr
      "bench: a workload-zoo cell diverged across domain counts, ran at 0%% \
       opt-path, or the flash crowd never pressured the queues — results \
       invalid@.";
    exit 1
  end
