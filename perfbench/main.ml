(* Wall-clock serving benchmark for the broker.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Set-up (create + warm-up + forced analysis + reset) runs once before
   the timed window and several more times after it; the median of all
   of them is reported.  Round 0, the first steady round,
   is stepped untimed with the output recorder on; the timed window then
   replays the steady profile for as many rounds as S seconds hold at
   the workload's nominal rate.  With --trace 1 half the rounds run
   untraced and half traced, and the per-layer breakdown is printed
   instead of the end-to-end metrics.  The last line of stdout is one
   JSON object. *)

open Perfbench
open Harness
module Broker = B.Broker

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let pct a b = 100.0 *. ratio a b
let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.((Array.length a - 1) / 2)

(* ---- the timed window ---- *)

type window = {
  ops : int;            (** ops dispatched in the window *)
  loop_ns : int;        (** wall time inside the stepping loops *)
  rounds : int;
  ticks : int;
  steps : Vec.t;        (** wall ns of each step that dispatched an op *)
  delta : totals;
  clients : clients;
  gc0 : Gc.stat;
  gc1 : Gc.stat;        (** read after the pool is joined *)
  steals : int;
  migrations : int;
  critical_busy : int;
  checkpoints : int;
  recoveries : int;
  redelivered : int;
}

let add_clients a b =
  { sent = a.sent + b.sent; retries = a.retries + b.retries; gave_up = a.gave_up + b.gave_up }

(* [rounds] steady rounds on [broker], then shut the broker down
   (joining its domains, so their allocation is counted).  The work is
   fixed, not the time: a faster program finishes sooner, and both
   sides of a comparison serve the same ops. *)
let window ?on_step w broker ~rounds =
  let steps = Vec.create () in
  let t0 = totals broker in
  let steals0 = Broker.steals broker and mig0 = Broker.migration_count broker in
  let crit0 = Broker.critical_busy broker and ck0 = Broker.checkpoints_taken broker in
  let rec0 = Broker.recoveries broker and red0 = Broker.redelivered broker in
  Gc.minor ();
  let gc0 = Gc.quick_stat () in
  let ticks = ref 0 and loop_ns = ref 0 and cl = ref { sent = 0; retries = 0; gave_up = 0 } in
  for _ = 1 to rounds do
    let r = round ?on_step ~steps w broker in
    ticks := !ticks + r.ticks;
    loop_ns := !loop_ns + r.wall_ns;
    cl := add_clients !cl (clients r.sessions)
  done;
  let delta = diff (totals broker) t0 in
  let after =
    ( Broker.steals broker - steals0,
      Broker.migration_count broker - mig0,
      Broker.critical_busy broker - crit0,
      Broker.checkpoints_taken broker - ck0,
      Broker.recoveries broker - rec0,
      Broker.redelivered broker - red0 )
  in
  Broker.shutdown broker;
  let gc1 = Gc.quick_stat () in
  let steals, migrations, critical_busy, checkpoints, recoveries, redelivered = after in
  {
    ops = delta.dispatched;
    loop_ns = !loop_ns;
    rounds;
    ticks = !ticks;
    steps;
    delta;
    clients = !cl;
    gc0;
    gc1;
    steals;
    migrations;
    critical_busy;
    checkpoints;
    recoveries;
    redelivered;
  }

let ops_per_s win = float_of_int win.ops /. (float_of_int win.loop_ns /. 1e9)

(* ---- checks ---- *)

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let gate_round (w : Workloads.t) (c : checked) =
  let cfg = w.Workloads.config ~seed:0 in
  let capacity = cfg.Broker.shards * cfg.Broker.batch in
  Printf.printf
    "offered load: %.2f ops/tick mean, %d ops/tick peak; virtual capacity %d ops/tick \
     (%d shards x batch %d); shed %d of %d offered\n"
    (ratio c.totals.offered c.ticks) c.peak_routed capacity cfg.Broker.shards cfg.Broker.batch
    c.totals.shed c.totals.offered;
  if c.totals.optimized = 0 then problem "optimize.opt_path_pct = 0 in round 0";
  (match w.Workloads.shedding with
   | `Required when c.totals.shed = 0 -> problem "no shedding, but this workload must overflow"
   | `Forbidden when c.totals.shed > 0 -> problem "%d ops shed under capacity" c.totals.shed
   | _ -> ())

let gate_window (win : window) =
  if win.delta.optimized = 0 then problem "optimize.opt_path_pct = 0 in the timed window"

(* Output check and loop fidelity, outside the timed window. *)
let check_outputs w ~seed (c : checked) =
  let got = c.digest and expect = reference_digest w ~seed in
  if got <> expect then problem "output digest %s differs from optimize=false %s" got expect;
  try check_fidelity w ~seed c with Failure msg -> problem "%s" msg

(* ---- runs ---- *)

let sim_latency (c : checked) = (percentile c.latency 50.0, percentile c.latency 99.0)

let attempted (c : checked) wins =
  List.fold_left (fun acc win -> acc + win.clients.sent) c.clients.sent wins

(* Client give-ups plus dead-lettered ops. *)
let failed (c : checked) wins =
  List.fold_left
    (fun acc win -> acc + win.clients.gave_up + win.delta.quarantined)
    (c.clients.gave_up + c.totals.quarantined)
    wins

(* Set up [n] times (the last broker is kept), then run round 0. *)
let prepare w ~seed ~n =
  let all =
    List.init n (fun i ->
        let s = setup w ~seed ~optimize:true in
        if i < n - 1 then Broker.shutdown s.broker;
        s)
  in
  let kept = List.nth all (n - 1) in
  let c = checked_round w kept.broker in
  gate_round w c;
  (all, kept, c)

let end_to_end w ~seed ~seconds =
  let all, kept, c = prepare w ~seed ~n:1 in
  let win = window w kept.broker ~rounds:(Workloads.rounds w ~seconds) in
  gate_window win;
  if Vec.length win.steps < 1000 then
    problem "only %d dispatching steps: fewer than 10 beyond p99" (Vec.length win.steps);
  (* the other set-ups run after the window, with the kept broker
     unreachable: each set-up leaves live data behind even after
     [Broker.shutdown] (see WORKLOADS.md), which would slow the window
     and inflate heap_peak_mb, and a live broker would add its heap to
     the collections a set-up pays for *)
  let kept_ns = List.map (fun s -> s.setup_ns) all in
  let setup_ns =
    kept_ns
    @ List.init (w.Workloads.setups - 1) (fun _ ->
          let s = setup w ~seed ~optimize:true in
          Broker.shutdown s.broker;
          s.setup_ns)
  in
  let steps = Vec.sorted [ win.steps ] in
  let p50, p99 = sim_latency c in
  let words = win.gc1.Gc.minor_words -. win.gc0.Gc.minor_words in
  let us p = float_of_int (percentile steps p) /. 1e3 in
  Printf.printf
    "timed window: %d rounds, %d ops in %.3f s; %d steps with ops; set-up median of %d runs\n"
    win.rounds win.ops (float_of_int win.loop_ns /. 1e9) (Array.length steps)
    (List.length setup_ns);
  let fails = failed c [ win ] and sent = attempted c [ win ] in
  Printf.printf "failed_pct %.4f %% (%d give-ups + dead letters of %d ops sent)\n"
    (pct fails sent) fails sent;
  let metrics =
    [
      m "ops_per_s" "ops/s" (ops_per_s win);
      m "step_p50_us" "us" (us 50.0);
      m "step_p99_us" "us" (us 99.0);
      m "setup_s" "s" (float_of_int (median setup_ns) /. 1e9);
      m "alloc_words_per_op" "words/op" (words /. float_of_int win.ops);
      m "heap_peak_mb" "MiB"
        (float_of_int (win.gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      m "sim_latency_p50_units" "units" (float_of_int p50);
      m "sim_latency_p99_units" "units" (float_of_int p99);
      m "model_units_per_op" "units/op"
        (ratio (c.totals.busy + win.delta.busy) (c.totals.dispatched + win.delta.dispatched));
    ]
  in
  check_outputs w ~seed c;
  (metrics, sent, fails)

(* Shard.checkpoint on the end-of-run shards: mean wall time and size. *)
let checkpoint_cost broker =
  let shards = Broker.shards broker in
  let ns = ref 0 and bytes = ref 0 in
  Array.iter
    (fun s ->
      let t0 = now_ns () in
      let ck = B.Shard.checkpoint s ~epoch:0 in
      ns := !ns + (now_ns () - t0);
      bytes := !bytes + String.length ck)
    shards;
  let n = Array.length shards in
  (ratio !ns n /. 1e3, ratio !bytes n /. 1024.0)

let per_layer w ~seed ~seconds ~spans_path =
  let half = max 3 (Workloads.rounds w ~seconds / 2) in
  (* untraced half: the baseline for the tracing overhead *)
  let all, kept, c = prepare w ~seed ~n:3 in
  let plain = window w kept.broker ~rounds:half in
  gate_window plain;
  (* traced half *)
  let prims, restore = Tracing.wrap_prims () in
  let s = setup w ~seed ~optimize:true in
  let broker = s.broker in
  let nshards = Array.length (Broker.shards broker) in
  let ep = Tracing.epochs nshards and sp = Tracing.spans () in
  Broker.set_delivery_hook broker (Some (Tracing.on_delivery ep));
  let session_ns = ref 0 and front_ns = ref 0 and drain_ns = ref 0 in
  let last_ck = ref (Broker.checkpoints_taken broker) in
  let on_step ~t0 ~t1 ~t2 ~t3 ~drained =
    session_ns := !session_ns + (t1 - t0);
    front_ns := !front_ns + (t2 - t1);
    drain_ns := !drain_ns + (t3 - t2);
    let ck = Broker.checkpoints_taken broker in
    Tracing.close_epoch ep ~t2 ~t3 ~checkpointed:(ck > !last_ck);
    last_ck := ck;
    Tracing.add_span sp ~t0 ~t1 ~t2 ~t3 ~drained
  in
  Tracing.reset_prims prims;
  let win = window ~on_step w broker ~rounds:half in
  restore ();
  gate_window win;
  let ckpt_us, ckpt_kb = checkpoint_cost broker in
  let qwait =
    Array.fold_left
      (fun h s -> Podopt_obs.Hist.merge h (B.Shard.queue_wait s))
      (Podopt_obs.Hist.create ()) (Broker.shards broker)
  in
  Tracing.write_spans sp ~path:spans_path;
  let ops = win.ops in
  let step_ns = !session_ns + !front_ns + !drain_ns in
  let prim name = List.find (fun p -> p.Tracing.name = name) prims in
  let layer_sum layer f =
    List.fold_left
      (fun acc p -> if p.Tracing.layer = layer then acc + Atomic.get (f p) else acc)
      0 prims
  in
  let layer_ns layer = layer_sum layer (fun p -> p.Tracing.ns) in
  let per_call name f =
    let p = prim name in
    ratio (Atomic.get (f p)) (Atomic.get p.Tracing.calls)
  in
  let prim_metrics layer names =
    List.concat_map
      (fun n ->
        [
          m (Printf.sprintf "%s.%s.ns_per_call" layer n) "ns" (per_call n (fun p -> p.Tracing.ns));
          m (Printf.sprintf "%s.%s.words_per_call" layer n) "words"
            (per_call n (fun p -> p.Tracing.words));
        ])
      names
  in
  let gc f = f win.gc1 -. f win.gc0 in
  let plain_ops_per_s = ops_per_s plain and traced_ops_per_s = ops_per_s win in
  Printf.printf "traced window: %d rounds, %d ops; untraced half %.1f ops/s, traced %.1f ops/s\n"
    win.rounds ops plain_ops_per_s traced_ops_per_s;
  Printf.printf "spans: %s (%d steps, %d dropped)\n" spans_path (Vec.length sp.Tracing.ops)
    sp.Tracing.dropped;
  let metrics =
    [
      m "session.ns_per_op" "ns/op" (ratio !session_ns ops);
      m "session.retries_per_op" "retries/op" (ratio win.clients.retries win.clients.sent);
      m "front.ns_per_op" "ns/op" (ratio !front_ns ops);
      m "front.share_pct" "%" (pct !front_ns step_ns);
      m "ingress.shed_pct" "%" (pct win.delta.shed win.delta.offered);
      m "ingress.displaced" "count" (float_of_int win.delta.displaced);
      m "ingress.qwait_p50_units" "units" (float_of_int (Podopt_obs.Hist.percentile qwait 50));
      m "ingress.qwait_p99_units" "units" (float_of_int (Podopt_obs.Hist.percentile qwait 99));
      m "drain.ns_per_op" "ns/op" (ratio !drain_ns ops);
      m "drain.share_pct" "%" (pct !drain_ns step_ns);
      m "drain.ops_per_epoch" "ops/epoch" (ratio ops (Vec.length win.steps));
      m "drain.self_ns_per_op" "ns/op"
        (ratio (!drain_ns - layer_ns "crypto" - layer_ns "xwin") ops);
      m "drain.plain_epoch_ns" "ns" (ratio ep.Tracing.plain_ns ep.Tracing.plain_epochs);
    ]
    @ prim_metrics "crypto" [ "des_encrypt"; "des_decrypt"; "xor_apply" ]
    @ [
        m "crypto.calls_per_op" "calls/op" (ratio (layer_sum "crypto" (fun p -> p.Tracing.calls)) ops);
        m "crypto.share_pct" "%" (pct (layer_ns "crypto") step_ns);
        m "xwin.x_render.ns_per_call" "ns" (per_call "x_render" (fun p -> p.Tracing.ns));
        m "xwin.x_request.ns_per_call" "ns" (per_call "x_request" (fun p -> p.Tracing.ns));
        m "xwin.share_pct" "%" (pct (layer_ns "xwin") step_ns);
        m "optimize.opt_path_pct" "%"
          (pct win.delta.optimized (win.delta.optimized + win.delta.generic));
        m "optimize.fallbacks" "count" (float_of_int win.delta.fallbacks);
        m "optimize.breaker_trips" "count" (float_of_int win.delta.breaker_trips);
        m "optimize.reoptimize_s" "s"
          (float_of_int (median (List.map (fun s -> s.reoptimize_ns) all)) /. 1e9);
        m "setup.warmup_s" "s" (float_of_int (median (List.map (fun s -> s.warmup_ns) all)) /. 1e9);
        m "exec.steals_per_epoch" "steals/epoch" (ratio win.steals win.ticks);
        m "exec.migrations" "count" (float_of_int win.migrations);
        m "exec.model_parallelism" "x" (ratio win.delta.busy win.critical_busy);
        m "exec.wall_parallelism" "x" (ratio ep.Tracing.busy_ns ep.Tracing.drain_ns);
        m "exec.sync_ns_per_epoch" "ns" (ratio ep.Tracing.sync_ns ep.Tracing.count);
        m "recover.checkpoints" "count" (float_of_int win.checkpoints);
        m "recover.recoveries" "count" (float_of_int win.recoveries);
        m "recover.redelivered" "count" (float_of_int win.redelivered);
        m "recover.ckpt_epoch_ns" "ns" (ratio ep.Tracing.ckpt_ns ep.Tracing.ckpt_epochs);
        m "recover.checkpoint_us" "us" ckpt_us;
        m "recover.checkpoint_kb" "KiB" ckpt_kb;
        m "gc.minor_collections_per_kop" "1/kop"
          (1000.0 *. float_of_int (win.gc1.Gc.minor_collections - win.gc0.Gc.minor_collections)
          /. float_of_int ops);
        m "gc.major_collections" "count"
          (float_of_int (win.gc1.Gc.major_collections - win.gc0.Gc.major_collections));
        m "gc.promoted_words_per_op" "words/op"
          (gc (fun g -> g.Gc.promoted_words) /. float_of_int ops);
        m "trace.overhead_pct" "%" (100.0 *. ((plain_ops_per_s /. traced_ops_per_s) -. 1.0));
      ]
  in
  check_outputs w ~seed c;
  (metrics, attempted c [ plain; win ], failed c [ plain; win ])

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let w = match Workloads.find (get "workload") with Some w -> w | None -> usage () in
  let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "seconds") with Some s when s > 0.0 -> s | _ -> usage ()
  in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  Printf.printf "workload %s, seed %d, %.0f s, trace %b, %d cores\n%!" w.Workloads.name seed
    seconds trace (Domain.recommended_domain_count ());
  let metrics, attempted, failed =
    try
      if trace then begin
        let dir = Filename.concat "perfbench" "out" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        per_layer w ~seed ~seconds
          ~spans_path:
            (Filename.concat dir (Printf.sprintf "spans-%s-%d.json" w.Workloads.name seed))
      end
      else end_to_end w ~seed ~seconds
    with Failure msg ->
      (* a truncated run or an inconsistent schedule: no figures to report *)
      Printf.eprintf "check failed: %s\n" msg;
      exit 1
  in
  if failed > 0 then problem "%d ops failed (client give-ups or dead letters)" failed;
  List.iter
    (fun x -> if not (Float.is_finite x.value) then problem "%s is not a number" x.name)
    metrics;
  List.iter (fun x -> Printf.printf "%-32s %16.4f %s\n" x.name x.value x.unit) metrics;
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit)
          metrics));
  exit (if correct then 0 else 1)
