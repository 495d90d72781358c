(* The broker stats table.  Same conventions as Podopt_profile.Report:
   fixed-width columns, deterministic numbers only. *)

module Hist = Podopt_obs.Hist
module Exact = Podopt_obs.Exact
module Metrics = Podopt_obs.Metrics

(* Fast-path share: optimized dispatches over all dispatches. *)
let pct opt generic =
  let total = opt + generic in
  (* 0, not 100: an idle shard has optimized nothing *)
  if total = 0 then 0.0 else 100.0 *. float_of_int opt /. float_of_int total

(* "-" for a zero-dispatch row, so idle never reads as a percentage. *)
let pct_cell opt generic =
  if opt + generic = 0 then "-" else Fmt.str "%.1f" (pct opt generic)

let pp_table ppf broker =
  let shards = Broker.shards broker in
  Fmt.pf ppf
    "%5s | %8s %8s %6s %6s | %7s %10s | %9s %8s %7s %6s | %6s %5s %5s %5s \
     | %4s %4s %7s | %10s@."
    "shard" "sessions" "ingress" "shed" "displ" "batches" "dispatched"
    "optimized" "generic" "fallbk" "opt%" "failed" "quar" "ovfl"
    "trips" "kill" "rcov" "redeliv" "busy";
  let row label ~sessions ~ingress ~shed ~displaced ~batches ~dispatched
      ~optimized ~generic ~fallbacks ~failures ~quarantined ~overflow ~trips
      ~kills ~recoveries ~redelivered ~busy =
    Fmt.pf ppf
      "%5s | %8d %8d %6d %6d | %7d %10d | %9d %8d %7d %6s | %6d %5d %5d \
       %5d | %4d %4d %7d | %10d@."
      label sessions ingress shed displaced batches dispatched optimized
      generic fallbacks
      (pct_cell optimized generic)
      failures quarantined overflow trips kills recoveries redelivered busy
  in
  Array.iter
    (fun (s : Shard.t) ->
      let ist = Ingress.stats s.Shard.ingress in
      row (string_of_int s.Shard.id) ~sessions:s.Shard.sessions
        ~ingress:ist.Ingress.offered ~shed:ist.Ingress.shed
        ~displaced:ist.Ingress.displaced
        ~batches:s.Shard.stats.Shard.batches
        ~dispatched:s.Shard.stats.Shard.dispatched
        ~optimized:(Shard.optimized_dispatches s)
        ~generic:(Shard.generic_dispatches s) ~fallbacks:(Shard.fallbacks s)
        ~failures:(Shard.handler_failures s)
        ~quarantined:s.Shard.stats.Shard.quarantined
        ~overflow:ist.Ingress.requeue_overflow
        ~trips:(Shard.breaker_trips s)
        ~kills:(Shard.recovery s).Shard.kills
        ~recoveries:(Shard.recovery s).Shard.recoveries
        ~redelivered:(Shard.recovery s).Shard.redelivered ~busy:(Shard.busy s))
    shards;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  row "total"
    ~sessions:(sum (fun s -> s.Shard.sessions))
    ~ingress:(sum (fun s -> (Ingress.stats s.Shard.ingress).Ingress.offered))
    ~shed:(sum (fun s -> (Ingress.stats s.Shard.ingress).Ingress.shed))
    ~displaced:
      (sum (fun s -> (Ingress.stats s.Shard.ingress).Ingress.displaced))
    ~batches:(sum (fun s -> s.Shard.stats.Shard.batches))
    ~dispatched:(sum (fun s -> s.Shard.stats.Shard.dispatched))
    ~optimized:(sum Shard.optimized_dispatches)
    ~generic:(sum Shard.generic_dispatches)
    ~fallbacks:(sum Shard.fallbacks)
    ~failures:(sum Shard.handler_failures)
    ~quarantined:(sum (fun s -> s.Shard.stats.Shard.quarantined))
    ~overflow:
      (sum (fun s -> (Ingress.stats s.Shard.ingress).Ingress.requeue_overflow))
    ~trips:(sum Shard.breaker_trips)
    ~kills:(sum (fun s -> (Shard.recovery s).Shard.kills))
    ~recoveries:(sum (fun s -> (Shard.recovery s).Shard.recoveries))
    ~redelivered:(sum (fun s -> (Shard.recovery s).Shard.redelivered))
    ~busy:(sum Shard.busy);
  Fmt.pf ppf "front: %d link-dropped, %d decode-failed@."
    (Broker.link_dropped broker)
    (Broker.decode_failures broker)

(* One line per shard from Shard.snapshot — the record the parallel
   determinism suite compares, printed for diffable diagnostics. *)
let pp_snapshots ppf broker =
  Array.iter
    (fun s -> Fmt.pf ppf "%a@." Shard.pp_snapshot (Shard.snapshot s))
    (Broker.shards broker)

(* --- Latency metrics ------------------------------------------------- *)

let merged_metrics broker =
  Metrics.merge_all
    (Array.to_list
       (Array.map (fun s -> s.Shard.metrics) (Broker.shards broker)))

let dist_cell h =
  if Hist.count h = 0 then "-" else Fmt.str "%a" Hist.pp_dist (Hist.dist h)

(* The Exact (full-resolution) cells render the same p50/p90/p99/max
   shape as the log-bucketed ones. *)
let dist_cell_e h =
  if Exact.count h = 0 then "-" else Fmt.str "%a" Hist.pp_dist (Exact.dist h)

(* Per-shard + total latency percentiles, then the per-event dispatch
   distributions from the merged registries.  Queue wait is front-clock
   units (arrival to drain), service time shard-clock units per op split
   by dispatch path. *)
let pp_metrics ppf broker =
  Fmt.pf ppf "latency percentiles (p50/p90/p99/max, virtual units):@.";
  Fmt.pf ppf "%5s | %25s | %25s | %25s@." "shard" "queue-wait" "service-opt"
    "service-gen";
  let row label ~qwait ~svc_opt ~svc_gen =
    Fmt.pf ppf "%5s | %25s | %25s | %25s@." label (dist_cell qwait)
      (dist_cell_e svc_opt) (dist_cell_e svc_gen)
  in
  Array.iter
    (fun (s : Shard.t) ->
      row (string_of_int s.Shard.id) ~qwait:(Shard.queue_wait s)
        ~svc_opt:(Shard.service_opt s) ~svc_gen:(Shard.service_gen s))
    (Broker.shards broker);
  let merged = merged_metrics broker in
  row "total"
    ~qwait:(Metrics.histogram merged "queue_wait")
    ~svc_opt:(Metrics.exact merged "service.optimized")
    ~svc_gen:(Metrics.exact merged "service.generic");
  Fmt.pf ppf "@.dispatch time by event (all shards):@.";
  Fmt.pf ppf "%16s | %7s | %25s@." "event" "count" "p50/p90/p99/max";
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Histogram h when String.length name > 9
                                 && String.sub name 0 9 = "dispatch." ->
        Fmt.pf ppf "%16s | %7d | %25s@."
          (String.sub name 9 (String.length name - 9))
          (Hist.count h) (dist_cell h)
      | _ -> ())
    (Metrics.to_list merged)

(* --- JSON ------------------------------------------------------------- *)

(* Deliberately omits the domain count: the document is the virtual
   result of a configuration, identical bytes at any --domains (the
   property the determinism suite asserts on this very string). *)
let json ?(metrics = false) broker (s : Loadgen.summary) =
  let cfg = Broker.config broker in
  let b = Buffer.create 4096 in
  let dist_of name count (d : Hist.dist) =
    Printf.sprintf
      "\"%s\": {\"count\": %d, \"p50\": %d, \"p90\": %d, \"p99\": %d, \
       \"max\": %d}"
      name count d.Hist.p50 d.Hist.p90 d.Hist.p99 d.Hist.max
  in
  let dist name h = dist_of name (Hist.count h) (Hist.dist h) in
  let dist_e name h = dist_of name (Exact.count h) (Exact.dist h) in
  let hists m =
    Printf.sprintf "%s, %s, %s"
      (dist "queue_wait" (Metrics.histogram m "queue_wait"))
      (dist_e "service_opt" (Metrics.exact m "service.optimized"))
      (dist_e "service_gen" (Metrics.exact m "service.generic"))
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"podopt/serve/v9\",\n";
  Printf.bprintf b
    "  \"workload\": %S, \"arrivals\": %S, \"shards\": %d, \"batch\": %d, \
     \"queue_limit\": %d, \"policy\": %S, \"optimize\": %b, \"seed\": %Ld, \
     \"tick\": %d,\n"
    (Workload.kind_to_string cfg.Broker.kind)
    (Arrivals.to_string cfg.Broker.arrivals)
    cfg.Broker.shards cfg.Broker.batch cfg.Broker.queue_limit
    (Policy.shed_to_string cfg.Broker.policy)
    cfg.Broker.optimize cfg.Broker.seed cfg.Broker.tick;
  Printf.bprintf b
    "  \"warm_start\": %b, \"warm_installed\": %d, \"warm_stale\": %d,\n"
    (Broker.warm_start broker)
    (Broker.warm_installed broker)
    (Broker.warm_stale broker);
  Printf.bprintf b
    "  \"supervised\": %b, \"checkpoint_every\": %d,\n"
    (Broker.supervised broker) cfg.Broker.checkpoint_every;
  Printf.bprintf b
    "  \"recovery\": {\"kills\": %d, \"recoveries\": %d, \"redelivered\": %d, \
     \"checkpoints\": %d, \"ramp_optimized\": %d, \"ramp_generic\": %d},\n"
    s.Loadgen.kills s.Loadgen.recoveries s.Loadgen.redelivered
    s.Loadgen.checkpoints s.Loadgen.ramp_optimized s.Loadgen.ramp_generic;
  Printf.bprintf b
    "  \"summary\": {\"sent\": %d, \"retries\": %d, \"nacks\": %d, \
     \"gave_up\": %d, \"routed\": %d, \"shed\": %d, \"dispatched\": %d, \
     \"batches\": %d, \"optimized\": %d, \"generic\": %d, \
     \"fallbacks\": %d, \"failures\": %d, \"requeued\": %d, \
     \"quarantined\": %d, \"breaker_trips\": %d, \"link_dropped\": %d, \
     \"decode_failures\": %d, \"first_epoch_optimized\": %d, \
     \"first_epoch_generic\": %d, \"busy\": %d, \"makespan\": %d, \
     \"elapsed\": %d, \"truncated\": %b, \"opt_pct\": %.1f,\n"
    s.Loadgen.sent s.Loadgen.retries s.Loadgen.nacks s.Loadgen.gave_up
    s.Loadgen.routed s.Loadgen.shed s.Loadgen.dispatched s.Loadgen.batches
    s.Loadgen.optimized s.Loadgen.generic
    s.Loadgen.fallbacks s.Loadgen.failures s.Loadgen.requeued
    s.Loadgen.quarantined s.Loadgen.breaker_trips s.Loadgen.link_dropped
    s.Loadgen.decode_failures s.Loadgen.first_epoch_optimized
    s.Loadgen.first_epoch_generic s.Loadgen.busy s.Loadgen.makespan
    s.Loadgen.elapsed s.Loadgen.truncated (Loadgen.opt_pct s);
  let merged = merged_metrics broker in
  Printf.bprintf b "    \"latency\": {%s}},\n" (hists merged);
  Buffer.add_string b "  \"shards\": [\n";
  let shards = Broker.shards broker in
  Array.iteri
    (fun i (sh : Shard.t) ->
      let ist = Ingress.stats sh.Shard.ingress in
      Printf.bprintf b
        "    {\"id\": %d, \"sessions\": %d, \"offered\": %d, \"shed\": %d, \
         \"dispatched\": %d, \"optimized\": %d, \"generic\": %d, \
         \"failures\": %d, \"requeued\": %d, \
         \"requeue_overflow\": %d, \"quarantined\": %d, \
         \"breaker_trips\": %d, \"kills\": %d, \"recoveries\": %d, \
         \"redelivered\": %d, \"checkpoints\": %d, \"busy\": %d, %s}%s\n"
        sh.Shard.id sh.Shard.sessions ist.Ingress.offered ist.Ingress.shed
        sh.Shard.stats.Shard.dispatched
        (Shard.optimized_dispatches sh)
        (Shard.generic_dispatches sh)
        (Shard.handler_failures sh)
        sh.Shard.stats.Shard.requeued ist.Ingress.requeue_overflow
        sh.Shard.stats.Shard.quarantined (Shard.breaker_trips sh)
        (Shard.recovery sh).Shard.kills (Shard.recovery sh).Shard.recoveries
        (Shard.recovery sh).Shard.redelivered
        (Shard.recovery sh).Shard.checkpoints (Shard.busy sh)
        (hists sh.Shard.metrics)
        (if i = Array.length shards - 1 then "" else ","))
    shards;
  Buffer.add_string b "  ]";
  if metrics then begin
    Buffer.add_string b ",\n  \"events\": [\n";
    let events =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Metrics.Histogram h
            when String.length name > 9 && String.sub name 0 9 = "dispatch." ->
            Some (String.sub name 9 (String.length name - 9), h)
          | _ -> None)
        (Metrics.to_list merged)
    in
    let n = List.length events in
    List.iteri
      (fun i (name, h) ->
        let d = Hist.dist h in
        Printf.bprintf b
          "    {\"event\": %S, \"count\": %d, \"p50\": %d, \"p90\": %d, \
           \"p99\": %d, \"max\": %d}%s\n"
          name (Hist.count h) d.Hist.p50 d.Hist.p90 d.Hist.p99 d.Hist.max
          (if i = n - 1 then "" else ","))
      events;
    Buffer.add_string b "  ]"
  end;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let pp_summary ppf (s : Loadgen.summary) =
  Fmt.pf ppf
    "clients: %d sent, %d retries, %d nacks, %d gave up@.totals: %d dispatched, \
     %d shed, opt-path %.1f%%, handler time %d units (makespan %d, elapsed %d)@.\
     faults: %d failures, %d requeued, %d quarantined, %d breaker trips, %d \
     link-dropped, %d decode-failed@."
    s.Loadgen.sent s.Loadgen.retries s.Loadgen.nacks s.Loadgen.gave_up
    s.Loadgen.dispatched s.Loadgen.shed (Loadgen.opt_pct s) s.Loadgen.busy
    s.Loadgen.makespan s.Loadgen.elapsed s.Loadgen.failures s.Loadgen.requeued
    s.Loadgen.quarantined s.Loadgen.breaker_trips s.Loadgen.link_dropped
    s.Loadgen.decode_failures;
  if s.Loadgen.kills > 0 || s.Loadgen.recoveries > 0 then
    Fmt.pf ppf
      "recovery: %d kills, %d recoveries, %d redelivered, %d checkpoints, ramp \
       %d optimized / %d generic@."
      s.Loadgen.kills s.Loadgen.recoveries s.Loadgen.redelivered
      s.Loadgen.checkpoints s.Loadgen.ramp_optimized s.Loadgen.ramp_generic;
  if s.Loadgen.truncated then
    Fmt.pf ppf
      "WARNING: run truncated at the tick budget before completing; the \
       numbers above describe an unfinished run@."
