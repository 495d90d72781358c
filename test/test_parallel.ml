(* Parallel-drain determinism: running the broker on worker domains
   must be invisible in the results.  For every config we run the same
   workload sequentially (domains = 1) and in parallel and require (a)
   the run summary and (b) the per-shard snapshot report — every
   counter, queue stat, and per-shard virtual clock — to be
   byte-identical.  That is the contract the exactly-once shard claims
   and the route/drain epoch barrier exist to keep. *)

module B = Podopt_broker

type outcome = { summary : B.Loadgen.summary; snapshots : string }

let run_once ?(warmup_ops = 6) ~domains ~shards ~kind ~optimize ?(batch = 16)
    ?(queue_limit = 256) ?(policy = B.Policy.Drop_newest) ?(seed = 11L) profile
    =
  let cfg =
    {
      B.Broker.default_config with
      B.Broker.shards;
      kind;
      optimize;
      batch;
      queue_limit;
      policy;
      seed;
      domains;
    }
  in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      let summary = B.Loadgen.steady ~warmup_ops broker profile in
      let snapshots = Fmt.str "%a" B.Report.pp_snapshots broker in
      { summary; snapshots })

let check_matches_sequential ~msg ~domains run =
  let seq = run ~domains:1 in
  let par = run ~domains in
  Alcotest.(check string)
    (msg ^ ": per-shard snapshots byte-identical")
    seq.snapshots par.snapshots;
  Alcotest.(check bool)
    (msg ^ ": run summary identical")
    true
    (seq.summary = par.summary)

let profile ~sessions ~ops =
  {
    B.Loadgen.default_profile with
    B.Loadgen.sessions;
    ops;
    interval = 120;
    spread = 31;
  }

(* --- unit cases -------------------------------------------------------- *)

let test_seccomm_optimized () =
  let run ~domains =
    run_once ~domains ~shards:4 ~kind:B.Workload.Seccomm ~optimize:true
      (profile ~sessions:10 ~ops:8)
  in
  List.iter
    (fun domains ->
      check_matches_sequential
        ~msg:(Printf.sprintf "seccomm optimized, %d domains" domains)
        ~domains run)
    [ 2; 4 ]

let test_video_generic () =
  let run ~domains =
    run_once ~domains ~shards:3 ~kind:B.Workload.Video ~optimize:false
      { (profile ~sessions:4 ~ops:3) with B.Loadgen.interval = 400 }
  in
  check_matches_sequential ~msg:"video generic, 2 domains" ~domains:2 run

let test_shards_exceed_domains () =
  (* 8 shards on 3 domains: more shards than workers, so workers claim
     several shards each, in whatever order the race gives them — each
     shard's results must still match the sequential scan *)
  let run ~domains =
    run_once ~domains ~shards:8 ~kind:B.Workload.Seccomm ~optimize:true
      (profile ~sessions:12 ~ops:6)
  in
  check_matches_sequential ~msg:"8 shards on 3 domains" ~domains:3 run

let test_overload_parallel () =
  (* overload: shedding, nacks, retries, give-ups — all of it decided
     during routing on the coordinator, so 4 domains must replay the
     sequential run exactly even when queues are thrashing *)
  let run ~domains =
    run_once ~domains ~shards:4 ~kind:B.Workload.Seccomm ~optimize:false
      ~batch:1 ~queue_limit:2 ~policy:B.Policy.Drop_oldest ~warmup_ops:0
      {
        (profile ~sessions:12 ~ops:10) with
        B.Loadgen.interval = 60;
        spread = 11;
      }
  in
  let seq = run ~domains:1 in
  (* Drop_oldest accepts every arrival and evicts queue heads, so the
     overload pressure surfaces as displacements rather than door-sheds *)
  Alcotest.(check bool)
    "overload profile actually displaces" true
    (seq.summary.B.Loadgen.displaced > 0);
  check_matches_sequential ~msg:"overload, 4 domains" ~domains:4 run

let test_domains_invalid () =
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Broker.create: domains <= 0") (fun () ->
      ignore
        (B.Broker.create { B.Broker.default_config with B.Broker.domains = 0 }))

let test_parallel_flag () =
  let mk domains =
    B.Broker.create { B.Broker.default_config with B.Broker.domains }
  in
  let seq = mk 1 in
  Alcotest.(check bool) "1 domain is sequential" false (B.Broker.parallel seq);
  B.Broker.shutdown seq;
  let par = mk 2 in
  Alcotest.(check bool) "2 domains is parallel" true (B.Broker.parallel par);
  Alcotest.(check int) "domains accessor" 2 (B.Broker.domains par);
  B.Broker.shutdown par

(* --- property: random configs ----------------------------------------- *)

let prop_parallel_deterministic =
  (* small random configs: domains in {2,3,4}, shards 1..6 (often more
     shards than domains), both workloads, optimizer on or off, random
     seed and load shape — always equal to the 1-domain run *)
  let gen =
    QCheck2.Gen.(
      tup2
        (tup4 (int_range 2 4) (int_range 1 6) bool bool)
        (tup4 (int_range 1 99) (int_range 2 5) (int_range 2 4)
           (int_range 1 8)))
  in
  let print ((domains, shards, optimize, seccomm), (seed, sessions, ops, batch))
      =
    Printf.sprintf
      "domains=%d shards=%d optimize=%b seccomm=%b seed=%d sessions=%d ops=%d \
       batch=%d"
      domains shards optimize seccomm seed sessions ops batch
  in
  QCheck2.Test.make
    ~name:"any config: parallel drain result = sequential result" ~count:20
    ~print gen
    (fun ((domains, shards, optimize, seccomm), (seed, sessions, ops, batch)) ->
      let kind = if seccomm then B.Workload.Seccomm else B.Workload.Video in
      let run ~domains =
        run_once ~domains ~shards ~kind ~optimize ~batch
          ~seed:(Int64.of_int seed) ~warmup_ops:4
          (profile ~sessions ~ops)
      in
      let seq = run ~domains:1 in
      let par = run ~domains in
      seq.snapshots = par.snapshots && seq.summary = par.summary)

let suite =
  [
    Alcotest.test_case "seccomm optimized: 2 and 4 domains" `Quick
      test_seccomm_optimized;
    Alcotest.test_case "video generic: 2 domains" `Quick test_video_generic;
    Alcotest.test_case "8 shards on 3 domains" `Quick
      test_shards_exceed_domains;
    Alcotest.test_case "overload under 4 domains" `Quick
      test_overload_parallel;
    Alcotest.test_case "domains must be positive" `Quick test_domains_invalid;
    Alcotest.test_case "parallel/domains accessors" `Quick test_parallel_flag;
    QCheck_alcotest.to_alcotest prop_parallel_deterministic;
  ]
