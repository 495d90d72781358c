(* lib/obs tests: log-bucketed histogram boundaries and percentile
   semantics, the metrics registry's per-kind merge rules, qcheck
   properties that merge is associative/commutative/order-independent,
   and the end-to-end determinism surface: serve's JSON document
   (schema v3, latency histograms included) must be byte-identical at
   --domains 1 and --domains 4. *)

module Hist = Podopt_obs.Hist
module Metrics = Podopt_obs.Metrics
module B = Podopt_broker

(* --- histogram: buckets ------------------------------------------------- *)

let test_bucket_boundaries () =
  let check_bucket v b =
    Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Hist.bucket_of v)
  in
  (* bucket 0 = {0}; bucket i >= 1 = [2^(i-1) .. 2^i - 1] *)
  check_bucket 0 0;
  check_bucket (-5) 0;            (* negatives clamp to 0 *)
  check_bucket 1 1;
  check_bucket 2 2;
  check_bucket 3 2;
  check_bucket 4 3;
  check_bucket 7 3;
  check_bucket 8 4;
  check_bucket 1023 10;
  check_bucket 1024 11;
  check_bucket max_int (Hist.buckets - 1);  (* clamped to the top bucket *)
  let check_ub b v =
    Alcotest.(check int) (Printf.sprintf "upper_bound %d" b) v
      (Hist.upper_bound b)
  in
  check_ub 0 0;
  check_ub 1 1;
  check_ub 2 3;
  check_ub 3 7;
  check_ub 10 1023;
  (* every representable value lands in the bucket whose range holds it *)
  List.iter
    (fun v ->
      let b = Hist.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "%d within bucket %d bounds" v b)
        true
        (v <= Hist.upper_bound b && (b = 0 || v > Hist.upper_bound (b - 1))))
    [ 0; 1; 2; 3; 5; 17; 100; 4096; 1_000_000 ]

let test_observe_accounting () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  List.iter (Hist.observe h) [ 0; 1; 5; 5; 1000; -3 ];
  Alcotest.(check int) "count" 6 (Hist.count h);
  (* -3 clamps to 0, so the sum sees it as 0 *)
  Alcotest.(check int) "sum" 1011 (Hist.sum h);
  Alcotest.(check int) "max" 1000 (Hist.max_value h);
  Alcotest.(check int) "mean rounds down" 168 (Hist.mean h);
  Alcotest.(check int) "bucket 0 holds the two zeros" 2 (Hist.bucket_count h 0);
  Alcotest.(check int) "bucket 3 holds both fives" 2 (Hist.bucket_count h 3);
  Alcotest.(check (list (pair int int)))
    "nonzero buckets ascending"
    [ (0, 2); (1, 1); (3, 2); (10, 1) ]
    (Hist.nonzero h)

(* --- histogram: percentiles --------------------------------------------- *)

let test_percentile_semantics () =
  let h = Hist.create () in
  Alcotest.(check int) "empty percentile is 0" 0 (Hist.percentile h 99);
  Hist.observe h 5;
  (* a single observation answers every percentile, clamped to the
     observed max (5), not bucket 3's upper bound (7) *)
  Alcotest.(check int) "p0 of singleton" 5 (Hist.percentile h 0);
  Alcotest.(check int) "p50 of singleton" 5 (Hist.percentile h 50);
  Alcotest.(check int) "p100 of singleton" 5 (Hist.percentile h 100);
  let h2 = Hist.create () in
  for _ = 1 to 9 do Hist.observe h2 1 done;
  Hist.observe h2 1000;
  (* rank ceil(50*10/100) = 5 -> the ones; rank 10 -> the outlier,
     reported as min(bucket upper bound 1023, observed max 1000) *)
  Alcotest.(check int) "p50 in the ones" 1 (Hist.percentile h2 50);
  Alcotest.(check int) "p99 clamps to observed max" 1000
    (Hist.percentile h2 99);
  let d = Hist.dist h2 in
  Alcotest.(check int) "dist.p50" 1 d.Hist.p50;
  Alcotest.(check int) "dist.max" 1000 d.Hist.max;
  Alcotest.check_raises "percentile 101 rejected"
    (Invalid_argument "Hist.percentile: p out of 0..100") (fun () ->
      ignore (Hist.percentile h2 101))

let test_merge_unit () =
  let a = Hist.create () and b = Hist.create () and all = Hist.create () in
  List.iter (Hist.observe a) [ 1; 5; 9 ];
  List.iter (Hist.observe b) [ 0; 1000 ];
  List.iter (Hist.observe all) [ 1; 5; 9; 0; 1000 ];
  let m = Hist.merge a b in
  Alcotest.(check bool) "merge = feeding all observations" true
    (Hist.equal m all);
  Alcotest.(check int) "merge count" 5 (Hist.count m);
  Alcotest.(check int) "merge max" 1000 (Hist.max_value m);
  Alcotest.(check int) "left argument untouched" 3 (Hist.count a);
  let dst = Hist.copy a in
  Hist.merge_into ~dst b;
  Alcotest.(check bool) "merge_into matches merge" true (Hist.equal dst m);
  Hist.reset dst;
  Alcotest.(check int) "reset empties" 0 (Hist.count dst);
  Alcotest.(check int) "reset clears max" 0 (Hist.max_value dst)

(* --- metrics registry --------------------------------------------------- *)

let test_registry_basics () =
  let m = Metrics.create () in
  Metrics.add m "ops" 3;
  Metrics.add m "ops" 2;
  Metrics.set_gauge m "depth" 7;
  Metrics.observe m "wait" 5;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter m "ops");
  Alcotest.(check int) "gauge reads back" 7 (Metrics.gauge m "depth");
  Alcotest.(check int) "absent counter is 0" 0 (Metrics.counter m "nope");
  Alcotest.(check int) "histogram handle is live" 1
    (Hist.count (Metrics.histogram m "wait"));
  Alcotest.(check (list string))
    "to_list sorted by name"
    [ "depth"; "ops"; "wait" ]
    (List.map fst (Metrics.to_list m));
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: ops already exists with another kind")
    (fun () -> Metrics.observe m "ops" 1)

let test_registry_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "ops" 3;
  Metrics.add b "ops" 4;
  Metrics.set_gauge a "depth" 9;
  Metrics.set_gauge b "depth" 2;
  Metrics.observe a "wait" 1;
  Metrics.observe b "wait" 1000;
  Metrics.add b "only_b" 1;
  let m = Metrics.merge a b in
  Alcotest.(check int) "counters add" 7 (Metrics.counter m "ops");
  Alcotest.(check int) "gauges take the max" 9 (Metrics.gauge m "depth");
  Alcotest.(check int) "one-sided counter survives" 1
    (Metrics.counter m "only_b");
  Alcotest.(check int) "histograms merge" 2
    (Hist.count (Metrics.histogram m "wait"));
  Alcotest.(check int) "merged hist max" 1000
    (Hist.max_value (Metrics.histogram m "wait"));
  Alcotest.(check int) "arguments untouched" 3 (Metrics.counter a "ops");
  Metrics.reset m;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter m "ops");
  Alcotest.(check (list string))
    "names survive reset"
    [ "depth"; "only_b"; "ops"; "wait" ]
    (List.map fst (Metrics.to_list m))

(* --- qcheck: merge is associative, commutative, order-independent ------- *)

let hist_of xs =
  let h = Hist.create () in
  List.iter (Hist.observe h) xs;
  h

let obs_gen = QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 100_000))

let prop_merge_assoc_comm =
  QCheck2.Test.make ~name:"hist merge is associative and commutative"
    ~count:100
    ~print:(fun (a, b, c) ->
      Printf.sprintf "a=%d obs, b=%d obs, c=%d obs" (List.length a)
        (List.length b) (List.length c))
    QCheck2.Gen.(tup3 obs_gen obs_gen obs_gen)
    (fun (xa, xb, xc) ->
      let a = hist_of xa and b = hist_of xb and c = hist_of xc in
      Hist.equal (Hist.merge a (Hist.merge b c)) (Hist.merge (Hist.merge a b) c)
      && Hist.equal (Hist.merge a b) (Hist.merge b a))

let prop_order_independent =
  QCheck2.Test.make
    ~name:"hist is independent of observation order" ~count:100
    ~print:(fun xs -> Printf.sprintf "%d obs" (List.length xs))
    obs_gen
    (fun xs ->
      Hist.equal (hist_of xs) (hist_of (List.rev xs))
      && Hist.equal (hist_of xs) (hist_of (List.sort compare xs)))

(* --- serve JSON: byte-identical across domain counts -------------------- *)

let test_json_identical_across_domains () =
  let doc ~domains =
    let cfg =
      { B.Broker.default_config with shards = 4; seed = 11L; domains }
    in
    let broker = B.Broker.create cfg in
    Fun.protect
      ~finally:(fun () -> B.Broker.shutdown broker)
      (fun () ->
        let profile =
          {
            B.Loadgen.default_profile with
            B.Loadgen.sessions = 10;
            ops = 8;
            interval = 120;
            spread = 31;
          }
        in
        let s = B.Loadgen.steady ~warmup_ops:6 broker profile in
        B.Report.json ~metrics:true broker s)
  in
  let seq = doc ~domains:1 in
  Alcotest.(check bool) "schema v9" true
    (Astring_contains.contains seq "\"schema\": \"podopt/serve/v9\"");
  Alcotest.(check bool) "latency percentiles present" true
    (Astring_contains.contains seq "\"queue_wait\"");
  Alcotest.(check string) "JSON byte-identical at --domains 4" seq
    (doc ~domains:4)

let suite =
  [
    Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "observe accounting" `Quick test_observe_accounting;
    Alcotest.test_case "percentile semantics" `Quick test_percentile_semantics;
    Alcotest.test_case "merge combines exactly" `Quick test_merge_unit;
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "registry merge rules" `Quick test_registry_merge;
    Alcotest.test_case "serve JSON identical across domains" `Quick
      test_json_identical_across_domains;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_merge_assoc_comm; prop_order_independent ]
