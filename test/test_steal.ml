(* The parallel drain's shared run-queue and its determinism contract.

   Unit cases pin the route codec and the Zipf router's shape; the
   properties are the load-bearing part: (a) the exec primitives the
   drain is built from (Chan under concurrent producers, Barrier round
   reuse) neither lose nor duplicate under real domain interleavings,
   and (b) the whole broker's observable output — serve document,
   per-shard snapshots, run summary — is byte-identical to the
   sequential run at random Zipf skews and domain counts.  That last
   property is the invariant: which worker claims a shard is
   scheduling, never semantics. *)

module B = Podopt_broker
module Chan = Podopt_exec.Chan
module Barrier = Podopt_exec.Barrier

(* --- route codec and router shape -------------------------------------- *)

let test_route_codec () =
  let ok s r =
    match B.Shard_map.route_of_string s with
    | Ok r' ->
      Alcotest.(check bool) (s ^ " parses") true (r = r');
      Alcotest.(check string)
        (s ^ " round-trips")
        s
        (B.Shard_map.route_to_string r')
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "hash" B.Shard_map.Hash;
  ok "zipf:1.5" (B.Shard_map.Zipf 1.5);
  ok "zipf:0.75" (B.Shard_map.Zipf 0.75);
  List.iter
    (fun bad ->
      match B.Shard_map.route_of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [ "zipf"; "zipf:"; "zipf:0"; "zipf:-1"; "zipf:nan"; "zipf:inf"; "lru"; "" ]

let test_zipf_routing_shape () =
  let shards = 4 in
  let route = B.Shard_map.Zipf 1.2 in
  let counts = Array.make shards 0 in
  for i = 0 to 999 do
    let id = Printf.sprintf "s%03d" i in
    let s = B.Shard_map.route_shard ~route ~shards id in
    Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
    Alcotest.(check int) "stateless and deterministic" s
      (B.Shard_map.route_shard ~route ~shards id);
    counts.(s) <- counts.(s) + 1
  done;
  (* rank order: shard 0 hottest, monotone decreasing pressure.  1000
     draws give enough mass that strict rank inversions would be a
     router bug, not noise. *)
  for s = 0 to shards - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d hotter than shard %d" s (s + 1))
      true
      (counts.(s) > counts.(s + 1))
  done;
  (* hash routing must not be skewed toward shard 0 like that *)
  let hcounts = Array.make shards 0 in
  for i = 0 to 999 do
    let id = Printf.sprintf "s%03d" i in
    let s = B.Shard_map.route_shard ~route:B.Shard_map.Hash ~shards id in
    hcounts.(s) <- hcounts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Printf.sprintf "hash shard %d near uniform" s)
        true
        (c > 150 && c < 350))
    hcounts

(* --- property: chan under concurrent producers ------------------------- *)

let prop_chan_interleaving =
  (* N producer domains push disjoint ranges through one small chan
     while the test domain consumes: whatever the interleaving, every
     item arrives exactly once and each producer's items stay in
     order.  This is the primitive the pool's epoch handoff rides on. *)
  let gen =
    QCheck2.Gen.(tup3 (int_range 2 4) (int_range 1 40) (int_range 1 4))
  in
  let print (producers, per_producer, capacity) =
    Printf.sprintf "producers=%d per_producer=%d capacity=%d" producers
      per_producer capacity
  in
  QCheck2.Test.make ~name:"chan: concurrent producers lose and duplicate nothing"
    ~count:25 ~print gen (fun (producers, per_producer, capacity) ->
      let c = Chan.create ~capacity in
      let remaining = Atomic.make producers in
      let doms =
        List.init producers (fun p ->
            Domain.spawn (fun () ->
                for i = 0 to per_producer - 1 do
                  Chan.push c ((p * per_producer) + i)
                done;
                (* last producer out closes the chan *)
                if Atomic.fetch_and_add remaining (-1) = 1 then Chan.close c))
      in
      let seen = Array.make (producers * per_producer) 0 in
      let last = Array.make producers (-1) in
      let in_order = ref true in
      let rec drain () =
        match Chan.pop c with
        | Some v ->
          seen.(v) <- seen.(v) + 1;
          let p = v / per_producer in
          if v mod per_producer <= last.(p) then in_order := false;
          last.(p) <- v mod per_producer;
          drain ()
        | None -> ()
      in
      drain ();
      List.iter Domain.join doms;
      !in_order && Array.for_all (fun n -> n = 1) seen)

(* --- property: barrier round reuse ------------------------------------- *)

let prop_barrier_rounds =
  (* one cyclic barrier, many rounds, every party a real domain: after
     R rounds each party has seen exactly R releases and the barrier's
     round counter agrees.  A lost wakeup or round leak wedges or
     miscounts. *)
  let gen = QCheck2.Gen.(tup2 (int_range 2 4) (int_range 1 25)) in
  let print (parties, rounds) =
    Printf.sprintf "parties=%d rounds=%d" parties rounds
  in
  QCheck2.Test.make ~name:"barrier: reused across rounds without leaks"
    ~count:25 ~print gen (fun (parties, rounds) ->
      let b = Barrier.create ~parties in
      let counts = Array.make parties 0 in
      let doms =
        List.init parties (fun p ->
            Domain.spawn (fun () ->
                for _ = 1 to rounds do
                  Barrier.await b;
                  counts.(p) <- counts.(p) + 1
                done))
      in
      List.iter Domain.join doms;
      Barrier.rounds b = rounds && Array.for_all (fun c -> c = rounds) counts)

(* --- property: parallel = sequential byte-identity ---------------------- *)

let serve_doc ~route ~domains ~seed profile =
  let cfg =
    {
      B.Broker.default_config with
      B.Broker.shards = 6;
      kind = B.Workload.Seccomm;
      optimize = true;
      queue_limit = 256;
      seed;
      domains;
      route;
    }
  in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      let summary = B.Loadgen.steady ~warmup_ops:4 broker profile in
      let json = B.Report.json ~metrics:false broker summary in
      let snapshots = Fmt.str "%a" B.Report.pp_snapshots broker in
      (json, snapshots, summary))

let prop_parallel_identity =
  (* random Zipf skew, domain count, seed and load shape: the serve
     document, snapshot report and summary of the parallel drain equal
     the sequential run's byte for byte *)
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 2 4) (int_range 1 99)
        (oneof [ return None; map Option.some (int_range 1 10) ])
        (tup2 (int_range 2 6) (int_range 2 6)))
  in
  let print (domains, seed, skew, (sessions, ops)) =
    Printf.sprintf "domains=%d seed=%d route=%s sessions=%d ops=%d" domains
      seed
      (match skew with
      | None -> "hash"
      | Some q -> Printf.sprintf "zipf:%g" (float_of_int q /. 4.0))
      sessions ops
  in
  QCheck2.Test.make
    ~name:"any zipf skew and domain count: parallel = sequential"
    ~count:15 ~print gen (fun (domains, seed, skew, (sessions, ops)) ->
      let route =
        match skew with
        | None -> B.Shard_map.Hash
        | Some q -> B.Shard_map.Zipf (float_of_int q /. 4.0)
      in
      let profile =
        {
          B.Loadgen.default_profile with
          B.Loadgen.sessions;
          ops;
          interval = 90;
          spread = 31;
        }
      in
      let run domains =
        serve_doc ~route ~domains ~seed:(Int64.of_int seed) profile
      in
      let j_seq, s_seq, sum_seq = run 1 in
      let j_par, s_par, sum_par = run domains in
      String.equal j_par j_seq && String.equal s_par s_seq && sum_par = sum_seq)

let suite =
  [
    Alcotest.test_case "route codec" `Quick test_route_codec;
    Alcotest.test_case "zipf router: rank-ordered heat, hash uniform" `Quick
      test_zipf_routing_shape;
    QCheck_alcotest.to_alcotest prop_chan_interleaving;
    QCheck_alcotest.to_alcotest prop_barrier_rounds;
    QCheck_alcotest.to_alcotest prop_parallel_identity;
  ]
