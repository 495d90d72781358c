(* lib/exec tests: the bounded MPSC channel, the reusable round
   barrier, and the fixed domain pool the parallel broker drains on.
   Cross-domain cases use real Domain.spawn so the mutex/condvar
   handoff is exercised, not just the single-domain fast paths. *)

module Chan = Podopt_exec.Chan
module Barrier = Podopt_exec.Barrier
module Pool = Podopt_exec.Pool

(* --- chan -------------------------------------------------------------- *)

let test_chan_fifo () =
  let c = Chan.create ~capacity:4 in
  Alcotest.(check bool) "push 1" true (Chan.try_push c 1);
  Alcotest.(check bool) "push 2" true (Chan.try_push c 2);
  Alcotest.(check bool) "push 3" true (Chan.try_push c 3);
  Alcotest.(check int) "length" 3 (Chan.length c);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Chan.try_pop c);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Chan.try_pop c);
  Alcotest.(check bool) "push 4" true (Chan.try_push c 4);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Chan.try_pop c);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Chan.try_pop c);
  Alcotest.(check (option int)) "empty" None (Chan.try_pop c)

let test_chan_bounds () =
  let c = Chan.create ~capacity:2 in
  Alcotest.(check bool) "slot 1" true (Chan.try_push c 1);
  Alcotest.(check bool) "slot 2" true (Chan.try_push c 2);
  Alcotest.(check bool) "full" false (Chan.try_push c 3);
  ignore (Chan.try_pop c);
  Alcotest.(check bool) "slot freed" true (Chan.try_push c 3);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Chan.create: capacity <= 0") (fun () ->
      ignore (Chan.create ~capacity:0))

let test_chan_close () =
  let c = Chan.create ~capacity:2 in
  ignore (Chan.try_push c 1);
  Chan.close c;
  Chan.close c (* idempotent *);
  Alcotest.(check bool) "is_closed" true (Chan.is_closed c);
  Alcotest.check_raises "push after close" Chan.Closed (fun () ->
      Chan.push c 2);
  (* try_push is the non-blocking probe: on a closed chan it reports
     "no" rather than raising, so shutdown races stay exception-free *)
  Alcotest.(check bool) "try_push after close" false (Chan.try_push c 2);
  Alcotest.(check int) "rejected push left no trace" 1 (Chan.length c);
  Alcotest.(check (option int)) "drains" (Some 1) (Chan.pop c);
  Alcotest.(check (option int)) "then None" None (Chan.pop c);
  Alcotest.(check bool) "try_push on drained closed chan" false
    (Chan.try_push c 3)

let test_chan_cross_domain () =
  (* capacity 2, 100 items: the producer must block on the full queue
     repeatedly; the consumer must see every item in order *)
  let n = 100 in
  let c = Chan.create ~capacity:2 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do Chan.push c i done;
        Chan.close c)
  in
  let got = ref [] in
  let rec drain () =
    match Chan.pop c with
    | Some v ->
      got := v :: !got;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check (list int)) "ordered, complete"
    (List.init n (fun i -> i + 1))
    (List.rev !got)

(* --- barrier ----------------------------------------------------------- *)

let test_barrier_rounds () =
  let parties = 4 and rounds = 50 in
  let b = Barrier.create ~parties in
  Alcotest.(check int) "parties" parties (Barrier.parties b);
  let hits = Array.make parties 0 in
  let workers =
    List.init parties (fun w ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              hits.(w) <- hits.(w) + 1;
              Barrier.await b
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "rounds completed" rounds (Barrier.rounds b);
  Array.iteri
    (fun w h -> Alcotest.(check int) (Printf.sprintf "worker %d" w) rounds h)
    hits

let test_barrier_invalid () =
  Alcotest.check_raises "parties 0"
    (Invalid_argument "Barrier.create: parties <= 0") (fun () ->
      ignore (Barrier.create ~parties:0))

(* --- pool -------------------------------------------------------------- *)

let test_pool_runs_each_worker () =
  let domains = 3 and epochs = 20 in
  let pool = Pool.create ~domains in
  Alcotest.(check int) "size" domains (Pool.size pool);
  let counts = Array.make domains 0 in
  for _ = 1 to epochs do
    Pool.run pool (fun w -> counts.(w) <- counts.(w) + 1)
  done;
  Pool.shutdown pool;
  Array.iteri
    (fun w c ->
      Alcotest.(check int) (Printf.sprintf "worker %d epochs" w) epochs c)
    counts

let test_pool_propagates_exception () =
  let pool = Pool.create ~domains:2 in
  Alcotest.check_raises "worker failure reaches the caller"
    (Failure "boom") (fun () ->
      Pool.run pool (fun w -> if w = 1 then failwith "boom"));
  (* the epoch still completed for everyone: the pool stays usable *)
  let ok = ref 0 in
  Pool.run pool (fun _ -> incr ok);
  (* both workers bump the same ref unsynchronized only if racing; give
     each worker its own slot instead *)
  Alcotest.(check bool) "pool survives a failing epoch" true (!ok >= 1);
  Pool.shutdown pool

let test_pool_failure_latch () =
  (* the recovery supervisor leans on this: a raising task must not
     wedge the epoch barrier, and the pool must stay reusable across
     repeated failing epochs.  Every worker bumps its slot before one of
     them raises, so slot counts prove the epoch completed for everyone
     even when run re-raised. *)
  let domains = 3 in
  let pool = Pool.create ~domains in
  let runs = Array.make domains 0 in
  for epoch = 1 to 5 do
    (match
       Pool.run pool (fun w ->
           runs.(w) <- runs.(w) + 1;
           if w = epoch mod domains then failwith "epoch bomb")
     with
     | () -> Alcotest.fail "expected the epoch to raise"
     | exception Failure _ -> ());
    Array.iteri
      (fun w c ->
        Alcotest.(check int)
          (Printf.sprintf "worker %d completed epoch %d" w epoch)
          epoch c)
      runs
  done;
  (* a clean epoch afterwards still runs on every worker *)
  Pool.run pool (fun w -> runs.(w) <- runs.(w) + 1);
  Array.iteri
    (fun w c -> Alcotest.(check int) (Printf.sprintf "worker %d final" w) 6 c)
    runs;
  Pool.shutdown pool

let test_pool_simultaneous_failures () =
  (* two workers raise in the same epoch: exactly one exception latches
     and re-raises, wrapped in [Epoch_failures] carrying the count of
     the suppressed others — nothing is silently dropped.  A barrier
     splits arming from raising so both failures genuinely race. *)
  let domains = 3 in
  let pool = Pool.create ~domains in
  let armed = Barrier.create ~parties:domains in
  (match
     Pool.run pool (fun w ->
         Barrier.await armed;
         if w <> 0 then failwith "simultaneous bomb")
   with
  | () -> Alcotest.fail "expected the epoch to raise"
  | exception Pool.Epoch_failures (Failure msg, suppressed) ->
    Alcotest.(check string) "latched failure" "simultaneous bomb" msg;
    Alcotest.(check int) "one failure latched, one suppressed" 1 suppressed
  | exception e ->
    Alcotest.failf "expected Epoch_failures, got %s" (Printexc.to_string e));
  (* a single failure still surfaces unwrapped *)
  (match Pool.run pool (fun w -> if w = 1 then failwith "solo bomb") with
  | () -> Alcotest.fail "expected the epoch to raise"
  | exception Failure msg ->
    Alcotest.(check string) "bare failure" "solo bomb" msg
  | exception e ->
    Alcotest.failf "expected the bare Failure, got %s" (Printexc.to_string e));
  (* and the pool is still fully usable *)
  let ran = Array.make domains 0 in
  Pool.run pool (fun w -> ran.(w) <- ran.(w) + 1);
  Array.iteri
    (fun w c -> Alcotest.(check int) (Printf.sprintf "worker %d ran" w) 1 c)
    ran;
  Pool.shutdown pool

let test_pool_run_steal () =
  (* the stealing epoch: every item of the frozen run queue is claimed
     exactly once, whatever the racy claim interleaving; per-item
     failures latch like per-worker ones.  Workers only record what they
     saw; every assertion runs on the coordinator after the epoch, since
     Alcotest is not domain-safe. *)
  let domains = 3 and items = 100 in
  let pool = Pool.create ~domains in
  let claims = Array.make items 0 in
  let slots = Array.make items (-1) in
  Pool.run_steal pool
    (Array.init items (fun i -> i))
    (fun ~worker:_ ~slot x ->
      slots.(x) <- slot;
      claims.(x) <- claims.(x) + 1);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "item %d claimed once" i) 1 c;
      Alcotest.(check int) (Printf.sprintf "item %d slot" i) i slots.(i))
    claims;
  (* a failing item raises after the epoch completes; the rest of the
     queue still drains exactly once *)
  let claims = Array.make items 0 in
  (match
     Pool.run_steal pool
       (Array.init items (fun i -> i))
       (fun ~worker:_ ~slot:_ x ->
         claims.(x) <- claims.(x) + 1;
         if x = 37 then failwith "item bomb")
   with
  | () -> Alcotest.fail "expected the epoch to raise"
  | exception Failure msg ->
    Alcotest.(check string) "item failure" "item bomb" msg
  | exception Pool.Epoch_failures _ ->
    (* impossible here: only item 37 raises *)
    Alcotest.fail "single failure must surface unwrapped");
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "item %d claimed once" i) 1 c)
    claims;
  (* an empty queue is a clean epoch *)
  Pool.run_steal pool [||] (fun ~worker:_ ~slot:_ _ -> assert false);
  Pool.shutdown pool

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      Pool.run pool (fun _ -> ()))

let test_pool_partition_sum () =
  (* the broker's exact usage: disjoint slots pinned by [i mod domains],
     summed after the join — no two workers ever touch the same cell *)
  let domains = 4 and cells = 10 in
  let pool = Pool.create ~domains in
  let slots = Array.make cells 0 in
  for epoch = 1 to 5 do
    Pool.run pool (fun w ->
        Array.iteri
          (fun i _ -> if i mod domains = w then slots.(i) <- slots.(i) + epoch)
          slots)
  done;
  Pool.shutdown pool;
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) 15 v)
    slots

let suite =
  [
    Alcotest.test_case "chan: fifo" `Quick test_chan_fifo;
    Alcotest.test_case "chan: bounded" `Quick test_chan_bounds;
    Alcotest.test_case "chan: close semantics" `Quick test_chan_close;
    Alcotest.test_case "chan: cross-domain handoff" `Quick
      test_chan_cross_domain;
    Alcotest.test_case "barrier: cyclic rounds" `Quick test_barrier_rounds;
    Alcotest.test_case "barrier: invalid" `Quick test_barrier_invalid;
    Alcotest.test_case "pool: every worker, every epoch" `Quick
      test_pool_runs_each_worker;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool: failing epochs complete and pool stays usable"
      `Quick test_pool_failure_latch;
    Alcotest.test_case "pool: simultaneous failures are counted, not dropped"
      `Quick test_pool_simultaneous_failures;
    Alcotest.test_case "pool: stealing run queue claims each item once"
      `Quick test_pool_run_steal;
    Alcotest.test_case "pool: shutdown" `Quick test_pool_shutdown;
    Alcotest.test_case "pool: partitioned mutation" `Quick
      test_pool_partition_sum;
  ]
