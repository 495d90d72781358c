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

(* [domains] items that each wait at a [domains]-party barrier can only
   finish if every worker holds one of them at the same time: the items
   prove that every worker takes part in the epoch. *)
let rendezvous_items pool = Array.init (Pool.size pool) Fun.id

let test_pool_runs_each_worker () =
  let domains = 3 and epochs = 20 in
  let pool = Pool.create ~domains in
  Alcotest.(check int) "size" domains (Pool.size pool);
  let meet = Barrier.create ~parties:domains in
  let counts = Array.make domains 0 in
  let ran_on = Array.make domains (-1) in
  for _ = 1 to epochs do
    Pool.run pool (rendezvous_items pool) (fun i ->
        Barrier.await meet;
        ran_on.(i) <- (Domain.self () :> int);
        counts.(i) <- counts.(i) + 1);
    let distinct = List.sort_uniq compare (Array.to_list ran_on) in
    Alcotest.(check int) "one item per worker" domains (List.length distinct);
    Alcotest.(check bool) "never on the caller" false
      (List.mem (Domain.self () :> int) distinct)
  done;
  Pool.shutdown pool;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d epochs" i) epochs c)
    counts

let test_pool_propagates_exception () =
  let pool = Pool.create ~domains:2 in
  Alcotest.check_raises "item failure reaches the caller"
    (Failure "boom") (fun () ->
      Pool.run pool [| 0; 1 |] (fun i -> if i = 1 then failwith "boom"));
  (* the epoch still completed for everyone: the pool stays usable *)
  let ran = Array.make 2 0 in
  Pool.run pool [| 0; 1 |] (fun i -> ran.(i) <- ran.(i) + 1);
  Alcotest.(check (array int)) "pool survives a failing epoch" [| 1; 1 |] ran;
  Pool.shutdown pool

let test_pool_failure_latch () =
  (* the recovery supervisor leans on this: a raising item must not
     wedge the epoch barrier, and the pool must stay reusable across
     repeated failing epochs.  Every item bumps its slot before one of
     them raises, so slot counts prove the epoch completed for everyone
     even when run re-raised. *)
  let domains = 3 in
  let pool = Pool.create ~domains in
  let runs = Array.make domains 0 in
  for epoch = 1 to 5 do
    (match
       Pool.run pool (rendezvous_items pool) (fun i ->
           runs.(i) <- runs.(i) + 1;
           if i = epoch mod domains then failwith "epoch bomb")
     with
     | () -> Alcotest.fail "expected the epoch to raise"
     | exception Failure _ -> ());
    Array.iteri
      (fun i c ->
        Alcotest.(check int)
          (Printf.sprintf "item %d completed epoch %d" i epoch)
          epoch c)
      runs
  done;
  (* a clean epoch afterwards still runs every item *)
  Pool.run pool (rendezvous_items pool) (fun i -> runs.(i) <- runs.(i) + 1);
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d final" i) 6 c)
    runs;
  Pool.shutdown pool

let test_pool_simultaneous_failures () =
  (* two items raise in the same epoch: exactly one exception latches
     and re-raises, wrapped in [Epoch_failures] carrying the count of
     the suppressed others — nothing is silently dropped.  A barrier
     splits arming from raising so both failures genuinely race on
     different workers. *)
  let domains = 3 in
  let pool = Pool.create ~domains in
  let armed = Barrier.create ~parties:domains in
  (match
     Pool.run pool (rendezvous_items pool) (fun i ->
         Barrier.await armed;
         if i <> 0 then failwith "simultaneous bomb")
   with
  | () -> Alcotest.fail "expected the epoch to raise"
  | exception Pool.Epoch_failures (Failure msg, suppressed) ->
    Alcotest.(check string) "latched failure" "simultaneous bomb" msg;
    Alcotest.(check int) "one failure latched, one suppressed" 1 suppressed
  | exception e ->
    Alcotest.failf "expected Epoch_failures, got %s" (Printexc.to_string e));
  (* a single failure still surfaces unwrapped *)
  (match
     Pool.run pool (rendezvous_items pool) (fun i ->
         if i = 1 then failwith "solo bomb")
   with
  | () -> Alcotest.fail "expected the epoch to raise"
  | exception Failure msg ->
    Alcotest.(check string) "bare failure" "solo bomb" msg
  | exception e ->
    Alcotest.failf "expected the bare Failure, got %s" (Printexc.to_string e));
  (* and the pool is still fully usable *)
  let ran = Array.make domains 0 in
  Pool.run pool (rendezvous_items pool) (fun i -> ran.(i) <- ran.(i) + 1);
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d ran" i) 1 c)
    ran;
  Pool.shutdown pool

let test_pool_run_queue () =
  (* every item of the frozen run queue is claimed exactly once,
     whatever the racy claim interleaving; per-item failures latch.
     Items only record what they saw; every assertion runs on the
     coordinator after the epoch, since Alcotest is not domain-safe. *)
  let domains = 3 and items = 100 in
  let pool = Pool.create ~domains in
  let claims = Array.make items 0 in
  Pool.run pool (Array.init items Fun.id) (fun x -> claims.(x) <- claims.(x) + 1);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "item %d claimed once" i) 1 c)
    claims;
  (* a failing item raises after the epoch completes; the rest of the
     queue still drains exactly once *)
  let claims = Array.make items 0 in
  (match
     Pool.run pool (Array.init items Fun.id) (fun x ->
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
  Pool.run pool [||] (fun _ -> assert false);
  Pool.shutdown pool

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      Pool.run pool [| () |] (fun () -> ()))

let test_pool_partition_sum () =
  (* the broker's exact usage: one item per shard, each writing only its
     own cell, summed after the join — no two workers ever touch the
     same cell *)
  let domains = 4 and cells = 10 in
  let pool = Pool.create ~domains in
  let slots = Array.make cells 0 in
  for epoch = 1 to 5 do
    Pool.run pool (Array.init cells Fun.id) (fun i ->
        slots.(i) <- slots.(i) + epoch)
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
      `Quick test_pool_run_queue;
    Alcotest.test_case "pool: shutdown" `Quick test_pool_shutdown;
    Alcotest.test_case "pool: partitioned mutation" `Quick
      test_pool_partition_sum;
  ]
