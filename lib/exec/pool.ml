(* One chan per worker (capacity 1: the epoch cadence admits a single
   in-flight task) and one barrier shared by workers + caller.  The
   caller never runs tasks itself: with the coordinator parked on the
   barrier, the OS can give every core to the workers, and the
   coordinator's own state is quiescent during the parallel phase.

   An epoch hands every worker the same closure, which claims slots off
   a shared fetch-and-add counter until the item array is dry, so idle
   workers keep claiming and every slot is claimed by exactly one
   worker — the atomic counter is the whole protocol. *)

type t = {
  chans : (unit -> unit) Chan.t array;
  barrier : Barrier.t;
  failure : exn option Atomic.t;
  suppressed : int Atomic.t;  (* item failures beyond the latched one *)
  mutable workers : unit Domain.t array;
  mutable alive : bool;
}

exception Epoch_failures of exn * int

let () =
  Printexc.register_printer (function
    | Epoch_failures (exn, suppressed) ->
      Some
        (Printf.sprintf "Pool.Epoch_failures(%s, +%d suppressed)"
           (Printexc.to_string exn) suppressed)
    | _ -> None)

let latch t exn =
  if not (Atomic.compare_and_set t.failure None (Some exn)) then
    Atomic.incr t.suppressed

let worker t w =
  let chan = t.chans.(w) in
  let rec loop () =
    match Chan.pop chan with
    | None -> ()  (* closed and drained: shut down *)
    | Some f ->
      f ();
      Barrier.await t.barrier;
      loop ()
  in
  loop ()

let create ~domains =
  if domains <= 0 then invalid_arg "Pool.create: domains <= 0";
  let t =
    {
      chans = Array.init domains (fun _ -> Chan.create ~capacity:1);
      barrier = Barrier.create ~parties:(domains + 1);
      failure = Atomic.make None;
      suppressed = Atomic.make 0;
      workers = [||];
      alive = true;
    }
  in
  t.workers <- Array.init domains (fun w -> Domain.spawn (fun () -> worker t w));
  t

let size t = Array.length t.chans

let run t items f =
  if not t.alive then invalid_arg "Pool.run: pool is shut down";
  Atomic.set t.failure None;
  Atomic.set t.suppressed 0;
  let next = Atomic.make 0 in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length items then begin
      (* catch per item, not per worker: a poisoned item must not
         abandon the unclaimed slots behind it *)
      (try f items.(i) with exn -> latch t exn);
      claim ()
    end
  in
  Array.iter (fun chan -> Chan.push chan claim) t.chans;
  Barrier.await t.barrier;
  match Atomic.get t.failure with
  | None -> ()
  | Some exn ->
    (match Atomic.get t.suppressed with
     | 0 -> raise exn
     | n -> raise (Epoch_failures (exn, n)))

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter Chan.close t.chans;
    Array.iter Domain.join t.workers
  end
