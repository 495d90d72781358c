(* Set-up, the timed stepping loop, and the output checks.

   The stepping loop is a copy of [Loadgen.run], tick for tick (session
   wheel -> [Session.pump] -> [Broker.pump] -> [Broker.drain] ->
   [Broker.advance_to]), so that every call into a layer can be timed
   from outside the library.  [check_fidelity] proves the copy still
   matches [Loadgen.steady]. *)

module B = Podopt_broker
module Broker = B.Broker
module Loadgen = B.Loadgen
module Session = B.Session
module Shard = B.Shard
module Equeue = Podopt_eventsys.Equeue

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let fail fmt = Printf.ksprintf failwith fmt

(* Growable int vector: step samples and spans are kept in memory and
   only summarised once the timed window is over. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
  let clear v = v.n <- 0

  let sorted vs =
    let a = Array.concat (List.map (fun v -> Array.sub v.a 0 v.n) vs) in
    Array.sort compare a;
    a
end

(* Nearest-rank percentile of a sorted array (0 when empty). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Broker-side counters summed over shards.  They accumulate from the
   set-up's [reset_measurements] on, so a round's figures are deltas. *)
type totals = {
  dispatched : int;
  optimized : int;  (** super-handler dispatches, batched ones included *)
  generic : int;
  offered : int;
  shed : int;
  displaced : int;
  quarantined : int;
  fallbacks : int;
  breaker_trips : int;
  busy : int;
}

let totals broker =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 (Broker.shards broker) in
  let ing f = sum (fun s -> f (B.Ingress.stats s.Shard.ingress)) in
  {
    dispatched = sum (fun s -> s.Shard.stats.Shard.dispatched);
    optimized = sum (fun s -> Shard.optimized_dispatches s + Shard.batched_dispatches s);
    generic = sum Shard.generic_dispatches;
    offered = ing (fun st -> st.B.Ingress.offered);
    shed = ing (fun st -> st.B.Ingress.shed);
    displaced = ing (fun st -> st.B.Ingress.displaced);
    quarantined = sum (fun s -> s.Shard.stats.Shard.quarantined);
    fallbacks = sum Shard.fallbacks;
    breaker_trips = sum Shard.breaker_trips;
    busy = sum Shard.busy;
  }

let diff a b =
  {
    dispatched = a.dispatched - b.dispatched;
    optimized = a.optimized - b.optimized;
    generic = a.generic - b.generic;
    offered = a.offered - b.offered;
    shed = a.shed - b.shed;
    displaced = a.displaced - b.displaced;
    quarantined = a.quarantined - b.quarantined;
    fallbacks = a.fallbacks - b.fallbacks;
    breaker_trips = a.breaker_trips - b.breaker_trips;
    busy = a.busy - b.busy;
  }

(* Client-side counters of one round's sessions. *)
type clients = { sent : int; retries : int; gave_up : int }

let clients sessions =
  List.fold_left
    (fun c s ->
      let st = Session.stats s in
      {
        sent = c.sent + st.Session.sent;
        retries = c.retries + st.Session.retries;
        gave_up = c.gave_up + st.Session.gave_up;
      })
    { sent = 0; retries = 0; gave_up = 0 }
    sessions

(* ---- set-up ---- *)

type setup = {
  broker : Broker.t;
  setup_ns : int;       (** create + warm-up + reoptimize + reset *)
  warmup_ns : int;      (** the warm-up run alone *)
  reoptimize_ns : int;  (** [force_reoptimize] alone *)
}

(* Exactly the warm-up half of [Loadgen.steady]. *)
let setup (w : Workloads.t) ~seed ~optimize =
  let cfg = { (w.Workloads.config ~seed) with Broker.optimize } in
  (* start from a collected heap: garbage left by earlier work is not
     charged to this set-up *)
  Gc.full_major ();
  let t0 = now_ns () in
  let broker = Broker.create cfg in
  let warm =
    Loadgen.make_sessions broker
      { w.Workloads.profile with Loadgen.ops = Workloads.warmup_ops }
  in
  let t1 = now_ns () in
  let s = Loadgen.run broker warm in
  let t2 = now_ns () in
  if s.Loadgen.truncated then fail "%s: warm-up run truncated" w.Workloads.name;
  if optimize then Broker.force_reoptimize broker;
  let t3 = now_ns () in
  Broker.reset_measurements broker;
  let t4 = now_ns () in
  { broker; setup_ns = t4 - t0; warmup_ns = t2 - t1; reoptimize_ns = t3 - t2 }

(* ---- the stepping loop ---- *)

(* The front clock of the drain in progress, read by delivery hooks
   (possibly on worker domains: the pool's epoch hand-off orders the
   write before their reads). *)
let drain_clock = ref 0

(* [Loadgen.run]'s tick budget: send horizon in ticks, an epoch per op,
   and slack for the retry tail. *)
let max_ticks ~tick ~t0 sessions =
  let horizon = List.fold_left (fun acc s -> max acc (Session.horizon s)) t0 sessions in
  let ops = List.fold_left (fun acc s -> acc + Array.length (Session.ops s)) 0 sessions in
  ((horizon - t0 + 100_000) / max tick 1) + (8 * ops) + 1024

type round = { sessions : Session.t list; wall_ns : int; ticks : int }

let no_step ~t0:_ ~t1:_ ~t2:_ ~t3:_ ~drained:_ = ()

(* One steady round: fresh sessions, stepped to completion.  [steps]
   receives the wall time of every step that dispatched at least one
   op; [on_step] sees the four boundary timestamps of every step;
   [on_sessions] sees the round's sessions before the first step. *)
let round ?(on_sessions = ignore) ?(on_step = no_step) ~steps (w : Workloads.t) broker =
  let sessions = Loadgen.make_sessions broker w.Workloads.profile in
  on_sessions sessions;
  let tick = (Broker.config broker).Broker.tick in
  let start = now_ns () in
  let budget = max_ticks ~tick ~t0:(Broker.now broker) sessions in
  let sess = Array.of_list sessions in
  let wheel : int Equeue.t = Equeue.create () in
  Array.iteri
    (fun i s ->
      Session.set_waker s (Some (fun due -> Equeue.push wheel ~due i));
      match Session.next_due s with
      | Some due -> Equeue.push wheel ~due i
      | None -> ())
    sess;
  let front = Broker.front broker in
  let pump_due now =
    let rec collect acc =
      match Equeue.peek wheel with
      | Some (due, _) when due <= now ->
        (match Equeue.pop wheel with Some (_, i) -> collect (i :: acc) | None -> acc)
      | _ -> acc
    in
    List.iter
      (fun i ->
        let s = sess.(i) in
        Session.pump s ~now ~rt:front ~deliver_event:Broker.deliver_event;
        match Session.next_due s with
        | Some due -> Equeue.push wheel ~due i
        | None -> ())
      (List.sort_uniq compare (collect []))
  in
  let ticks = ref 0 in
  while (not (Equeue.is_empty wheel && Broker.idle broker)) && !ticks < budget do
    incr ticks;
    let now = Broker.now broker in
    let t0 = now_ns () in
    pump_due now;
    let t1 = now_ns () in
    Broker.pump broker ~until:now;
    let t2 = now_ns () in
    drain_clock := Broker.now broker;
    let drained = Broker.drain broker in
    let t3 = now_ns () in
    Broker.advance_to broker (now + tick);
    if drained > 0 then Vec.push steps (t3 - t0);
    on_step ~t0 ~t1 ~t2 ~t3 ~drained
  done;
  let wall_ns = now_ns () - start in
  Array.iter (fun s -> Session.set_waker s None) sess;
  if not (List.for_all Session.finished sessions && Broker.idle broker) then
    fail "%s: round truncated after %d ticks" w.Workloads.name !ticks;
  { sessions; wall_ns; ticks = !ticks }

(* ---- output check ---- *)

(* Per-shard ordered record of deliveries (src, seq, ok, CRC-32 of the
   payload, CRC-32 of the shard's handler state after the op) plus each
   delivered op's simulated latency: from its scheduled due time to the
   front clock of the drain that delivered it, retries included.  The
   state is every runtime global, sorted by name and marshalled: what the
   handlers computed (ciphertext, counters, widget state), so a
   super-handler that computes a wrong result without raising shows. *)
type recorder = {
  shards : Shard.t array;
  lines : Buffer.t array;
  latency : Vec.t array;
  dues : int array array;  (** session index -> seq -> due time *)
}

(* The due times [Loadgen.make_sessions] gave each session: the
   periodic grid, or the seeded open-loop schedule (same per-session
   seed as the link).  Checked against each session's horizon. *)
let due_times broker (profile : Loadgen.profile) sessions =
  let cfg = Broker.config broker in
  Array.of_list
    (List.mapi
       (fun i s ->
         let start = Session.start s and interval = profile.Loadgen.interval in
         let d =
           match cfg.Broker.arrivals with
           | B.Arrivals.Periodic -> Array.init profile.Loadgen.ops (fun k -> start + (k * interval))
           | spec ->
             B.Arrivals.schedule spec
               ~seed:(Int64.add cfg.Broker.seed (Int64.of_int (i + 1)))
               ~start ~interval ~ops:profile.Loadgen.ops
         in
         if d.(Array.length d - 1) <> Session.horizon s then
           fail "session %s: recomputed schedule disagrees with the session" (Session.id s);
         d)
       sessions)

let session_index src = int_of_string (String.sub src 1 (String.length src - 1))

let recorder broker dues =
  (* Crc32 builds its table lazily, and forcing a lazy value from two
     domains at once raises; force it here, on the coordinator *)
  ignore (Podopt_crypto.Crc32.compute Bytes.empty);
  let shards = Broker.shards broker in
  let n = Array.length shards in
  {
    shards;
    lines = Array.init n (fun _ -> Buffer.create 4096);
    latency = Array.init n (fun _ -> Vec.create ());
    dues;
  }

(* Runs on the domain draining [shard], which owns its runtime. *)
let state_crc (s : Shard.t) =
  let module V = Podopt_hir.Value in
  let globals =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.Shard.rt.Podopt_eventsys.Runtime.globals []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) globals
  |> List.concat_map (fun (k, v) -> [ V.Str k; v ])
  |> V.marshal |> Bytes.unsafe_of_string |> Podopt_crypto.Crc32.compute

let record r ~shard ~src ~seq ~ok ~payload =
  Printf.bprintf r.lines.(shard) "%s %d %b %08x %08x\n" src seq ok
    (Podopt_crypto.Crc32.compute payload)
    (state_crc r.shards.(shard));
  if ok then Vec.push r.latency.(shard) (!drain_clock - r.dues.(session_index src).(seq))

(* Shard digests combined in shard-id order: at 2 domains deliveries of
   different shards interleave, so only the per-shard order is fixed. *)
let digest r =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (Array.to_list (Array.map (fun b -> Digest.string (Buffer.contents b)) r.lines))))

(* Round 0: the first steady round of a set-up broker, stepped by the
   benchmark's loop with the recorder on.  It is not timed. *)
type checked = {
  digest : string;  (** the per-shard delivery digests, combined *)
  latency : int array;  (** simulated latency of each delivered op, sorted *)
  totals : totals;
  clients : clients;
  ticks : int;
  peak_routed : int;  (** most packets routed into shards in one tick *)
}

let checked_round (w : Workloads.t) broker =
  let before = totals broker in
  let routed = ref (Broker.routed broker) and peak = ref 0 in
  let on_step ~t0:_ ~t1:_ ~t2:_ ~t3:_ ~drained:_ =
    let r = Broker.routed broker in
    peak := max !peak (r - !routed);
    routed := r
  in
  let rec_ref = ref None in
  let on_sessions sessions =
    let r = recorder broker (due_times broker w.Workloads.profile sessions) in
    rec_ref := Some r;
    Broker.set_delivery_hook broker (Some (record r))
  in
  let r = round ~on_sessions ~on_step ~steps:(Vec.create ()) w broker in
  Broker.set_delivery_hook broker None;
  let recorded = Option.get !rec_ref in
  {
    digest = digest recorded;
    latency = Vec.sorted (Array.to_list recorded.latency);
    totals = diff (totals broker) before;
    clients = clients r.sessions;
    ticks = r.ticks;
    peak_routed = !peak;
  }

(* The output check: the same seed served with the optimizer off must
   deliver the same ops, in the same per-shard order, with the same
   payloads, leaving the same handler state after each op. *)
let reference_digest (w : Workloads.t) ~seed =
  let s = setup w ~seed ~optimize:false in
  Fun.protect
    ~finally:(fun () -> Broker.shutdown s.broker)
    (fun () -> (checked_round w s.broker).digest)

(* Loop fidelity: [Loadgen.steady] on the same config must produce the
   counters round 0 produced with the benchmark's own loop. *)
let check_fidelity (w : Workloads.t) ~seed (c : checked) =
  let broker = Broker.create (w.Workloads.config ~seed) in
  let s =
    Fun.protect
      ~finally:(fun () -> Broker.shutdown broker)
      (fun () ->
        Loadgen.steady ~warmup_ops:Workloads.warmup_ops broker w.Workloads.profile)
  in
  if s.Loadgen.truncated then fail "%s: Loadgen.steady truncated" w.Workloads.name;
  let pairs =
    [
      ("dispatched", s.Loadgen.dispatched, c.totals.dispatched);
      ("optimized", s.Loadgen.optimized + s.Loadgen.batched, c.totals.optimized);
      ("shed", s.Loadgen.shed, c.totals.shed);
      ("sent", s.Loadgen.sent, c.clients.sent);
      ("gave_up", s.Loadgen.gave_up, c.clients.gave_up);
    ]
  in
  List.iter
    (fun (name, expect, got) ->
      if expect <> got then
        fail "%s: loop fidelity: %s is %d, Loadgen.steady gives %d" w.Workloads.name name got
          expect)
    pairs
