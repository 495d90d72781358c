open Podopt_eventsys
module Packet = Podopt_net.Packet
module Plan = Podopt_faults.Plan
module V = Podopt_hir.Value
module Store = Podopt_store.Store
module Recover = Podopt_recover.Recover

type config = {
  shards : int;
  batch : int;
  queue_limit : int;
  policy : Policy.shed;
  kind : Workload.kind;
  optimize : bool;
  compile : bool;
  seed : int64;
  tick : int;
  domains : int;
  faults : Plan.spec;
  profile_in : Store.t option;
  checkpoint_every : int;
  steal : bool;              (* ignored: kept for perfbench/, see .mli *)
  route : Shard_map.route;   (* session-to-shard routing discipline *)
  arrivals : Arrivals.spec;  (* session op arrival process *)
}

let default_config =
  {
    shards = 2;
    batch = 16;
    queue_limit = 64;
    policy = Policy.Drop_newest;
    kind = Workload.Seccomm;
    optimize = true;
    compile = true;
    seed = 42L;
    tick = 50;
    domains = 1;
    faults = Plan.none;
    profile_in = None;
    checkpoint_every = 8;
    steal = true;
    route = Shard_map.Hash;
    arrivals = Arrivals.Periodic;
  }

(* --- the config codec: one [key=value] token per field ------------------

   Every field but [profile_in] (a whole store, carried beside the
   config wherever one is persisted).  Values are the fields' own
   whitespace-free codecs, so a config is one line of space-separated
   tokens; a key ends at the first [=], since fault specs contain [=]
   themselves.  [config_of_string] accepts exactly this key set: an
   unknown, duplicate or missing key is an error, never a default. *)

let config_fields (c : config) =
  [
    ("shards", string_of_int c.shards);
    ("batch", string_of_int c.batch);
    ("queue-limit", string_of_int c.queue_limit);
    ("policy", Policy.shed_to_string c.policy);
    ("kind", Workload.kind_to_string c.kind);
    ("optimize", string_of_bool c.optimize);
    ("compile", string_of_bool c.compile);
    ("seed", Int64.to_string c.seed);
    ("tick", string_of_int c.tick);
    ("domains", string_of_int c.domains);
    ("faults", Plan.to_string c.faults);
    ("checkpoint-every", string_of_int c.checkpoint_every);
    ("route", Shard_map.route_to_string c.route);
    ("arrivals", Arrivals.to_string c.arrivals);
  ]

let config_keys = List.map fst (config_fields default_config)

let config_to_string c =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (config_fields c))

exception Bad_config of string

(* The range check [create] and [config_of_string] share: every field
   that counts something must be positive.  Named by codec key. *)
let check_config c =
  match
    List.find_opt
      (fun (_, v) -> v <= 0)
      [
        ("shards", c.shards);
        ("batch", c.batch);
        ("queue-limit", c.queue_limit);
        ("tick", c.tick);
        ("domains", c.domains);
        ("checkpoint-every", c.checkpoint_every);
      ]
  with
  | Some (k, _) -> Error (k ^ " <= 0")
  | None -> Ok ()

let parse_config s =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_config m)) fmt in
  let pairs =
    String.split_on_char ' ' s
    |> List.filter (( <> ) "")
    |> List.map (fun tok ->
           match String.index_opt tok '=' with
           | Some i ->
             (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
           | None -> bad "config token %S is not key=value" tok)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      if not (List.mem k config_keys) then bad "unknown config key %S" k;
      if Hashtbl.mem tbl k then bad "duplicate config key %S" k;
      Hashtbl.add tbl k v)
    pairs;
  let field k =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None -> bad "missing config key %S" k
  in
  let parsed k parse =
    match parse (field k) with
    | Some x -> x
    | None -> bad "bad %s %S" k (field k)
  in
  let decoded k parse =
    match parse (field k) with Ok x -> x | Error e -> bad "bad %s: %s" k e
  in
  let c =
    {
      shards = parsed "shards" int_of_string_opt;
      batch = parsed "batch" int_of_string_opt;
      queue_limit = parsed "queue-limit" int_of_string_opt;
      policy = decoded "policy" Policy.shed_of_string;
      kind = decoded "kind" Workload.kind_of_string;
      optimize = parsed "optimize" bool_of_string_opt;
      compile = parsed "compile" bool_of_string_opt;
      seed = parsed "seed" Int64.of_string_opt;
      tick = parsed "tick" int_of_string_opt;
      domains = parsed "domains" int_of_string_opt;
      faults = decoded "faults" Plan.of_string;
      profile_in = None;
      checkpoint_every = parsed "checkpoint-every" int_of_string_opt;
      steal = default_config.steal;
      route = decoded "route" Shard_map.route_of_string;
      arrivals = decoded "arrivals" Arrivals.of_string;
    }
  in
  match check_config c with Ok () -> c | Error e -> bad "%s" e

let config_of_string s = try Ok (parse_config s) with Bad_config m -> Error m

let deliver_event = "BrokerIngress"

type t = {
  cfg : config;
  front : Runtime.t;
  shards : Shard.t array;
  pool : Podopt_exec.Pool.t option;  (* [None] = sequential drain *)
  drained : int array;               (* per-shard scratch for parallel epochs *)
  nacks : (string, int -> int -> unit) Hashtbl.t;
  session_shard : (string, int) Hashtbl.t;
  mutable routed : int;
  front_faults : Plan.t option;      (* salt 0: wire faults before decode *)
  mutable link_dropped : int;
  mutable decode_failures : int;
  (* the crash-recovery supervisor, armed when the fault plan can kill
     shards (kill_permille > 0): per-shard serialized checkpoints plus
     the redo journals of everything fed to each shard since its last
     checkpoint.  All of it lives on the coordinator — kills, restores,
     and redelivery happen between epochs, never on pool workers. *)
  supervised : bool;
  journals : Recover.journal array;
  checkpoints : string array;
  mutable epoch : int;  (* drain epochs since creation *)
}

let config t = t.cfg
let front t = t.front
let shards t = t.shards
let now t = Runtime.now t.front
let register t ~id ~nack = Hashtbl.replace t.nacks id nack

let route t (pkt : Packet.t) =
  let idx =
    Shard_map.route_shard ~route:t.cfg.route ~shards:t.cfg.shards pkt.Packet.src
  in
  let shard = t.shards.(idx) in
  if not (Hashtbl.mem t.session_shard pkt.Packet.src) then begin
    Hashtbl.replace t.session_shard pkt.Packet.src idx;
    shard.Shard.sessions <- shard.Shard.sessions + 1
  end;
  t.routed <- t.routed + 1;
  (* journal every offer, shed or accepted: the redo log must reproduce
     the exact ingress-queue evolution (including evictions and stat
     increments), not just the ops that got in *)
  if t.supervised then
    Recover.record t.journals.(idx) (Recover.Offer (now t, pkt));
  match Shard.offer shard ~now:(now t) pkt with
  | Ingress.Accepted -> ()
  | Ingress.Shed victim ->
    (match Hashtbl.find_opt t.nacks victim.Packet.src with
     | Some nack -> nack victim.Packet.seq (now t)
     | None -> ())

(* Redo-journal high-water mark: room for [checkpoint_every] epochs of
   generous traffic per shard.  A flash crowd past it forces an early
   checkpoint at the next epoch boundary (entries are never dropped —
   that would lose admitted work). *)
let journal_limit cfg = max 64 (cfg.checkpoint_every * ((4 * cfg.batch) + 1))

let create (cfg : config) =
  Result.iter_error (fun e -> invalid_arg ("Broker.create: " ^ e)) (check_config cfg);
  (* the front door is a landing pad for link deliveries, not a measured
     runtime: routing must not consume simulation time, or the clock
     would leap past pending sessions and turn steady traffic into
     artificial bursts *)
  let front = Runtime.create ~costs:Costs.free () in
  front.Runtime.emit_log_enabled <- false;
  (* One aggregation of the stored profile feeds every shard's warm
     start; each shard checks the shared signatures against its own
     runtime.  Aggregation and installation happen here on the
     coordinator — before the pool spawns — so a warm-started run stays
     byte-identical at any domain count. *)
  let warm =
    match cfg.profile_in with
    | Some store when cfg.optimize ->
      let agg = Store.aggregate ~kind:(Workload.kind_to_string cfg.kind) store in
      Some (agg.Store.agg_graph, agg.Store.agg_signatures)
    | _ -> None
  in
  let shards =
    Array.init cfg.shards (fun id ->
        Shard.create ~faults:cfg.faults ~compile:cfg.compile ?warm ~id
          ~kind:cfg.kind ~optimize:cfg.optimize ~queue_limit:cfg.queue_limit
          ~policy:cfg.policy ())
  in
  (* the pool spawns after the shards exist: shard construction installs
     HIR primitives and parses programs on the coordinator, so workers
     only ever see fully built shards (published by the pool's own
     channel/barrier synchronization) *)
  let pool =
    if cfg.domains > 1 then Some (Podopt_exec.Pool.create ~domains:cfg.domains)
    else None
  in
  let supervised = cfg.faults.Plan.kill_permille > 0 in
  let t =
    {
      cfg;
      front;
      shards;
      pool;
      drained = Array.make cfg.shards 0;
      nacks = Hashtbl.create 64;
      session_shard = Hashtbl.create 64;
      routed = 0;
      front_faults =
        (if Plan.enabled cfg.faults then Some (Plan.create ~salt:0 cfg.faults)
         else None);
      link_dropped = 0;
      decode_failures = 0;
      supervised;
      journals =
        Array.init cfg.shards (fun _ ->
            Recover.journal ~limit:(journal_limit cfg));
      checkpoints = Array.make cfg.shards "";
      epoch = 0;
    }
  in
  (* the epoch-0 checkpoints: a kill before the first periodic capture
     restores the warm-started, pre-traffic shard.  Taken here on the
     coordinator, after warm start and before the pool could exist. *)
  if supervised then
    Array.iteri
      (fun i shard -> t.checkpoints.(i) <- Shard.checkpoint shard ~epoch:0)
      t.shards;
  Runtime.bind front ~event:deliver_event
    (Handler.native "broker_route" (fun _host args ->
         match args with
         | [ V.Bytes b ] ->
           (* Exactly one draw per packet from each wire-fault stream,
              whether or not the other fault fires: a drop-rate change
              never shifts which packets the corrupt stream picks. *)
           let dropped, b =
             match t.front_faults with
             | None -> (false, b)
             | Some inj ->
               let dropped = Plan.drop inj in
               let b =
                 match Plan.corrupt inj b with Some b' -> b' | None -> b
               in
               (dropped, b)
           in
           if dropped then t.link_dropped <- t.link_dropped + 1
           else (
             match Packet.decode b with
             | pkt -> route t pkt
             | exception Packet.Decode_error ->
               t.decode_failures <- t.decode_failures + 1)
         | _ -> ()));
  t

let pump t ~until = Runtime.run ~until t.front

(* Crash recovery for one killed shard, on the coordinator: wipe, load
   the last checkpoint, then redeliver the redo journal in admission
   order — re-offering every journaled packet and re-running every
   journaled epoch drain, so the shard re-derives its exact pre-kill
   state (queue contents, retries, counters, stream positions, clock).
   The delivery hook is silenced for the replay: everything the journal
   re-dispatches already reached the clients the first time, and the
   oracle must not see those ops twice.  Crash/spike fault draws DO
   re-fire (from their checkpoint-rewound streams) — both the recording
   and the replaying run perform the identical re-draws, so the draw
   logs still match.  Nacks are not re-issued either: a journaled shed
   replays as the same shed, but the client's backoff already
   happened. *)
let recover_shard t i =
  let shard = t.shards.(i) in
  Shard.kill shard;
  let hook = shard.Shard.on_delivery in
  Shard.set_on_delivery shard None;
  Shard.restore shard t.checkpoints.(i);
  let redelivered = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Recover.Offer (now, pkt) ->
        incr redelivered;
        ignore (Shard.offer shard ~now pkt)
      | Recover.Drain (now, batch) ->
        ignore (Shard.drain_batch shard ~now ~batch))
    (Recover.entries t.journals.(i));
  Shard.set_on_delivery shard hook;
  Shard.recovery_complete shard ~redelivered:!redelivered

(* The supervisor's epoch-boundary pass, in shard-id order on the
   coordinator: draw each shard's kill, recover the casualties, then
   take the periodic (or journal-forced early) checkpoints. *)
let supervise t =
  t.epoch <- t.epoch + 1;
  Array.iteri
    (fun i shard ->
      (match Shard.fault_injector shard with
       | Some inj when Plan.kill inj -> recover_shard t i
       | Some _ | None -> ());
      if t.epoch mod t.cfg.checkpoint_every = 0 || Recover.full t.journals.(i)
      then begin
        t.checkpoints.(i) <- Shard.checkpoint shard ~epoch:t.epoch;
        Recover.clear t.journals.(i)
      end)
    t.shards

(* One drain epoch.  Sequential: shards drain in shard-id order on the
   caller.  Parallel: the coordinator freezes the epoch's shard list
   hottest-first (by pre-drain ingress depth, shard-id tie break) into
   the pool's shared run-queue, and idle workers claim whole shards —
   zero-copy, because the shard struct (state, ingress queue,
   retry/dead tables, fault streams, adaptive profile) is the unit of
   work and never moves in memory.  The pool's barrier separates this
   drain step from the next routing step, each shard is claimed
   exactly once per epoch, and [now] is captured once on the
   coordinator — so every shard sees the exact batch boundaries and
   dispatch order of the sequential run, and no shard is ever touched
   by two domains at once.  Which worker drains a shard is pure
   scheduling; per-shard results cannot depend on it.

   Under supervision the epoch boundary runs first, on the coordinator:
   kill draws, recoveries, checkpoints, and the journal's epoch marks
   all precede the (possibly parallel) drain, which is why per-shard
   results stay byte-identical at any domain count even while shards
   die and resurrect. *)
let drain t =
  (* the epoch's front clock is captured once on the coordinator, so
     every shard — sequential or parallel — stamps queue waits against
     the same [now] *)
  let now = now t and batch = t.cfg.batch in
  if t.supervised then begin
    supervise t;
    Array.iter (fun j -> Recover.record j (Recover.Drain (now, batch))) t.journals
  end;
  match t.pool with
  | None ->
    Array.fold_left
      (fun acc s -> acc + Shard.drain_batch s ~now ~batch)
      0 t.shards
  | Some pool ->
    (* hottest shards first (LPT): claim order is wall-clock scheduling
       only *)
    let depth i = Ingress.length t.shards.(i).Shard.ingress in
    let order = Array.init t.cfg.shards Fun.id in
    Array.stable_sort (fun a b -> compare (depth b) (depth a)) order;
    Podopt_exec.Pool.run pool order (fun i ->
        t.drained.(i) <- Shard.drain_batch t.shards.(i) ~now ~batch);
    (* merge in shard-id order on the coordinator *)
    Array.fold_left ( + ) 0 t.drained

let parallel t = match t.pool with Some _ -> true | None -> false
let domains t = t.cfg.domains

let shutdown t =
  match t.pool with Some pool -> Podopt_exec.Pool.shutdown pool | None -> ()

let advance_to t upto = if upto > now t then Vclock.set t.front.Runtime.clock upto

let idle t =
  Runtime.pending t.front = 0
  && Array.for_all (fun s -> Ingress.length s.Shard.ingress = 0) t.shards

let routed t = t.routed
let link_dropped t = t.link_dropped
let decode_failures t = t.decode_failures

(* Stubs for perfbench/, which still reads them: one drain scheduler
   leaves nothing to count. *)
let steals _ = 0
let migration_count _ = 0
let critical_busy _ = 0

(* Recovery accounting, summed over shards. *)
let supervised t = t.supervised
let sum_recov t f =
  Array.fold_left (fun acc s -> acc + f (Shard.recovery s)) 0 t.shards
let kills t = sum_recov t (fun r -> r.Shard.kills)
let recoveries t = sum_recov t (fun r -> r.Shard.recoveries)
let redelivered t = sum_recov t (fun r -> r.Shard.redelivered)
let checkpoints_taken t = sum_recov t (fun r -> r.Shard.checkpoints)
let ramp_optimized t = sum_recov t (fun r -> r.Shard.ramp_optimized)
let ramp_generic t = sum_recov t (fun r -> r.Shard.ramp_generic)

(* Whether this broker was built with a stored profile feeding its
   (optimizing) shards' warm start. *)
let warm_start t = t.cfg.optimize && t.cfg.profile_in <> None
let warm_installed t = Array.fold_left (fun acc s -> acc + Shard.warm_installed s) 0 t.shards
let warm_stale t = Array.fold_left (fun acc s -> acc + Shard.warm_stale s) 0 t.shards

(* Every optimizing shard's cumulative profile as a store — the
   [--profile-out] surface. *)
let profile_store t : Store.t =
  Store.of_entries
    (Array.to_list t.shards |> List.filter_map Shard.profile_entry)

(* Attach (or clear) one fault-draw logger on every live injector: the
   front's (salt 0) and each shard's (salt id+1).  Per-salt streams are
   each touched by one domain at a time (front on the coordinator, a
   shard on whichever worker claimed it, ordered by the epoch barrier),
   so a logger that keeps per-salt state needs no locking. *)
let set_fault_logger t logger =
  (match t.front_faults with
   | Some inj -> Plan.set_logger inj logger
   | None -> ());
  Array.iter
    (fun s ->
      match Shard.fault_injector s with
      | Some inj -> Plan.set_logger inj logger
      | None -> ())
    t.shards

let set_delivery_hook t hook =
  Array.iter (fun s -> Shard.set_on_delivery s hook) t.shards

let set_tamper t f = Array.iter (fun s -> Shard.set_tamper s f) t.shards
let force_reoptimize t = Array.iter (fun s -> ignore (Shard.force_reoptimize s)) t.shards

let reset_measurements t =
  t.routed <- 0;
  t.link_dropped <- 0;
  t.decode_failures <- 0;
  Hashtbl.reset t.session_shard;
  Array.iter Shard.reset_measurements t.shards;
  (* the reset is a state discontinuity the redo journal cannot replay
     across (retry tables and dead queues just vanished outside any
     journaled op): re-anchor every shard on a fresh checkpoint, or a
     post-reset kill would resurrect pre-reset state and diverge *)
  if t.supervised then
    Array.iteri
      (fun i shard ->
        t.checkpoints.(i) <- Shard.checkpoint shard ~epoch:t.epoch;
        Recover.clear t.journals.(i))
      t.shards
