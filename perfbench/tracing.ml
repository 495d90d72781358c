(* The traced run's instruments, all outside the library: timed wrappers
   around the crypto and X primitives, per-domain delivery timestamps
   for the epoch breakdown, and step/layer spans kept in memory and
   written out as Chrome trace-event JSON when the run ends. *)

module Prim = Podopt_hir.Prim
open Harness

(* ---- primitive wrappers ---- *)

type prim = {
  layer : string;  (** "crypto" or "xwin" *)
  name : string;
  calls : int Atomic.t;
  ns : int Atomic.t;
  words : int Atomic.t;  (** minor words allocated inside the call *)
}

let crypto_prims = [ "des_encrypt"; "des_decrypt"; "xor_apply"; "hmac_md5"; "md5"; "crc32" ]
let xwin_prims = [ "x_render"; "x_request" ]

(* Re-register every primitive with a timer around it, keeping its
   purity, arity and cost-model work.  Must run before [Broker.create]:
   compiled super-handlers resolve primitives when they are built.
   Returns the wrapped stats and a function restoring the originals. *)
let wrap_prims () =
  Podopt_crypto.Prims.install ();
  Podopt_xwin.Xprims.install ();
  let wrap layer name =
    let p = Prim.find name in
    let st =
      { layer; name; calls = Atomic.make 0; ns = Atomic.make 0; words = Atomic.make 0 }
    in
    Prim.register ~pure:p.Prim.pure ?arity:p.Prim.arity ?work:p.Prim.work name
      (fun args ->
        (* Gc.minor_words counts the calling domain only, which is the
           domain running the primitive *)
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        let r = p.Prim.fn args in
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        ignore (Atomic.fetch_and_add st.calls 1);
        ignore (Atomic.fetch_and_add st.ns (t1 - t0));
        ignore (Atomic.fetch_and_add st.words (int_of_float (w1 -. w0)));
        r);
    (p, st)
  in
  let wrapped =
    List.map (wrap "crypto") crypto_prims @ List.map (wrap "xwin") xwin_prims
  in
  let restore () =
    List.iter
      (fun ((p : Prim.t), _) ->
        Prim.register ~pure:p.pure ?arity:p.arity ?work:p.work p.name p.fn)
      wrapped
  in
  (List.map snd wrapped, restore)

let reset_prims prims =
  List.iter
    (fun p ->
      Atomic.set p.calls 0;
      Atomic.set p.ns 0;
      Atomic.set p.words 0)
    prims

(* ---- epochs ---- *)

(* Delivery timestamps, one log per domain: at 2 domains the delivery
   hook runs on the worker draining the shard, so each domain appends
   to its own log, in time order; the coordinator reads the logs after
   the epoch barrier. *)
type log = { stamps : Vec.t; shards : Vec.t }

type epochs = {
  logs : log list Atomic.t;  (** every domain's log, registered on first use *)
  key : log Domain.DLS.key;
  shard_busy : int array;  (** working array: this epoch's busy wall per shard *)
  mutable count : int;     (** epochs with at least one delivery *)
  mutable drain_ns : int;  (** their drain wall *)
  mutable busy_ns : int;   (** their summed per-shard busy wall *)
  mutable sync_ns : int;   (** their drain wall minus the busiest shard's *)
  mutable ckpt_epochs : int;
  mutable ckpt_ns : int;   (** drain wall of epochs that took checkpoints *)
  mutable plain_epochs : int;
  mutable plain_ns : int;  (** drain wall of the other epochs *)
}

let epochs shards =
  let logs = Atomic.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let l = { stamps = Vec.create (); shards = Vec.create () } in
        let rec add () =
          let cur = Atomic.get logs in
          if not (Atomic.compare_and_set logs cur (l :: cur)) then add ()
        in
        add ();
        l)
  in
  {
    logs;
    key;
    shard_busy = Array.make shards 0;
    count = 0;
    drain_ns = 0;
    busy_ns = 0;
    sync_ns = 0;
    ckpt_epochs = 0;
    ckpt_ns = 0;
    plain_epochs = 0;
    plain_ns = 0;
  }

let on_delivery e ~shard ~src:_ ~seq:_ ~ok:_ ~payload:_ =
  let l = Domain.DLS.get e.key in
  Vec.push l.stamps (now_ns ());
  Vec.push l.shards shard

(* Close one epoch that ran from [t2] to [t3].  A shard's busy wall is
   the sum, over its deliveries, of the time since the previous
   delivery on the same domain (or since the epoch started). *)
let close_epoch e ~t2 ~t3 ~checkpointed =
  let wall = t3 - t2 in
  if checkpointed then begin
    e.ckpt_epochs <- e.ckpt_epochs + 1;
    e.ckpt_ns <- e.ckpt_ns + wall
  end
  else begin
    e.plain_epochs <- e.plain_epochs + 1;
    e.plain_ns <- e.plain_ns + wall
  end;
  let delivered = ref false in
  Array.fill e.shard_busy 0 (Array.length e.shard_busy) 0;
  List.iter
    (fun l ->
      let prev = ref t2 in
      for i = 0 to Vec.length l.stamps - 1 do
        let ts = Vec.get l.stamps i and shard = Vec.get l.shards i in
        e.shard_busy.(shard) <- e.shard_busy.(shard) + (ts - !prev);
        prev := ts;
        delivered := true
      done;
      Vec.clear l.stamps;
      Vec.clear l.shards)
    (Atomic.get e.logs);
  if !delivered then begin
    let busy = Array.fold_left ( + ) 0 e.shard_busy in
    let top = Array.fold_left max 0 e.shard_busy in
    e.count <- e.count + 1;
    e.drain_ns <- e.drain_ns + wall;
    e.busy_ns <- e.busy_ns + busy;
    e.sync_ns <- e.sync_ns + (wall - top)
  end

(* ---- spans ---- *)

(* Step boundaries, four timestamps per step (session sends start,
   front pump start, drain start, drain end), capped so a long run
   cannot exhaust memory. *)
type spans = { bounds : Vec.t; ops : Vec.t; mutable dropped : int }

let max_spans = 200_000
let spans () = { bounds = Vec.create (); ops = Vec.create (); dropped = 0 }

let add_span s ~t0 ~t1 ~t2 ~t3 ~drained =
  if Vec.length s.ops >= max_spans then s.dropped <- s.dropped + 1
  else begin
    List.iter (Vec.push s.bounds) [ t0; t1; t2; t3 ];
    Vec.push s.ops drained
  end

(* Chrome trace-event JSON (opens in Perfetto or chrome://tracing):
   each step is a span with its three layer spans nested inside. *)
let write_spans s ~path =
  let oc = open_out path in
  let base = if Vec.length s.bounds = 0 then 0 else Vec.get s.bounds 0 in
  let us t = float_of_int (t - base) /. 1000.0 in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let event name a b ops =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ops\":%d}}"
      name (us a) (us b -. us a) ops
  in
  for i = 0 to Vec.length s.ops - 1 do
    let b k = Vec.get s.bounds ((4 * i) + k) and ops = Vec.get s.ops i in
    event "step" (b 0) (b 3) ops;
    event "session" (b 0) (b 1) ops;
    event "front" (b 1) (b 2) ops;
    event "drain" (b 2) (b 3) ops
  done;
  Printf.fprintf oc "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_steps\":%d}}\n"
    s.dropped;
  close_out oc
