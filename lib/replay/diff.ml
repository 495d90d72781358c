(* The differential oracle: execute one recorded log twice — optimizer
   on vs off, or compiled vs interpreted super-handlers — and diff the
   per-session observable outcomes.  The compared observables are
   deliberately cost-model independent: the dispatch order of ops, each
   attempt's success, a CRC-32 digest of the dispatched payload, and
   every client's sent/retry/nack/gave-up accounting.  Virtual-time
   costs (which legitimately differ between the variants) never enter
   the comparison, so any divergence is a real behaviour difference.

   On divergence the oracle shrinks the log to a minimal reproducer:
   greedily drop sessions, then trailing measured ops, re-running both
   variants after each candidate cut and keeping it iff the divergence
   survives. *)

module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen
module Session = Podopt_broker.Session
module Packet = Podopt_net.Packet
module Crc32 = Podopt_crypto.Crc32
module Plan = Podopt_faults.Plan

type axis = Optimizer | Codegen | Killed

let axis_label = function
  | Optimizer -> "optimizer-on vs optimizer-off"
  | Codegen -> "compiled vs interpreted handlers"
  | Killed -> "killed-and-recovered vs kill-free"

(* Both sides drain sequentially: the delivery hook runs inside the
   drain and must append to one list in a deterministic global order. *)
let variant_configs axis (cfg : Broker.config) =
  let base = { cfg with Broker.domains = 1 } in
  match axis with
  | Optimizer ->
    ( { base with Broker.optimize = true },
      { base with Broker.optimize = false } )
  | Codegen ->
    ( { base with Broker.optimize = true; compile = true },
      { base with Broker.optimize = true; compile = false } )
  | Killed ->
    (* supervised against kill-free: the recorded kill rate when the
       run had one, else a default heavy rate so replaying a kill-free
       log still exercises the checkpoint/restore/redeliver path.  The
       recovery invariant is that the two sides are observably
       byte-identical. *)
    let killed =
      if cfg.Broker.faults.Plan.kill_permille > 0 then cfg.Broker.faults
      else { cfg.Broker.faults with Plan.kill_permille = 150 }
    in
    ( { base with Broker.faults = killed },
      { base with Broker.faults = { cfg.Broker.faults with Plan.kill_permille = 0 } }
    )

type observed = {
  deliveries : string list;  (* rendered, global dispatch order, measured phase *)
  clients : string list;     (* rendered per-session outcome, session order *)
}

let render_delivery ~shard ~src ~seq ~ok ~payload =
  Printf.sprintf "shard %d %s#%d %s crc32=%08x" shard src seq
    (if ok then "ok" else "fail")
    (Crc32.compute payload land 0xffffffff)

(* The broken-handler fixture: deliberately corrupt every odd-seq op's
   payload just before dispatch.  Installed on one side only, it stands
   in for a miscompiled super-handler the oracle must catch. *)
let break_handler (p : Packet.t) =
  let payload = p.Packet.payload in
  if p.Packet.seq mod 2 = 1 && Bytes.length payload > 0 then begin
    let b = Bytes.copy payload in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
    b
  end
  else payload

(* One variant execution over the log: replay the warm-up untouched,
   then observe (and optionally tamper) the measured phase. *)
let run_side ?(tamper = false) (log : Log.t) (cfg : Broker.config) : observed =
  let broker = Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> Broker.shutdown broker)
    (fun () ->
      let table = Replay.arrival_table log in
      if log.Log.warmup_ops > 0 then begin
        ignore (Loadgen.run broker (Replay.make_sessions broker log table "w"));
        if cfg.Broker.optimize then Broker.force_reoptimize broker
      end;
      Broker.reset_measurements broker;
      let deliveries = ref [] in
      Broker.set_delivery_hook broker
        (Some
           (fun ~shard ~src ~seq ~ok ~payload ->
             deliveries := render_delivery ~shard ~src ~seq ~ok ~payload :: !deliveries));
      if tamper then Broker.set_tamper broker (Some break_handler);
      let sessions = Replay.make_sessions broker log table "m" in
      ignore (Loadgen.run broker sessions);
      let clients =
        List.map
          (fun s ->
            let st = Session.stats s in
            Printf.sprintf "%s: sent %d, retries %d, nacks %d, gave_up %d"
              (Session.id s) st.Session.sent st.Session.retries st.Session.nacks
              st.Session.gave_up)
          sessions
      in
      { deliveries = List.rev !deliveries; clients })

(* First observable difference: (what, left, right). *)
let compare_observed (a : observed) (b : observed) : (string * string * string) option
    =
  let rec first_list what n = function
    | x :: xs, y :: ys ->
      if String.equal x y then first_list what (n + 1) (xs, ys)
      else Some (Printf.sprintf "%s %d" what n, x, y)
    | x :: _, [] -> Some (Printf.sprintf "%s %d" what n, x, "<missing>")
    | [], y :: _ -> Some (Printf.sprintf "%s %d" what n, "<missing>", y)
    | [], [] -> None
  in
  match first_list "delivery" 1 (a.deliveries, b.deliveries) with
  | Some d -> Some d
  | None -> first_list "client" 1 (a.clients, b.clients)

(* Run both variants over [log] and return their first divergence. *)
let diverges ?(tamper = false) axis (log : Log.t) =
  let cfg_a, cfg_b = variant_configs axis log.Log.config in
  let a = run_side ~tamper log cfg_a in
  let b = run_side log cfg_b in
  compare_observed a b

(* --- shrinking --------------------------------------------------------- *)

(* Restrict the log to the kept session ids (both phases) and cap each
   measured session's op count.  The shrunk log is a reproducer input:
   its fault-draw streams and recorded document no longer correspond to
   a full run, so both are dropped. *)
let shrink_log (log : Log.t) ~keep ~ops_cap : Log.t =
  let kept id = List.mem id keep in
  let sessions =
    List.filter_map
      (fun (s : Log.sess) ->
        if not (kept s.Log.s_id) then None
        else if s.Log.s_phase = "m" && Array.length s.Log.s_ops > ops_cap then
          Some { s with Log.s_ops = Array.sub s.Log.s_ops 0 ops_cap }
        else Some s)
      log.Log.sessions
  in
  let arrivals =
    List.filter
      (fun (a : Log.arrival) ->
        kept a.Log.a_sid && (a.Log.a_phase = "w" || a.a_seq < ops_cap))
      log.Log.arrivals
  in
  {
    log with
    Log.profile =
      {
        log.Log.profile with
        Loadgen.sessions = List.length keep;
        ops = ops_cap;
      };
    sessions;
    arrivals;
    fault_draws = [];
    json = "";
  }

type shrink = {
  orig_sessions : int;
  orig_ops : int;
  kept : string list;
  ops_cap : int;
  minimal : Log.t;
  min_divergence : string * string * string;
}

type report = {
  axis : axis;
  deliveries : int;  (* observed on the first variant of the full log *)
  divergence : (string * string * string) option;
  shrink : shrink option;
}

let measured_ids (log : Log.t) =
  List.map (fun (s : Log.sess) -> s.Log.s_id) (Log.phase_sessions log "m")

let max_measured_ops (log : Log.t) =
  List.fold_left
    (fun acc (s : Log.sess) -> max acc (Array.length s.Log.s_ops))
    0
    (Log.phase_sessions log "m")

(* Greedy delta debugging: drop one session at a time (keeping the cut
   iff both variants still diverge on the shrunk log), then walk the
   per-session op cap down while the divergence survives. *)
let shrink_divergence ?(tamper = false) axis (log : Log.t) div0 : shrink =
  let orig_ids = measured_ids log in
  let orig_ops = max_measured_ops log in
  let still ~keep ~ops_cap =
    diverges ~tamper axis (shrink_log log ~keep ~ops_cap)
  in
  let keep =
    List.fold_left
      (fun keep id ->
        if List.length keep <= 1 then keep
        else
          let candidate = List.filter (( <> ) id) keep in
          match still ~keep:candidate ~ops_cap:orig_ops with
          | Some _ -> candidate
          | None -> keep)
      orig_ids orig_ids
  in
  let rec lower cap =
    if cap > 1 && Option.is_some (still ~keep ~ops_cap:(cap - 1)) then
      lower (cap - 1)
    else cap
  in
  let ops_cap = lower orig_ops in
  let minimal = shrink_log log ~keep ~ops_cap in
  let min_divergence =
    match diverges ~tamper axis minimal with
    | Some d -> d
    | None -> div0 (* unreachable: the last accepted candidate diverged *)
  in
  {
    orig_sessions = List.length orig_ids;
    orig_ops;
    kept = keep;
    ops_cap;
    minimal;
    min_divergence;
  }

(* The oracle entry point: run both variants on the full log, and on
   divergence shrink to a minimal reproducer. *)
let run ?(tamper = false) axis (log : Log.t) : report =
  let cfg_a, cfg_b = variant_configs axis log.Log.config in
  let a = run_side ~tamper log cfg_a in
  let b = run_side log cfg_b in
  match compare_observed a b with
  | None ->
    { axis; deliveries = List.length a.deliveries; divergence = None; shrink = None }
  | Some div ->
    {
      axis;
      deliveries = List.length a.deliveries;
      divergence = Some div;
      shrink = Some (shrink_divergence ~tamper axis log div);
    }

let pp_report ppf (r : report) =
  Fmt.pf ppf "axis: %s@." (axis_label r.axis);
  match r.divergence with
  | None ->
    Fmt.pf ppf "  no divergence: %d deliveries observably identical@." r.deliveries
  | Some (what, left, right) ->
    Fmt.pf ppf "  DIVERGENCE at %s:@.    left:  %s@.    right: %s@." what left right;
    (match r.shrink with
     | None -> ()
     | Some s ->
       Fmt.pf ppf "  shrink: sessions %d -> %d, ops %d -> %d@." s.orig_sessions
         (List.length s.kept) s.orig_ops s.ops_cap;
       Fmt.pf ppf "  minimal reproducer: sessions [%s], %d ops each@."
         (String.concat "; " s.kept) s.ops_cap;
       let what, left, right = s.min_divergence in
       Fmt.pf ppf "    %s: %s != %s@." what left right)
