(* The replayer: rebuild a recorded run entirely from its log — the
   broker from the logged config, each phase's sessions from the
   logged payloads and schedules, and the packet arrivals from the
   logged outcomes (scripted onto each session's link, so no PRNG is
   consulted) — then re-run the measured protocol.  The regenerated
   JSON document must equal the recorded one byte-for-byte, at any
   domain count.

   Fault draws are not scripted: the injectors are rebuilt from the
   same spec, so their streams reproduce by construction.  Instead the
   replay *verifies* each draw against the log, which turns any PRNG
   or fault-plan regression into a loud mismatch count rather than a
   silently different run. *)

module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen
module Session = Podopt_broker.Session
module Policy = Podopt_broker.Policy
module Report = Podopt_broker.Report
module Link = Podopt_net.Link
module Packet = Podopt_net.Packet

type outcome = {
  json : string;            (* the regenerated document *)
  fault_mismatches : int;   (* replayed fault draws that differed from the log *)
  summary : Loadgen.summary;
}

(* (phase, sid, seq, attempt) -> recorded link outcome *)
let arrival_table (log : Log.t) =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (a : Log.arrival) ->
      Hashtbl.replace tbl (a.Log.a_phase, a.a_sid, a.a_seq, a.a_attempt) a.a_outcome)
    log.Log.arrivals;
  tbl

(* Rebuild one phase's sessions.  Links are fully scripted: a send's
   outcome comes from the log, with the profile latency as the
   fallback for sends the recorded run never made (possible only on
   shrunk logs, where retry patterns may differ).  Open-loop arrival
   schedules are not logged: they are a pure function of recorded
   state — (spec, per-session seed, start, interval, op count) — so
   they are re-derived here exactly as
   {!Podopt_broker.Loadgen.make_sessions} derived them (sessions are
   listed in creation order, so position = session index). *)
let make_sessions broker (log : Log.t) table phase =
  let arrivals = log.Log.config.Broker.arrivals in
  List.mapi
    (fun i (s : Log.sess) ->
      let sid = s.Log.s_id in
      let link =
        Link.create ~latency:log.Log.profile.Loadgen.latency ~jitter:0 ()
      in
      Link.set_script link
        (Some
           (fun (pkt : Packet.t) ~attempt ->
             match Hashtbl.find_opt table (phase, sid, pkt.Packet.seq, attempt) with
             | Some -1 -> None
             | Some delay -> Some delay
             | None -> Some log.Log.profile.Loadgen.latency));
      let schedule =
        match arrivals with
        | Podopt_broker.Arrivals.Periodic -> None
        | spec ->
          let seed =
            Int64.add log.Log.config.Broker.seed (Int64.of_int (i + 1))
          in
          Some
            (Podopt_broker.Arrivals.schedule spec ~seed ~start:s.Log.s_start
               ~interval:s.Log.s_interval ~ops:(Array.length s.Log.s_ops))
      in
      let sess =
        Session.create ~id:sid ~link ~ops:s.Log.s_ops ~start:s.Log.s_start
          ~interval:s.Log.s_interval ?schedule ~backoff:Policy.default_backoff ()
      in
      Broker.register broker ~id:sid ~nack:(fun seq now ->
          Session.nack sess ~seq ~now);
      sess)
    (Log.phase_sessions log phase)

(* Verify each live fault draw against the recorded stream; counts (per
   (salt, kind) cell, so worker domains never share state) any draw
   that differs or overruns the log. *)
let install_fault_verifier broker (log : Log.t) =
  let streams = Hashtbl.create 32 in
  List.iter
    (fun (key, bits) ->
      Hashtbl.replace streams key (ref bits, ref 0))
    log.Log.fault_draws;
  let missing = (ref ([] : bool list), ref 0) in
  let cell_of key =
    match Hashtbl.find_opt streams key with
    | Some c -> c
    | None -> missing
  in
  (* every (salt, kind) a live injector can draw from must have a cell
     before the run starts: with domains > 1 the lookup happens on the
     shard's worker, which must not mutate the table *)
  let cfg = Broker.config broker in
  if Podopt_faults.Plan.enabled cfg.Broker.faults then
    for salt = 0 to cfg.Broker.shards do
      List.iter
        (fun kind ->
          let key = (salt, kind) in
          if not (Hashtbl.mem streams key) then
            Hashtbl.replace streams key (ref [], ref 0))
        Record.fault_kinds
    done;
  Broker.set_fault_logger broker
    (Some
       (fun ~salt ~kind ~fired ->
         let expected, mismatches = cell_of (salt, kind) in
         match !expected with
         | b :: rest ->
           expected := rest;
           if b <> fired then incr mismatches
         | [] -> incr mismatches));
  fun () ->
    Hashtbl.fold (fun _ (_, m) acc -> acc + !m) streams !(snd missing)

(* Re-run the logged run.  [domains] overrides the logged domain count
   (the document is domain-independent); [verify_faults] compares every
   fault draw against the log. *)
let run ?domains ?(verify_faults = true) (log : Log.t) : outcome =
  let cfg =
    {
      log.Log.config with
      Broker.domains =
        Option.value ~default:log.Log.config.Broker.domains domains;
    }
  in
  let broker = Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> Broker.shutdown broker)
    (fun () ->
      let mismatches =
        if verify_faults then install_fault_verifier broker log
        else fun () -> 0
      in
      let table = arrival_table log in
      if log.Log.warmup_ops > 0 then begin
        ignore (Loadgen.run broker (make_sessions broker log table "w"));
        if cfg.Broker.optimize then Broker.force_reoptimize broker
      end;
      Broker.reset_measurements broker;
      let summary = Loadgen.run broker (make_sessions broker log table "m") in
      let json = Report.json ~metrics:log.Log.metrics broker summary in
      { json; fault_mismatches = mismatches (); summary })

(* First line where two documents differ: (line number, recorded line,
   replayed line) — [None] on byte equality.  For the human-readable
   mismatch report. *)
let first_diff (a : string) (b : string) =
  if String.equal a b then None
  else
    let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
    let rec go n = function
      | x :: xs, y :: ys when String.equal x y -> go (n + 1) (xs, ys)
      | x :: _, y :: _ -> Some (n, x, y)
      | x :: _, [] -> Some (n, x, "<end of document>")
      | [], y :: _ -> Some (n, "<end of document>", y)
      | [], [] -> Some (n, "<end>", "<end>")
    in
    go 1 (la, lb)
