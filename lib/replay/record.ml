(* The run recorder: drive the broker through the exact measured
   protocol of Loadgen.steady while capturing everything the run
   consumes — per-session op payloads and schedules, the arrival
   outcome of every link send (via Link.set_logger), and every
   fault-plan draw (via Broker.set_fault_logger) — then bundle it with
   the run's JSON document into a Log.t. *)

module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen
module Session = Podopt_broker.Session
module Report = Podopt_broker.Report
module Link = Podopt_net.Link
module Packet = Podopt_net.Packet
module Plan = Podopt_faults.Plan

let fault_kinds = [ "crash"; "spike"; "corrupt"; "drop"; "kill" ]

let sess_of ~phase s =
  {
    Log.s_phase = phase;
    s_id = Session.id s;
    s_start = Session.start s;
    s_interval = Session.interval s;
    s_ops = Session.ops s;
  }

let run ?(warmup_ops = 12) ?(metrics = false) (cfg : Broker.config)
    (profile : Loadgen.profile) : Log.t =
  let broker = Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> Broker.shutdown broker)
    (fun () ->
      let arrivals = ref [] in
      (* One fired-bit buffer per (salt, kind).  All cells are created
         up front on the coordinator: with domains > 1 each shard's
         draws arrive on whichever worker claimed the shard, which then
         only ever mutates that shard's pre-existing cell. *)
      let draws : (int * string, bool list ref) Hashtbl.t = Hashtbl.create 32 in
      if Plan.enabled cfg.Broker.faults then
        for salt = 0 to cfg.Broker.shards do
          List.iter (fun kind -> Hashtbl.replace draws (salt, kind) (ref [])) fault_kinds
        done;
      Broker.set_fault_logger broker
        (Some
           (fun ~salt ~kind ~fired ->
             let cell = Hashtbl.find draws (salt, kind) in
             cell := fired :: !cell));
      let recorded = ref [] in
      let phase_run phase prof =
        let sessions = Loadgen.make_sessions broker prof in
        recorded := !recorded @ List.map (sess_of ~phase) sessions;
        List.iter
          (fun s ->
            let sid = Session.id s in
            Link.set_logger (Session.link s)
              (Some
                 (fun (pkt : Packet.t) ~attempt outcome ->
                   arrivals :=
                     {
                       Log.a_phase = phase;
                       a_sid = sid;
                       a_seq = pkt.Packet.seq;
                       a_attempt = attempt;
                       a_outcome = (match outcome with None -> -1 | Some d -> d);
                     }
                     :: !arrivals)))
          sessions;
        Loadgen.run broker sessions
      in
      (* the Loadgen.steady protocol, instrumented *)
      if warmup_ops > 0 then begin
        ignore (phase_run "w" { profile with Loadgen.ops = warmup_ops });
        if cfg.Broker.optimize then Broker.force_reoptimize broker
      end;
      Broker.reset_measurements broker;
      let summary = phase_run "m" profile in
      let json = Report.json ~metrics broker summary in
      let fault_draws =
        Hashtbl.fold (fun key cell acc -> (key, List.rev !cell) :: acc) draws []
        |> List.filter (fun (_, bits) -> bits <> [])
        |> List.sort compare
      in
      {
        Log.config = cfg;
        profile;
        warmup_ops;
        metrics;
        sessions = !recorded;
        arrivals = List.rev !arrivals;
        fault_draws;
        json;
      })
