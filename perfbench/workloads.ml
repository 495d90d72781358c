(* The four broker workloads the benchmark runs.  Each one stresses a
   different layer (see WORKLOADS.md for the reasoning and the
   layer -> metric -> workload table).  Sizes are per round: the timed
   window replays the same profile round after round on one broker, for
   the number of rounds [rounds] gives. *)

module B = Podopt_broker

type t = {
  name : string;
  config : seed:int -> B.Broker.config;
  profile : B.Loadgen.profile;
  nominal_ops_per_s : float;
      (** the seed commit's throughput on a 2-core x86-64 host: sizes
          the timed window, so both sides of a comparison do the same
          work whatever their speed *)
  setups : int;  (** set-ups per end-to-end run *)
  shedding : [ `Required | `Allowed | `Forbidden ];
      (** whether ingress shedding must, may or must not show: only
          the workloads built to overflow capacity may shed *)
}

(* Warm-up ops per session, [Loadgen.steady]'s default. *)
let warmup_ops = 12

let base ~seed =
  { B.Broker.default_config with B.Broker.seed = Int64.of_int seed }

(* Link jitter makes the seed reach every workload: without it a
   periodic or flash schedule is the same for every seed. *)
let profile = { B.Loadgen.default_profile with B.Loadgen.jitter = 10 }

let seccomm_closed =
  {
    name = "seccomm-closed";
    config =
      (fun ~seed ->
        { (base ~seed) with B.Broker.kind = B.Workload.Seccomm; shards = 4 });
    profile =
      { profile with B.Loadgen.sessions = 16; ops = 12; spread = 12 };
    nominal_ops_per_s = 1_100.0;
    setups = 27;
    shedding = `Forbidden;
  }

let xwin_storm =
  {
    name = "xwin-storm";
    config =
      (fun ~seed ->
        {
          (base ~seed) with
          B.Broker.kind = B.Workload.Xwin;
          shards = 8;
          arrivals = B.Arrivals.Pareto 1.5;
        });
    profile =
      { profile with B.Loadgen.sessions = 2000; ops = 10 };
    nominal_ops_per_s = 110_000.0;
    setups = 21;
    shedding = `Forbidden;
  }

let chat_flash_par =
  {
    name = "chat-flash-par";
    config =
      (fun ~seed ->
        {
          (base ~seed) with
          B.Broker.kind = B.Workload.Chat;
          shards = 8;
          domains = 2;
          steal = true;
          route = B.Shard_map.Zipf 1.1;
          arrivals = B.Arrivals.Flash (2000, 3);
        });
    profile =
      {
        profile with
        B.Loadgen.sessions = 96;
        ops = 200;
        spread = 1;
      };
    nominal_ops_per_s = 80_000.0;
    setups = 51;
    shedding = `Required;
  }

let chat_chaos =
  {
    name = "chat-chaos";
    config =
      (fun ~seed ->
        {
          (base ~seed) with
          B.Broker.kind = B.Workload.Chat;
          shards = 8;
          faults =
            {
              Podopt_faults.Plan.none with
              Podopt_faults.Plan.seed = Int64.of_int seed;
              kill_permille = 20;
              crash_permille = 2;
            };
        });
    profile =
      { profile with B.Loadgen.sessions = 500; ops = 20 };
    nominal_ops_per_s = 27_000.0;
    setups = 17;
    shedding = `Allowed;
  }

let all = [ seccomm_closed; xwin_storm; chat_flash_par; chat_chaos ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Rounds in a timed window of [seconds] at the nominal rate (at
   least 3). *)
let rounds w ~seconds =
  let per_round = w.profile.B.Loadgen.sessions * w.profile.B.Loadgen.ops in
  max 3 (int_of_float (Float.ceil (seconds *. w.nominal_ops_per_s /. float_of_int per_round)))
