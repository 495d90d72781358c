(* Record/replay: log codec round-trips (qcheck), replay reproduces the
   recorded document byte-for-byte at any domain count, fault draws
   verify against the recording, and the differential oracle finds and
   shrinks a planted handler bug. *)

module B = Podopt_broker
module RL = Podopt.Replay_log
module Record = Podopt.Record
module Replay = Podopt.Replay
module Diff = Podopt.Replay_diff

(* --- config codec (the C line) ----------------------------------------- *)

(* Every config field the codec carries, over its whole domain: floats
   in quarter steps so the %g text form is exact, fault specs either
   none or enabled (a disabled spec prints as "none" and drops its seed
   by design). *)
let gen_config =
  let open QCheck2.Gen in
  let* shards = 1 -- 64 in
  let* batch = 1 -- 512 in
  let* queue_limit = 1 -- 4096 in
  let* policy = oneofl [ B.Policy.Drop_newest; B.Policy.Drop_oldest ] in
  let* kind =
    oneofl [ B.Workload.Video; B.Workload.Seccomm; B.Workload.Xwin; B.Workload.Chat ]
  in
  let* optimize = bool in
  let* compile = bool in
  let* seed = map Int64.of_int int in
  let* tick = 1 -- 1000 in
  let* domains = 1 -- 8 in
  let* faults =
    let permille = 0 -- 1000 in
    oneof
      [
        return Podopt.Faults.none;
        (let* seed = map Int64.of_int int in
         let* crash = 1 -- 1000 in
         let* spike = permille in
         let* spike_cost = 1 -- 100_000 in
         let* corrupt = permille in
         let* drop = permille in
         let* kill = permille in
         return
           {
             Podopt.Faults.seed;
             crash_permille = crash;
             spike_permille = spike;
             spike_cost;
             corrupt_permille = corrupt;
             drop_permille = drop;
             kill_permille = kill;
           });
      ]
  in
  let* checkpoint_every = 1 -- 64 in
  let* route =
    oneof
      [
        return B.Shard_map.Hash;
        map (fun q -> B.Shard_map.Zipf (float_of_int q /. 4.0)) (1 -- 12);
      ]
  in
  let* arrivals =
    oneof
      [
        return B.Arrivals.Periodic;
        return B.Arrivals.Uniform;
        map (fun q -> B.Arrivals.Pareto (1.0 +. (float_of_int q /. 4.0))) (1 -- 12);
        map2 (fun t m -> B.Arrivals.Flash (t, m)) (1 -- 5000) (2 -- 16);
      ]
  in
  return
    {
      B.Broker.default_config with
      B.Broker.shards;
      batch;
      queue_limit;
      policy;
      kind;
      optimize;
      compile;
      seed;
      tick;
      domains;
      faults;
      checkpoint_every;
      route;
      arrivals;
    }

let prop_config_roundtrip =
  QCheck2.Test.make ~name:"config codec round-trips every field" ~count:300
    ~print:B.Broker.config_to_string gen_config (fun cfg ->
      B.Broker.config_of_string (B.Broker.config_to_string cfg) = Ok cfg)

(* The parser accepts exactly the written key set: an unknown, a
   duplicate or a missing key is an error naming the key, and so is a
   count the broker would refuse to create. *)
let test_config_rejects_bad_keys () =
  let text = B.Broker.config_to_string B.Broker.default_config in
  let rejects what ~mentions text =
    match B.Broker.config_of_string text with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error %S names %S" what msg mentions)
        true
        (Astring_contains.contains msg mentions)
  in
  (match B.Broker.config_of_string text with
   | Ok cfg ->
     Alcotest.(check bool) "default round-trips" true (cfg = B.Broker.default_config)
   | Error e -> Alcotest.failf "default config rejected: %s" e);
  rejects "unknown key" ~mentions:"batch-k" (text ^ " batch-k=off");
  rejects "duplicate key" ~mentions:"shards" (text ^ " shards=3");
  let without key =
    String.split_on_char ' ' text
    |> List.filter (fun tok -> not (String.starts_with ~prefix:(key ^ "=") tok))
    |> String.concat " "
  in
  rejects "missing key" ~mentions:"tick" (without "tick");
  rejects "bad value" ~mentions:"shards" ("shards=two " ^ without "shards");
  rejects "removed steal key" ~mentions:"steal" (text ^ " steal=true");
  List.iter
    (fun (key, v) ->
      rejects
        (Printf.sprintf "%s=%s" key v)
        ~mentions:key
        (Printf.sprintf "%s=%s %s" key v (without key)))
    [
      ("shards", "0");
      ("batch", "-1");
      ("queue-limit", "0");
      ("tick", "0");
      ("domains", "0");
      ("checkpoint-every", "0");
    ]

(* --- log version gate ---------------------------------------------------- *)

let test_log_rejects_other_versions () =
  let text =
    RL.to_string
      (Record.run ~warmup_ops:0 B.Broker.default_config
         { B.Loadgen.default_profile with B.Loadgen.sessions = 1; ops = 1 })
  in
  let current = Printf.sprintf "\nV %d\n" RL.version in
  Alcotest.(check bool) "log carries the current version" true
    (Astring_contains.contains text current);
  (* a version-6 log: positional C line, as that format wrote it *)
  let v6 =
    "V 6\nC 2 16 64 newest seccomm true true 42 50 1 none off 8 true hash periodic\n"
  in
  (* a version-7 log: key=value C line with the removed steal key *)
  let v7 =
    "V 7\nC shards=2 batch=16 queue-limit=64 policy=newest kind=seccomm \
     optimize=true compile=true seed=42 tick=50 domains=1 faults=none \
     checkpoint-every=8 steal=true route=hash arrivals=periodic\n"
  in
  List.iter
    (fun (v, text) ->
      match RL.of_string text with
      | _ -> Alcotest.failf "v%d log loaded" v
      | exception RL.Format_error msg ->
        Alcotest.(check string) "error names the version"
          (Printf.sprintf
             "unsupported log version %d (this build reads %d; re-record the run)"
             v RL.version)
          msg)
    [ (6, v6); (7, v7) ]

(* --- log codec round-trip (property) ----------------------------------- *)

let gen_log =
  let open QCheck2.Gen in
  let gen_payload = map Bytes.of_string (string_size ~gen:char (0 -- 12)) in
  let gen_sess phase idx =
    let* start = 0 -- 500 in
    let* interval = 1 -- 300 in
    let* nops = 0 -- 4 in
    let* ops = list_repeat nops gen_payload in
    return
      {
        RL.s_phase = phase;
        s_id = Printf.sprintf "%s%02d" phase idx;
        s_start = start;
        s_interval = interval;
        s_ops = Array.of_list ops;
      }
  in
  let rec gen_phase phase n i =
    if i >= n then return []
    else
      let* s = gen_sess phase i in
      let* rest = gen_phase phase n (i + 1) in
      return (s :: rest)
  in
  let gen_id =
    let* a = 0 -- 25 in
    let* b = 0 -- 25 in
    return (Printf.sprintf "%c%c" (Char.chr (97 + a)) (Char.chr (97 + b)))
  in
  let gen_arrival =
    let* phase = oneofl [ "w"; "m" ] in
    let* sid = gen_id in
    let* seq = 0 -- 10 in
    let* attempt = 0 -- 3 in
    let* outcome = -1 -- 100 in
    return { RL.a_phase = phase; a_sid = sid; a_seq = seq; a_attempt = attempt;
             a_outcome = outcome }
  in
  let* shards = 1 -- 4 in
  let* optimize = bool in
  let* compile = bool in
  let* route =
    oneof
      [
        return B.Shard_map.Hash;
        (* quarter steps are exact binary floats, so the %g text form
           round-trips through route_of_string without drift *)
        map (fun q -> B.Shard_map.Zipf (float_of_int q /. 4.0)) (1 -- 8);
      ]
  in
  let* seed = map Int64.of_int (0 -- 10_000) in
  let* policy = oneofl [ B.Policy.Drop_newest; B.Policy.Drop_oldest ] in
  let* kind = oneofl [ B.Workload.Video; B.Workload.Seccomm ] in
  let* faults =
    oneof
      [
        return Podopt.Faults.none;
        (let* c = 1 -- 1000 in
         return { Podopt.Faults.none with Podopt.Faults.seed = 3L;
                  crash_permille = c });
      ]
  in
  let config =
    {
      B.Broker.default_config with
      B.Broker.shards;
      optimize;
      compile;
      seed;
      policy;
      kind;
      route;
      faults;
    }
  in
  let* profile =
    let* sessions = 1 -- 8 in
    let* ops = 1 -- 8 in
    let* interval = 1 -- 300 in
    let* spread = 1 -- 60 in
    let* latency = 1 -- 80 in
    let* jitter = 0 -- 10 in
    return { B.Loadgen.sessions; ops; interval; spread; latency; jitter }
  in
  let* warmup_ops = 0 -- 16 in
  let* metrics = bool in
  let* nw = 0 -- 3 in
  let* nm = 0 -- 3 in
  let* warm = gen_phase "w" nw 0 in
  let* meas = gen_phase "m" nm 0 in
  let* arrivals = list_size (0 -- 8) gen_arrival in
  let* entries =
    list_size (0 -- 3)
      (let* salt = 0 -- 4 in
       let* kind = oneofl Record.fault_kinds in
       let* bits = list_size (0 -- 8) bool in
       return ((salt, kind), bits))
  in
  (* unique, sorted (salt, kind) keys, as the recorder produces *)
  let fault_draws =
    List.sort compare entries
    |> List.fold_left
         (fun acc ((k, _) as e) ->
           match acc with (k', _) :: _ when k' = k -> acc | _ -> e :: acc)
         []
    |> List.rev
  in
  let* jraw = list_size (0 -- 4) (string_size ~gen:printable (0 -- 20)) in
  let jlines =
    List.map (String.map (fun c -> if c = '\n' then ' ' else c)) jraw
  in
  let json = match jlines with [] -> "" | ls -> String.concat "\n" ls ^ "\n" in
  return
    {
      RL.config;
      profile;
      warmup_ops;
      metrics;
      sessions = warm @ meas;
      arrivals;
      fault_draws;
      json;
    }

let prop_log_roundtrip =
  QCheck2.Test.make ~name:"log text codec round-trips" ~count:200 gen_log
    (fun log -> RL.of_string (RL.to_string log) = log)

(* --- replay = record ---------------------------------------------------- *)

let profile =
  {
    B.Loadgen.default_profile with
    B.Loadgen.sessions = 4;
    ops = 4;
    interval = 120;
    latency = 50;
    jitter = 3;
  }

let record ?(faults = Podopt.Faults.none) ?(sessions = 4) ?(ops = 4) () =
  let cfg = { B.Broker.default_config with shards = 2; seed = 7L; faults } in
  Record.run ~warmup_ops:12 cfg { profile with B.Loadgen.sessions; ops }

let test_replay_reproduces () =
  let log = record () in
  (* round-trip through the text format first: replaying the decoded log
     proves the file alone reconstructs the run *)
  let log = RL.of_string (RL.to_string log) in
  let o1 = Replay.run ~domains:1 log in
  let o4 = Replay.run ~domains:4 log in
  Alcotest.(check string) "byte-identical at domains 1" log.RL.json o1.Replay.json;
  Alcotest.(check string) "byte-identical at domains 4" log.RL.json o4.Replay.json;
  Alcotest.(check int) "no fault mismatches (d1)" 0 o1.Replay.fault_mismatches;
  Alcotest.(check int) "no fault mismatches (d4)" 0 o4.Replay.fault_mismatches

let test_replay_verifies_fault_draws () =
  let faults =
    { Podopt.Faults.none with Podopt.Faults.seed = 5L; crash_permille = 150;
      drop_permille = 30 }
  in
  let log = record ~faults () in
  Alcotest.(check bool) "recorded some fault draws" true (log.RL.fault_draws <> []);
  let o = Replay.run ~domains:1 log in
  Alcotest.(check string) "faulty run reproduces" log.RL.json o.Replay.json;
  Alcotest.(check int) "every draw matches the recording" 0
    o.Replay.fault_mismatches;
  (* corrupt one recorded stream: the verifier must report it *)
  let broken =
    { log with
      RL.fault_draws =
        List.map
          (fun (k, bits) -> (k, List.map not bits))
          log.RL.fault_draws }
  in
  let o' = Replay.run ~domains:1 broken in
  Alcotest.(check bool) "tampered streams are caught" true
    (o'.Replay.fault_mismatches > 0)

let prop_replay_identity =
  QCheck2.Test.make
    ~name:"replay reproduces the document at domains 1 and 4" ~count:5
    QCheck2.Gen.(triple (1 -- 3) (2 -- 6) (0 -- 1000))
    (fun (shards, sessions, seed) ->
      let cfg =
        { B.Broker.default_config with shards; seed = Int64.of_int seed }
      in
      let log =
        Record.run ~warmup_ops:12 cfg
          { profile with B.Loadgen.sessions; ops = 3 }
      in
      let log = RL.of_string (RL.to_string log) in
      let o1 = Replay.run ~domains:1 log in
      let o4 = Replay.run ~domains:4 log in
      o1.Replay.json = log.RL.json
      && o4.Replay.json = log.RL.json
      && o1.Replay.fault_mismatches = 0
      && o4.Replay.fault_mismatches = 0)

(* --- warm-started runs carry their profile ------------------------------ *)

(* A profile store captured from a short steady run, for warm-start
   recordings. *)
let seed_store () =
  let cfg = { B.Broker.default_config with shards = 2; seed = 7L } in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      ignore (B.Loadgen.steady ~warmup_ops:12 broker profile);
      B.Broker.profile_store broker)

let record_warm () =
  let cfg =
    { B.Broker.default_config with shards = 2; seed = 7L;
      profile_in = Some (seed_store ()) }
  in
  Record.run ~warmup_ops:0 cfg profile

let test_replay_warm_run () =
  let log = record_warm () in
  (* the log embeds the profile: it survives the text codec and the
     replayed run warm-starts identically at any domain count *)
  let log = RL.of_string (RL.to_string log) in
  Alcotest.(check bool) "log carries the profile" true
    (log.RL.config.B.Broker.profile_in <> None);
  let o1 = Replay.run ~domains:1 log in
  let o4 = Replay.run ~domains:4 log in
  Alcotest.(check string) "byte-identical at domains 1" log.RL.json o1.Replay.json;
  Alcotest.(check string) "byte-identical at domains 4" log.RL.json o4.Replay.json

let test_replay_profile_tamper () =
  let text = RL.to_string (record_warm ()) in
  (* swap the embedded profile's workload kind: the Y digest no longer
     matches, exactly like a tampered fault stream *)
  let lines = String.split_on_char '\n' text in
  let tampered =
    List.map
      (fun l ->
        if String.length l > 2 && String.sub l 0 2 = "D " then
          String.concat "x" (String.split_on_char 'm' l)
        else l)
      lines
    |> String.concat "\n"
  in
  Alcotest.(check bool) "tamper changed the log" false
    (String.equal text tampered);
  (match RL.of_string tampered with
   | _ -> Alcotest.fail "tampered profile loaded"
   | exception RL.Format_error msg ->
     Alcotest.(check bool)
       (Printf.sprintf "error names the digest (%s)" msg)
       true
       (List.exists
          (fun w -> w = "digest")
          (String.split_on_char ' ' msg)));
  (* untampered text still loads *)
  ignore (RL.of_string text)

(* --- differential oracle ------------------------------------------------ *)

let test_diff_clean () =
  let log = record () in
  List.iter
    (fun axis ->
      let r = Diff.run axis log in
      Alcotest.(check bool)
        (Diff.axis_label axis ^ ": no divergence")
        true
        (r.Diff.divergence = None);
      Alcotest.(check bool)
        (Diff.axis_label axis ^ ": observed deliveries")
        true (r.Diff.deliveries > 0))
    [ Diff.Optimizer; Diff.Codegen ]

let test_diff_finds_and_shrinks () =
  let log = record ~sessions:6 ~ops:8 () in
  let r = Diff.run ~tamper:true Diff.Codegen log in
  Alcotest.(check bool) "planted bug diverges" true (r.Diff.divergence <> None);
  match r.Diff.shrink with
  | None -> Alcotest.fail "divergence did not shrink"
  | Some s ->
    Alcotest.(check int) "started from 6 sessions" 6 s.Diff.orig_sessions;
    Alcotest.(check bool)
      (Printf.sprintf "minimal reproducer has <= 2 sessions (%d)"
         (List.length s.Diff.kept))
      true
      (List.length s.Diff.kept <= 2);
    Alcotest.(check bool)
      (Printf.sprintf "ops cap shrank below 8 (%d)" s.Diff.ops_cap)
      true (s.Diff.ops_cap < 8);
    (* the minimal log still reproduces the divergence on its own, even
       after a trip through the text codec *)
    let minimal = RL.of_string (RL.to_string s.Diff.minimal) in
    let r' = Diff.run ~tamper:true Diff.Codegen minimal in
    Alcotest.(check bool) "minimal log still diverges" true
      (r'.Diff.divergence <> None)

let suite =
  [
    Alcotest.test_case "config codec rejects bad keys" `Quick
      test_config_rejects_bad_keys;
    Alcotest.test_case "log rejects other versions" `Quick
      test_log_rejects_other_versions;
    Alcotest.test_case "replay reproduces the document" `Quick
      test_replay_reproduces;
    Alcotest.test_case "replay verifies fault draws" `Quick
      test_replay_verifies_fault_draws;
    Alcotest.test_case "warm-started run replays with its profile" `Quick
      test_replay_warm_run;
    Alcotest.test_case "tampered embedded profile is rejected" `Quick
      test_replay_profile_tamper;
    Alcotest.test_case "diff: clean log has no divergence" `Quick
      test_diff_clean;
    Alcotest.test_case "diff: planted bug found and shrunk" `Quick
      test_diff_finds_and_shrinks;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_config_roundtrip; prop_log_roundtrip; prop_replay_identity ]
