(* The on-disk run log: everything a broker run consumes, serialized so
   the run can be reconstructed offline — the replay analogue of
   Podopt_profile.Trace_io, and the same framing conventions (one
   record per line, whitespace-separated fields, [#] comments, a
   [Format_error] on anything malformed).

   Format (version 8, the only version this build reads or writes):

     V 8
     C <key>=<value> ...                           the broker config
     D <verbatim line>                             embedded profile store
     Y <crc32-hex>                                 digest of the D lines
     P <sessions> <ops> <interval> <spread> <latency> <jitter>
       <warmup_ops> <metrics>
     S <phase> <id> <start> <interval> <nops>      one per session
     O <phase> <id> <seq> <payload-hex>            one per op payload
     A <phase> <id> <seq> <attempt> <outcome>      arrival schedule
     F <salt> <kind> <bits>                        fault-draw decisions
     J <verbatim line>                             the original JSON doc

   [phase] is [w] (warm-up) or [m] (measured).  An arrival [outcome]
   is the link delivery delay, or [-1] for a lost packet.  [F] bits
   are the per-(salt, kind) draw stream in draw order, [1] = fired
   ([-] = no draws).  Payload hex uses [-] for empty payloads.

   A warm-started run's config carries its profile store; the [D] lines
   embed that store verbatim (the run's profile identity), and [Y] pins
   its CRC-32 — a swapped or edited profile fails the digest check at
   load, the same way replayed fault draws are verified against [F]
   lines.

   The [C] line is {!Podopt_broker.Broker.config_to_string}, parsed
   back by [config_of_string]: every config field but the profile
   (which the [D]/[Y] lines carry) as one [key=value] token, and an
   unknown, duplicate or missing key rejects the log.

   The per-session arrival schedules of an open-loop run are not
   recorded: they are a pure function of (spec, seed, session index),
   so replay re-derives them from the config.

   Any other [V] is rejected; such a log must be re-recorded. *)

module Plan = Podopt_faults.Plan
module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen

module Store = Podopt_store.Store
module Crc32 = Podopt_crypto.Crc32

exception Format_error of string

let format_error fmt = Format.kasprintf (fun s -> raise (Format_error s)) fmt
let version = 8

type sess = {
  s_phase : string;  (* "w" | "m" *)
  s_id : string;
  s_start : int;
  s_interval : int;
  s_ops : bytes array;
}

type arrival = {
  a_phase : string;
  a_sid : string;
  a_seq : int;
  a_attempt : int;
  a_outcome : int;  (* -1 = lost, else delivery delay *)
}

type t = {
  config : Broker.config;
  profile : Loadgen.profile;
  warmup_ops : int;
  metrics : bool;
  sessions : sess list;    (* creation order: warm-up phase, then measured *)
  arrivals : arrival list; (* send order *)
  fault_draws : ((int * string) * bool list) list;
      (* (salt, kind) -> fired bits in draw order; sorted by key *)
  json : string;           (* the run's serve-JSON document, newline-terminated *)
}

(* --- small codecs ------------------------------------------------------ *)

let to_hex (b : bytes) : string =
  if Bytes.length b = 0 then "-"
  else
    let digits = "0123456789abcdef" in
    String.init
      (2 * Bytes.length b)
      (fun i ->
        let c = Char.code (Bytes.get b (i / 2)) in
        digits.[if i mod 2 = 0 then c lsr 4 else c land 15])

let of_hex (s : string) : bytes =
  if s = "-" then Bytes.create 0
  else begin
    if String.length s mod 2 <> 0 then format_error "odd-length hex %S" s;
    let v c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | _ -> format_error "bad hex digit %C in %S" c s
    in
    Bytes.init
      (String.length s / 2)
      (fun i -> Char.chr ((v s.[2 * i] * 16) + v s.[(2 * i) + 1]))
  end

let bits_of_bools = function
  | [] -> "-"
  | bs -> String.concat "" (List.map (fun b -> if b then "1" else "0") bs)

let bools_of_bits = function
  | "-" -> []
  | s ->
    List.init (String.length s) (fun i ->
        match s.[i] with
        | '1' -> true
        | '0' -> false
        | c -> format_error "bad draw bit %C in %S" c s)

let check_phase = function
  | ("w" | "m") as p -> p
  | p -> format_error "bad phase %S (expected w or m)" p

let int_field what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> format_error "bad %s %S" what s

let bool_field what s =
  match bool_of_string_opt s with
  | Some b -> b
  | None -> format_error "bad %s %S (expected true or false)" what s

(* --- encode ------------------------------------------------------------ *)

let to_string (t : t) : string =
  let buf = Buffer.create 8192 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let cfg = t.config and p = t.profile in
  line "# podopt replay log";
  line "V %d" version;
  line "C %s" (Broker.config_to_string cfg);
  (match cfg.Broker.profile_in with
   | None -> ()
   | Some store ->
     (* the profile is this run's identity: embed it verbatim and pin
        its digest, so a swapped profile is caught at load time *)
     let body = Store.to_string store in
     let slines = String.split_on_char '\n' body in
     let slines =
       match List.rev slines with "" :: rev -> List.rev rev | _ -> slines
     in
     List.iter (fun l -> if l = "" then line "D" else line "D %s" l) slines;
     line "Y %08x" (Crc32.of_string body));
  line "P %d %d %d %d %d %d %d %b" p.Loadgen.sessions p.Loadgen.ops
    p.Loadgen.interval p.Loadgen.spread p.Loadgen.latency p.Loadgen.jitter
    t.warmup_ops t.metrics;
  List.iter
    (fun s ->
      line "S %s %s %d %d %d" s.s_phase s.s_id s.s_start s.s_interval
        (Array.length s.s_ops);
      Array.iteri (fun seq op -> line "O %s %s %d %s" s.s_phase s.s_id seq (to_hex op)) s.s_ops)
    t.sessions;
  List.iter
    (fun a -> line "A %s %s %d %d %d" a.a_phase a.a_sid a.a_seq a.a_attempt a.a_outcome)
    t.arrivals;
  List.iter
    (fun ((salt, kind), bits) -> line "F %d %s %s" salt kind (bits_of_bools bits))
    (List.sort compare t.fault_draws);
  if t.json <> "" then begin
    let jlines = String.split_on_char '\n' t.json in
    (* the document is newline-terminated: drop the final empty element *)
    let jlines =
      match List.rev jlines with "" :: rev -> List.rev rev | _ -> jlines
    in
    List.iter (fun l -> if l = "" then line "J" else line "J %s" l) jlines
  end;
  Buffer.contents buf

(* --- decode ------------------------------------------------------------ *)

let of_string (s : string) : t =
  let saw_version = ref false in
  let config = ref None in
  let profile = ref None in
  let warmup_ops = ref 0 in
  let metrics = ref false in
  let sessions = ref [] in  (* (phase, id, start, interval, nops) rev *)
  let ops : (string * string, (int * bytes) list ref) Hashtbl.t = Hashtbl.create 64 in
  let arrivals = ref [] in
  let faults = ref [] in
  let jlines = ref [] in
  let dlines = ref [] in
  let ydigest = ref None in
  let dispatch line =
    let fields = String.split_on_char ' ' line |> List.filter (( <> ) "") in
    match fields with
    | [] -> ()
    | [ "V"; v ] ->
      let v = int_field "version" v in
      if v <> version then
        format_error "unsupported log version %d (this build reads %d; re-record the run)"
          v version;
      saw_version := true
    | "C" :: _ ->
      let body = String.sub line 1 (String.length line - 1) in
      (match Broker.config_of_string body with
       | Ok c -> config := Some c
       | Error e -> format_error "bad C line: %s" e)
    | [ "P"; sessions'; ops'; interval; spread; latency; jitter; warmup; metrics' ] ->
      profile :=
        Some
          {
            Loadgen.sessions = int_field "sessions" sessions';
            ops = int_field "ops" ops';
            interval = int_field "interval" interval;
            spread = int_field "spread" spread;
            latency = int_field "latency" latency;
            jitter = int_field "jitter" jitter;
          };
      warmup_ops := int_field "warmup_ops" warmup;
      metrics := bool_field "metrics" metrics'
    | [ "S"; phase; id; start; interval; nops ] ->
      sessions :=
        ( check_phase phase, id, int_field "start" start,
          int_field "interval" interval, int_field "nops" nops )
        :: !sessions
    | [ "O"; phase; id; seq; hex ] ->
      let key = (check_phase phase, id) in
      let cell =
        match Hashtbl.find_opt ops key with
        | Some c -> c
        | None ->
          let c = ref [] in
          Hashtbl.add ops key c;
          c
      in
      cell := (int_field "seq" seq, of_hex hex) :: !cell
    | [ "A"; phase; sid; seq; attempt; outcome ] ->
      arrivals :=
        {
          a_phase = check_phase phase;
          a_sid = sid;
          a_seq = int_field "seq" seq;
          a_attempt = int_field "attempt" attempt;
          a_outcome = int_field "outcome" outcome;
        }
        :: !arrivals
    | [ "F"; salt; kind; bits ] ->
      faults := ((int_field "salt" salt, kind), bools_of_bits bits) :: !faults
    | [ "Y"; digest ] -> ydigest := Some digest
    | tag :: _ -> format_error "bad record tag %S in line %S" tag line
  in
  List.iter
    (fun raw ->
      (* J and D lines carry their documents verbatim (spaces included) *)
      if raw = "J" then jlines := "" :: !jlines
      else if String.length raw >= 2 && raw.[0] = 'J' && raw.[1] = ' ' then
        jlines := String.sub raw 2 (String.length raw - 2) :: !jlines
      else if raw = "D" then dlines := "" :: !dlines
      else if String.length raw >= 2 && raw.[0] = 'D' && raw.[1] = ' ' then
        dlines := String.sub raw 2 (String.length raw - 2) :: !dlines
      else
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then () else dispatch line)
    (String.split_on_char '\n' s);
  if not !saw_version then format_error "missing V line";
  let config = match !config with Some c -> c | None -> format_error "missing C line" in
  let profile = match !profile with Some p -> p | None -> format_error "missing P line" in
  let sessions =
    List.rev_map
      (fun (phase, id, start, interval, nops) ->
        let collected =
          match Hashtbl.find_opt ops (phase, id) with Some c -> !c | None -> []
        in
        let arr = Array.make nops (Bytes.create 0) in
        let seen = Array.make nops false in
        List.iter
          (fun (seq, payload) ->
            if seq < 0 || seq >= nops then
              format_error "op seq %d out of range for session %s/%s" seq phase id;
            arr.(seq) <- payload;
            seen.(seq) <- true)
          collected;
        Array.iteri
          (fun seq ok ->
            if not ok then format_error "missing op %d for session %s/%s" seq phase id)
          seen;
        { s_phase = phase; s_id = id; s_start = start; s_interval = interval; s_ops = arr })
      !sessions
  in
  let profile_in =
    match List.rev !dlines with
    | [] ->
      if !ydigest <> None then
        format_error "Y digest line without an embedded profile";
      None
    | lines ->
      let body = String.concat "\n" lines ^ "\n" in
      (match !ydigest with
       | None -> format_error "embedded profile is missing its Y digest line"
       | Some d ->
         let actual = Printf.sprintf "%08x" (Crc32.of_string body) in
         if not (String.equal d actual) then
           format_error
             "embedded profile digest mismatch (log says %s, content is %s): \
              the profile was altered after recording" d actual);
      (match Store.of_string body with
       | store -> Some store
       | exception Store.Format_error e ->
         format_error "bad embedded profile: %s" e)
  in
  let config = { config with Broker.profile_in } in
  let json =
    match List.rev !jlines with
    | [] -> ""
    | lines -> String.concat "\n" lines ^ "\n"
  in
  {
    config;
    profile;
    warmup_ops = !warmup_ops;
    metrics = !metrics;
    sessions;
    arrivals = List.rev !arrivals;
    fault_draws = List.sort compare (List.rev !faults);
    json;
  }

let save (path : string) (t : t) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load (path : string) : t =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

(* Sessions of one phase, in creation order. *)
let phase_sessions t phase = List.filter (fun s -> s.s_phase = phase) t.sessions
