(** The replayer: reconstruct a recorded run from its {!Log.t} alone
    and re-run it.

    Sessions are rebuilt from the logged payloads and schedules; links
    are fully scripted from the logged arrival outcomes (no PRNG is
    consulted); fault injectors are rebuilt from the logged spec and
    every draw is verified against the log.  The regenerated JSON
    document equals the recorded one byte-for-byte at any [domains]
    (the document deliberately omits the domain count). *)

type outcome = {
  json : string;          (** the regenerated document *)
  fault_mismatches : int;
      (** replayed fault draws that differed from (or overran) the
          recorded streams — non-zero means a PRNG or fault-plan
          regression *)
  summary : Podopt_broker.Loadgen.summary;
}

(** [run log] replays the log; [?domains] overrides the logged domain
    count, [?verify_faults] (default true) checks each fault draw
    against the log. *)
val run : ?domains:int -> ?verify_faults:bool -> Log.t -> outcome

(** First differing line of two documents as (1-based line number,
    first document's line, second's); [None] when byte-identical. *)
val first_diff : string -> string -> (int * string * string) option

(** {1 Building blocks (shared with the differential oracle)} *)

(** The recorded arrival outcomes keyed by
    (phase, session id, seq, attempt). *)
val arrival_table : Log.t -> (string * string * int * int, int) Hashtbl.t

(** Rebuild one phase's sessions over scripted links and register their
    nack callbacks with the broker.  Sends the recorded run never made
    (possible only on shrunk logs) fall back to the profile latency. *)
val make_sessions :
  Podopt_broker.Broker.t ->
  Log.t ->
  (string * string * int * int, int) Hashtbl.t ->
  string ->
  Podopt_broker.Session.t list
