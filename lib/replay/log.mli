(** Versioned on-disk run log for deterministic record/replay.

    A log captures everything a broker run consumes — the broker
    configuration, the workload profile, every session's op payloads
    and schedule (per phase: [w]arm-up and [m]easured), the packet
    arrival schedule the links produced, and the fault plan's draw
    decisions — plus the run's [serve --json] document, so a replay
    can be checked for byte-identity.

    The format is line-oriented text with the same conventions as
    {!Podopt_profile.Trace_io}: one record per line, whitespace-
    separated fields, [#] comments, and a {!Format_error} on anything
    malformed.  See [log.ml] for the exact grammar. *)

module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen

exception Format_error of string

(** The current (and only) format version, written as the [V] line. *)
val version : int

type sess = {
  s_phase : string;  (** ["w"] warm-up or ["m"] measured *)
  s_id : string;
  s_start : int;     (** absolute front-clock time of the first op *)
  s_interval : int;
  s_ops : bytes array;
}

type arrival = {
  a_phase : string;
  a_sid : string;
  a_seq : int;
  a_attempt : int;  (** per-seq send attempt, 0 = first *)
  a_outcome : int;  (** link delivery delay, or [-1] for a lost packet *)
}

type t = {
  config : Broker.config;
  profile : Loadgen.profile;
  warmup_ops : int;
  metrics : bool;          (** the recorded document included metrics *)
  sessions : sess list;    (** creation order, warm-up phase first *)
  arrivals : arrival list; (** send order *)
  fault_draws : ((int * string) * bool list) list;
      (** (salt, fault kind) -> fired bits in draw order, key-sorted *)
  json : string;           (** the recorded run's JSON document *)
}

val to_string : t -> string

(** Raises {!Format_error} on malformed input. *)
val of_string : string -> t

val save : string -> t -> unit
val load : string -> t

(** Sessions of phase ["w"] or ["m"], in creation order. *)
val phase_sessions : t -> string -> sess list

(**/**)

val to_hex : bytes -> string
val of_hex : string -> bytes
