(** The persistent profile store: per-shard adaptive state (event-graph
    counters, hot chains, trace statistics, binding signatures)
    serialized to a versioned line-oriented file, so one run's profile
    can warm-start the next.

    A store is an id-sorted set of entries; an entry's id is the CRC-32
    of its canonical content, so {!merge} is a set union — associative,
    commutative, idempotent, and byte-identical under any merge order.
    Counter summation across entries happens at warm-start time, in
    {!aggregate}. *)

open Podopt_profile

exception Format_error of string

val version : int

type entry = {
  id : string;          (** CRC-32 (hex) of the entry's canonical body *)
  kind : string;        (** workload kind, e.g. ["seccomm"] *)
  shard : int;
  dispatched : int;     (** ops the shard served while profiling *)
  trace_entries : int;  (** trace entries folded into the graph *)
  graph : Event_graph.t;
  chains : string list list;
  handlers : (string * string list) list;
      (** event -> ordered handler names at capture time; the warm-start
          pass compares these against the live bindings to detect
          staleness *)
}

type t = entry list

val entries : t -> entry list

(** Build an entry, deriving its content id.  Raises {!Format_error} on
    names containing whitespace (no such names exist in this system). *)
val make_entry :
  kind:string -> shard:int -> dispatched:int ->
  trace_entries:int -> graph:Event_graph.t -> chains:string list list ->
  handlers:(string * string list) list -> unit -> entry

(** Id-keyed set union of the given entries (sorted, duplicates
    collapsed) — the normal form every store operation returns. *)
val of_entries : entry list -> t

val merge : t -> t -> t
val merge_all : t list -> t

(** Canonical serialization: same store value, same bytes. *)
val to_string : t -> string

(** Parse a store; every entry's stored id is re-derived from its
    content and must match.  Raises {!Format_error} on malformed input,
    any version but {!version}, a version-2 [D] record, or id/content
    mismatches. *)
val of_string : string -> t

val save : string -> t -> unit
val load : string -> t

type aggregate = {
  agg_graph : Event_graph.t;
      (** counter sum of every matching entry's graph *)
  agg_signatures : (string * string list) list;
      (** events whose stored binding signature is consistent across
          entries *)
  agg_conflicts : string list;
      (** events with disagreeing signatures — treated as stale *)
  agg_entries : int;  (** entries folded in *)
}

(** Fold every entry recorded for workload [kind] into one warm-start
    input. *)
val aggregate : kind:string -> t -> aggregate

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
