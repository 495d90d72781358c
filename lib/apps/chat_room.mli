(** Chat room with fan-out delivery: one inbound message raises N
    outbound deliveries (the telegram-bot shape — a post to a room is
    amplified to every member).  The whole fan-out runs as a
    synchronous event chain (ChatMsg -> ChatFanout -> ChatDeliver x N),
    so one op's handler work scales with the fan-out width — the
    amplification pattern the broker's drain batches and shedding machinery
    is meant to absorb. *)

open Podopt_eventsys

val create : ?costs:Costs.model -> unit -> Runtime.t

(** Deterministic message payload: byte 0 is the fan-out width
    (clamped to [1, 255]), the rest filler content. *)
val message : fanout:int -> size:int -> int -> bytes

(** Post one message to the room (raises the ChatMsg chain). *)
val push : Runtime.t -> bytes -> unit

(** Outbound deliveries so far (the fan-out side effect). *)
val delivered : Runtime.t -> int

(** Messages received so far. *)
val received : Runtime.t -> int

(** A mixed-width posting run, used as an optimizer profiling
    workload. *)
val profile_workload : Runtime.t -> unit -> unit
