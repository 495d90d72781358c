(** The application workloads a shard can serve.

    A broker run serves one application; every shard hosts its own
    instance of it.  A session op is a deterministic payload (the wire
    bytes of one application message), and [dispatch] replays it
    against a shard instance exactly the way the app's own driver
    would — so broker traffic exercises the same event chains the
    optimizer was built for. *)

open Podopt_eventsys

type kind =
  | Video    (** video player frames through the CTP composite *)
  | Seccomm  (** SecComm messenger push/pop round trips *)
  | Xwin     (** X GUI event storms: scroll/keystroke/popup posts *)
  | Chat     (** chat room fan-out: one post, N member deliveries *)

val kind_of_string : string -> (kind, string) result
val kind_to_string : kind -> string

(** A shard's live application: a bare runtime (Video/SecComm/Chat) or
    the whole X client with its widget tree ([Xwin]). *)
type instance

(** Fresh shard instance hosting the application (emit-log retention
    off, session opened where the app needs one). *)
val instantiate : kind -> instance

(** The instance's event runtime (what the adaptive optimizer, cost
    accounting, and checkpointing operate on). *)
val runtime : instance -> Runtime.t

(** Deterministic payload for op [seq] of session number [session]. *)
val op_payload : kind -> session:int -> seq:int -> bytes

(** The hot-path key of an op (how [--show-dead] labels dead letters).
    Constant per kind for the single-vocabulary workloads;
    the X storm keys on the payload's opcode byte
    (scroll/key/popup). *)
val path : kind -> bytes -> string

(** Replay one op against a shard instance: a CTP frame send (with a
    full drain of acks and timers), a SecComm push/pop round trip, a
    chat post with its synchronous fan-out, or an X event post with a
    full client event-loop turn. *)
val dispatch : instance -> bytes -> unit

(** Policy for the shard's on-line adaptive optimizer: a low analysis
    threshold (shards see a slice of the traffic) and a trace window
    sized to a few hundred ops. *)
val adaptive_policy : kind -> Podopt_optimize.Adaptive.policy
