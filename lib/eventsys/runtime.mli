(** The event runtime: the paper's general model (Sec. 2) plus the
    optimized dispatch paths (Sec. 3).

    Generic path for a raise: registry lookup (+lock), argument
    marshaling, one unmarshal per dispatch, then an indirect call per
    bound handler into the HIR interpreter.  Optimized path: a
    binding-version guard, then one direct call of a compiled, merged,
    specialized super-handler.  Stale guards fall back to the generic
    path (Sec. 3.3); partitioned entries (Fig. 14) fall back only for the
    events whose bindings changed. *)

open Podopt_hir

type pending = { pev : Event.t; pargs : Value.t list; pmode : Ast.mode }

(** A super-handler installed for an event. *)
type opt_entry = {
  covered : (Event.t * int) list;
      (** events merged into this entry, with their binding versions at
          installation time; any mismatch at dispatch triggers fallback *)
  arity : int;  (** argument-vector width the compiled code expects *)
  kind : opt_kind;
}

and opt_kind =
  | Super of Compile.compiled_proc
  | Partitioned of segment list  (** Fig. 14: per-event guards *)
  | Deferred of deferred_entry
      (** Sec. 5: store the arguments now, run a jointly-optimized pair
          body when the next event occurs *)

and deferred_entry = {
  def_alone : Compile.compiled_proc;
  def_arity : int;
  def_pairs : pair list;
}

and pair = {
  pair_event : Event.t;
  pair_version : int;
  pair_arity : int;
  pair_compiled : Compile.compiled_proc;
}

and segment = {
  seg_event : Event.t;
  seg_version : int;
  seg_arity : int;
  seg_compiled : Compile.compiled_proc;
  seg_next : Event.t option;
      (** the tail sync-raise target consumed by the chain driver *)
}

(** Pad an argument vector with [Unit] up to [arity] (the generic path's
    missing-parameter convention). *)
val pad_args : int -> Value.t list -> Value.t list

type stats = {
  mutable generic_dispatches : int;
  mutable optimized_dispatches : int;
  mutable fallbacks : int;          (** stale whole-entry guard *)
  mutable segment_fallbacks : int;  (** partitioned: one segment *)
  mutable spec_hits : int;
  mutable spec_misses : int;
  mutable marshal_bytes : int;
  mutable deferred_pairs : int;    (** deferral consumed by a pair body *)
  mutable deferred_flushes : int;  (** deferral flushed alone *)
  mutable handler_failures : int;
      (** exceptions isolated at the dispatch boundary
          (only counted with {!t.isolate_failures} on) *)
}

type t = {
  clock : Vclock.t;
  costs : Costs.model;
  events : Event.table;
  registry : Registry.t;
  queue : pending Equeue.t;
  globals : (string, Value.t) Hashtbl.t;
  trace : Trace.t;
  mutable program : Ast.program;
  mutable emit_log : (string * Value.t list) list;
  mutable emit_log_enabled : bool;  (** benches disable retention *)
  mutable emit_hook : (string -> Value.t list -> unit) option;
  mutable dispatch_hook : (string -> int -> unit) option;
      (** called after every completed dispatch with the event name and
          its processing cost in virtual units (see {!on_dispatch}) *)
  opt_entries : (int, opt_entry) Hashtbl.t;
  spec_table : (int, Event.t) Hashtbl.t;
  mutable prefetched : (int * Handler.t list) option;
  mutable depth : int;
  event_time : (int, int) Hashtbl.t;
  event_count : (int, int) Hashtbl.t;
  mutable handler_time : int;
  stats : stats;
  mutable capture : (int * int * Value.t list option ref) option;
      (** (event id, arming depth, cell) for partitioned-chain tail
          raises; the depth guard excludes raises from nested dispatches *)
  mutable deferred : (Event.t * Value.t list * deferred_entry) option;
  mutable isolate_failures : bool;
      (** when on (default off), an exception escaping handler code —
          interpreted, native, or compiled — is caught at the dispatch
          boundary and counted in [stats.handler_failures] instead of
          unwinding the caller; {!Podopt_hir.Prim.Halt_event} keeps its
          control-flow meaning, and fatal conditions ([Out_of_memory],
          [Stack_overflow], [Assert_failure]) are never isolated — they
          propagate even with isolation on, since no retry can repair
          the process state behind them.  Shards run with isolation on
          so one hostile handler cannot abort a drain loop. *)
}

val create : ?costs:Costs.model -> ?program:Ast.program -> unit -> t

(** Advance the virtual clock by a cost. *)
val charge : t -> int -> unit

val now : t -> int

(** Intern an event name. *)
val event : t -> string -> Event.t

val set_program : t -> Ast.program -> unit
val program : t -> Ast.program

(** {1 Shared state} *)

exception Unbound_global of string

(** Uncharged access (initialization, assertions). *)
val get_global : t -> string -> Value.t

val set_global : t -> string -> Value.t -> unit

(** Lock-charged access (the handler execution paths). *)
val charged_get_global : t -> string -> Value.t

val charged_set_global : t -> string -> Value.t -> unit

(** {1 Observable output} *)

val emit : t -> string -> Value.t list -> unit

(** Chronological emit log. *)
val emits : t -> (string * Value.t list) list

val clear_emits : t -> unit
val on_emit : t -> (string -> Value.t list -> unit) -> unit

(** [on_dispatch t f] installs [f] as the dispatch hook: after each
    dispatch completes (including nested dispatches and deferred-event
    flushes), [f event_name cost] is called with the virtual units the
    dispatch consumed.  Same shape as {!on_emit}: one hook, replaced by
    the next call.  The hook itself must not raise and must not consume
    virtual time if determinism matters to the caller. *)
val on_dispatch : t -> (string -> int -> unit) -> unit

(** {1 Bindings} *)

val bind : t -> event:string -> ?order:int -> Handler.t -> unit

(** [unbind t ~event ~handler] removes bindings of the handler with that
    name; returns whether anything was removed. *)
val unbind : t -> event:string -> handler:string -> bool

val handlers : t -> string -> Handler.t list
val binding_version : t -> string -> int

(** {1 Raising and scheduling} *)

(** Hosts handed to handler code (exposed for native handlers and
    tests). *)
val interp_host : t -> Interp.host

val compiled_host : t -> Interp.host

val raise_event : t -> string -> Ast.mode -> Value.t list -> unit
val raise_sync : t -> string -> Value.t list -> unit
val raise_async : t -> string -> Value.t list -> unit
val raise_timed : t -> string -> delay:int -> Value.t list -> unit

(** Cancel pending activations of an event; returns how many. *)
val cancel : t -> string -> int

(** Flush a pending deferral (run the deferred event's super-handler
    now); true when something was flushed.  {!run} flushes automatically
    when the queue drains. *)
val flush_deferred : t -> bool

(** Run queued activations; [until] bounds virtual time (later
    activations stay queued). *)
val run : ?until:int -> t -> unit

(** Dispatch one queued activation; false when the queue is empty. *)
val step : t -> bool

val pending : t -> int

(** {1 Optimization installation (used by the optimizer driver)} *)

val install_super :
  t -> event:string -> covered:string list -> arity:int -> Compile.compiled_proc ->
  unit

val install_partitioned : t -> event:string -> segment list -> unit

(** [install_deferred t ~event ~covered ~arity ~alone pairs] installs a
    Sec. 5 deferral entry; [pairs] maps follower event names to (pair
    arity, compiled pair body — follower args shifted past [arity]). *)
val install_deferred :
  t -> event:string -> covered:string list -> arity:int ->
  alone:Compile.compiled_proc -> (string * int * Compile.compiled_proc) list -> unit

val make_segment :
  t -> event:string -> ?next:string -> arity:int -> Compile.compiled_proc -> segment

val uninstall : t -> event:string -> unit
val uninstall_all : t -> unit
val optimized_events : t -> int list
val set_speculation : t -> after:string -> expect:string -> unit
val clear_speculation : t -> unit

(** {1 Measurements} *)

(** Cumulative processing cost attributed to dispatches of an event
    (nested dispatches are included in their parents and also counted on
    their own event). *)
val event_processing_time : t -> string -> int

val event_dispatch_count : t -> string -> int

(** Cost accumulated inside outermost dispatches: the paper's "event
    handler time". *)
val total_handler_time : t -> int

val pp_stats : Format.formatter -> stats -> unit
val reset_measurements : t -> unit
