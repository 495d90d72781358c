(* The event runtime: the paper's general model of Sec. 2 plus the
   optimized dispatch paths of Sec. 3.

   Generic path for [raise ev args]:
     registry lookup (+lock) -> marshal args -> per handler: indirect call,
     unmarshal, interpret the handler body.

   Optimized path (installed by [lib/optimize]):
     binding-version guard -> one direct call of a compiled, merged,
     specialized super-handler.  Stale guards fall back to the generic
     path (Sec. 3.3); partitioned entries (Fig. 14) fall back only for the
     events whose bindings changed. *)

open Podopt_hir

type pending = { pev : Event.t; pargs : Value.t list; pmode : Ast.mode }

(* A super-handler installed for an event. *)
type opt_entry = {
  covered : (Event.t * int) list;  (* events merged in + their versions *)
  arity : int;  (* argument-vector width the compiled code expects *)
  kind : opt_kind;
}

and opt_kind =
  | Super of Compile.compiled_proc
  | Partitioned of segment list
  | Deferred of deferred_entry
      (* Sec. 5: perform no processing for this event now; when the next
         event occurs, run a jointly-optimized pair body if one exists
         for it, otherwise flush the deferred event alone first *)

and deferred_entry = {
  def_alone : Compile.compiled_proc;  (* the event's own super-handler *)
  def_arity : int;
  def_pairs : pair list;
}

and pair = {
  pair_event : Event.t;          (* the follower event *)
  pair_version : int;            (* follower's binding version at install *)
  pair_arity : int;              (* follower slice arity *)
  pair_compiled : Compile.compiled_proc;
      (* merged (deferred ++ follower) body; the follower's positional
         args are shifted past the deferred event's arity *)
}

and segment = {
  seg_event : Event.t;
  seg_version : int;
  seg_arity : int;
  seg_compiled : Compile.compiled_proc;
  seg_next : Event.t option;  (* tail sync-raise target consumed by driver *)
}

(* Pad an argument vector with Unit up to [arity]; mirrors the generic
   path's convention that missing handler parameters default to Unit. *)
let pad_args arity args =
  let n = List.length args in
  if n >= arity then args
  else args @ List.init (arity - n) (fun _ -> Value.Unit)

type stats = {
  mutable generic_dispatches : int;
  mutable optimized_dispatches : int;
  mutable fallbacks : int;          (* stale guard -> generic *)
  mutable segment_fallbacks : int;  (* partitioned: one segment fell back *)
  mutable spec_hits : int;
  mutable spec_misses : int;
  mutable marshal_bytes : int;
  mutable deferred_pairs : int;     (* deferral consumed by a pair body *)
  mutable deferred_flushes : int;   (* deferral flushed alone *)
  mutable handler_failures : int;   (* exceptions isolated at dispatch *)
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
  mutable emit_log : (string * Value.t list) list;  (* reversed *)
  mutable emit_log_enabled : bool;  (* benches disable retention *)
  mutable emit_hook : (string -> Value.t list -> unit) option;
  mutable dispatch_hook : (string -> int -> unit) option;
  opt_entries : (int, opt_entry) Hashtbl.t;
  spec_table : (int, Event.t) Hashtbl.t;  (* A -> predicted next B *)
  mutable prefetched : (int * Handler.t list) option;
  mutable depth : int;
  event_time : (int, int) Hashtbl.t;  (* cumulative processing cost per event *)
  event_count : (int, int) Hashtbl.t;
  mutable handler_time : int;  (* cost spent inside outermost dispatches *)
  stats : stats;
  (* (event id, arming depth, cell): a tail sync-raise of the expected
     next chain event, at the arming depth, is handed to the chain driver
     instead of being dispatched.  The depth guard keeps raises made
     inside nested dispatches (which belong to those dispatches) from
     being captured. *)
  mutable capture : (int * int * Value.t list option ref) option;
  mutable deferred : (Event.t * Value.t list * deferred_entry) option;
  (* with isolation on, an exception escaping handler code is caught at
     the dispatch boundary (counted in stats.handler_failures) instead
     of unwinding the caller's loop; Prim.Halt_event stays control flow *)
  mutable isolate_failures : bool;
}

let create ?(costs = Costs.default) ?(program = []) () =
  {
    clock = Vclock.create ();
    costs;
    events = Event.create_table ();
    registry = Registry.create ();
    queue = Equeue.create ();
    globals = Hashtbl.create 32;
    trace = Trace.create ();
    program;
    emit_log = [];
    emit_log_enabled = true;
    emit_hook = None;
    dispatch_hook = None;
    opt_entries = Hashtbl.create 16;
    spec_table = Hashtbl.create 8;
    prefetched = None;
    depth = 0;
    event_time = Hashtbl.create 32;
    event_count = Hashtbl.create 32;
    handler_time = 0;
    stats =
      {
        generic_dispatches = 0;
        optimized_dispatches = 0;
        fallbacks = 0;
        segment_fallbacks = 0;
        spec_hits = 0;
        spec_misses = 0;
        marshal_bytes = 0;
        deferred_pairs = 0;
        deferred_flushes = 0;
        handler_failures = 0;
      };
    capture = None;
    deferred = None;
    isolate_failures = false;
  }

let charge t units = Vclock.advance t.clock units
let now t = Vclock.now t.clock

let event t name = Event.intern t.events name
let set_program t program = t.program <- program
let program t = t.program

(* --- Globals (shared state; accesses are lock-charged, Sec. 3.2) ----- *)

exception Unbound_global of string

let get_global t name =
  match Hashtbl.find_opt t.globals name with
  | Some v -> v
  | None -> raise (Unbound_global name)

let set_global t name v = Hashtbl.replace t.globals name v

let charged_get_global t name =
  charge t t.costs.lock;
  get_global t name

let charged_set_global t name v =
  charge t t.costs.lock;
  set_global t name v

(* --- Observable output ------------------------------------------------ *)

let emit t tag args =
  if t.emit_log_enabled then t.emit_log <- (tag, args) :: t.emit_log;
  match t.emit_hook with Some f -> f tag args | None -> ()

let emits t = List.rev t.emit_log
let clear_emits t = t.emit_log <- []
let on_emit t f = t.emit_hook <- Some f
let on_dispatch t f = t.dispatch_hook <- Some f

(* --- Binding API ------------------------------------------------------ *)

let bind t ~event:name ?order handler =
  let ev = event t name in
  Registry.bind t.registry ev ?order handler

let unbind t ~event:name ~handler =
  let ev = event t name in
  Registry.unbind t.registry ev ~name:handler

let handlers t name = Registry.handlers t.registry (event t name)
let binding_version t name = Registry.version t.registry (event t name)

(* --- Hosts ------------------------------------------------------------ *)

(* Conditions that must never be converted into an isolated "handler
   failure": the process state behind them (heap exhaustion, blown
   stack, violated invariant) is not something a retry can repair. *)
let fatal_exn = function
  | Out_of_memory | Stack_overflow | Assert_failure _ -> true
  | _ -> false

(* Declared early so the interp/compiled hosts can raise events. *)
(* An event *occurs* when its handlers run: synchronous raises are traced
   immediately; queued (async/timed) activations are traced when the
   scheduler dispatches them, so the event trace reflects occurrence
   order as in the paper's instrumentation. *)
let rec raise_event t name (mode : Ast.mode) args =
  let ev = event t name in
  (* partitioned-chain capture: a tail sync-raise of the expected next
     event is handed to the chain driver instead of being dispatched *)
  (match t.capture with
   | Some (id, depth, cell) when id = ev.Event.id && depth = t.depth && mode = Ast.Sync
     ->
     cell := Some args;
     t.capture <- None
   | _ ->
     (match mode with
      | Ast.Sync ->
        Trace.record_event t.trace ~event:name ~mode ~time:(now t) ~depth:t.depth;
        dispatch t ev args
      | Ast.Async ->
        charge t t.costs.enqueue;
        Equeue.push t.queue ~due:(now t) { pev = ev; pargs = args; pmode = mode }
      | Ast.Timed d ->
        charge t t.costs.enqueue;
        Equeue.push t.queue ~due:(now t + d) { pev = ev; pargs = args; pmode = mode }))

and interp_host t : Interp.host =
  {
    Interp.raise_event = (fun name mode args -> raise_event t name mode args);
    get_global = (fun g -> charged_get_global t g);
    set_global = (fun g v -> charged_set_global t g v);
    emit = (fun tag args -> emit t tag args);
    tick = (fun n -> charge t (n * t.costs.interp_step));
    work = (fun w -> charge t w);
  }

and compiled_host t : Interp.host =
  {
    Interp.raise_event = (fun name mode args -> raise_event t name mode args);
    get_global =
      (fun g ->
        charge t t.costs.lock_merged;
        get_global t g);
    set_global =
      (fun g v ->
        charge t t.costs.lock_merged;
        set_global t g v);
    emit = (fun tag args -> emit t tag args);
    tick = (fun n -> charge t (n * t.costs.compiled_step));
    work = (fun w -> charge t w);
  }

and note_failure t = t.stats.handler_failures <- t.stats.handler_failures + 1

(* Run a compiled super-handler body.  Halt_event is control flow; any
   other exception is isolated (counted, swallowed) when the runtime is
   in isolation mode, so one hostile handler cannot unwind the caller's
   drain loop. *)
and run_compiled t compiled args =
  try ignore (compiled (compiled_host t) args) with
  | Prim.Halt_event -> ()
  | e when t.isolate_failures && not (fatal_exn e) -> note_failure t

and run_handler t (ev : Event.t) (h : Handler.t) args =
  Trace.record_handler_begin t.trace ~event:ev.Event.name ~handler:h.Handler.name
    ~time:(now t) ~depth:t.depth;
  (try
     match h.Handler.code with
     | Handler.Native f -> f (interp_host t) args
     | Handler.Hir proc -> ignore (Interp.run ~host:(interp_host t) t.program proc args)
   with
   | Prim.Halt_event as e -> raise e  (* stops this event's remaining handlers *)
   | e when t.isolate_failures && not (fatal_exn e) -> note_failure t);
  Trace.record_handler_end t.trace ~event:ev.Event.name ~handler:h.Handler.name
    ~time:(now t) ~depth:t.depth

(* The generic (unoptimized) dispatch path. *)
and generic_dispatch t (ev : Event.t) args =
  t.stats.generic_dispatches <- t.stats.generic_dispatches + 1;
  (* registry access: lookup + state-maintenance lock *)
  let hs =
    match t.prefetched with
    | Some (id, hs) when id = ev.Event.id ->
      t.stats.spec_hits <- t.stats.spec_hits + 1;
      t.prefetched <- None;
      hs
    | _ ->
      (match t.prefetched with
       | Some _ ->
         t.stats.spec_misses <- t.stats.spec_misses + 1;
         t.prefetched <- None
       | None -> ());
      charge t (t.costs.registry_lookup + t.costs.lock);
      Registry.handlers t.registry ev
  in
  match hs with
  | [] -> () (* an event with no bindings is ignored (Sec. 2.1) *)
  | hs ->
    (* The raise site marshals the argument vector and the dispatcher
       unmarshals it once; every handler then shares the same decoded
       values (as with Cactus's shared message structure, so that byte-
       buffer mutations made by one handler are seen by the next — the
       same aliasing the merged super-handler exhibits). *)
    let buf = Value.marshal args in
    let len = String.length buf in
    t.stats.marshal_bytes <- t.stats.marshal_bytes + len;
    charge t (t.costs.marshal_base + (t.costs.marshal_per_byte * len));
    charge t (t.costs.unmarshal_base + (t.costs.unmarshal_per_byte * len));
    let args' = Value.unmarshal buf in
    (try
       List.iter
         (fun h ->
           charge t t.costs.indirect_call;
           run_handler t ev h args')
         hs
     with Prim.Halt_event -> () (* stop remaining handlers of this event *))

and guard_ok t entry =
  charge t (t.costs.guard_check * List.length entry.covered);
  List.for_all
    (fun (ev, ver) -> Registry.version t.registry ev = ver)
    entry.covered

and run_partitioned t segments args =
  let rec go segments args =
    match segments with
    | [] -> ()
    | seg :: rest ->
      charge t t.costs.guard_check;
      let cell = ref None in
      (match seg.seg_next with
       | Some nxt -> t.capture <- Some (nxt.Event.id, t.depth, cell)
       | None -> ());
      (if Registry.version t.registry seg.seg_event = seg.seg_version then begin
         charge t t.costs.direct_call;
         run_compiled t seg.seg_compiled (pad_args seg.seg_arity args)
       end
       else begin
         t.stats.segment_fallbacks <- t.stats.segment_fallbacks + 1;
         generic_dispatch t seg.seg_event args
       end);
      t.capture <- None;
      (match rest, !cell with
       | [], _ -> ()
       | _ :: _, Some next_args -> go rest next_args
       | _ :: _, None ->
         (* chain broken at runtime: the expected tail raise did not
            happen, so later segments must not run *)
         ())
  in
  go segments args

(* Resolve a pending deferral when the next event occurs (Sec. 5).
   Returns true when the current event was consumed by a jointly
   optimized pair body; otherwise the deferred event is flushed alone and
   the caller proceeds normally. *)
and resolve_deferred t (ev : Event.t) args : bool =
  match t.deferred with
  | None -> false
  | Some (aev, aargs, de) ->
    t.deferred <- None;
    ignore aev;
    (match
       List.find_opt (fun p -> Event.equal p.pair_event ev) de.def_pairs
     with
     | Some p when Registry.version t.registry p.pair_event = p.pair_version ->
       t.stats.deferred_pairs <- t.stats.deferred_pairs + 1;
       t.stats.optimized_dispatches <- t.stats.optimized_dispatches + 1;
       charge t (t.costs.guard_check + t.costs.direct_call);
       let combined = pad_args de.def_arity aargs @ pad_args p.pair_arity args in
       run_compiled t p.pair_compiled combined;
       true
     | _ ->
       t.stats.deferred_flushes <- t.stats.deferred_flushes + 1;
       charge t t.costs.direct_call;
       run_compiled t de.def_alone (pad_args de.def_arity aargs);
       false)

and dispatch t (ev : Event.t) args =
  let t0 = now t in
  let outermost = t.depth = 0 in
  Trace.record_dispatch_begin t.trace ~event:ev.Event.name ~time:t0 ~depth:t.depth;
  t.depth <- t.depth + 1;
  let consumed = if outermost then resolve_deferred t ev args else false in
  (match Hashtbl.find_opt t.opt_entries ev.Event.id with
   | _ when consumed -> ()
   | Some entry ->
     (match entry.kind with
      | Super compiled ->
        if guard_ok t entry then begin
          t.stats.optimized_dispatches <- t.stats.optimized_dispatches + 1;
          charge t t.costs.direct_call;
          run_compiled t compiled (pad_args entry.arity args)
        end
        else begin
          t.stats.fallbacks <- t.stats.fallbacks + 1;
          generic_dispatch t ev args
        end
      | Deferred de ->
        if outermost && guard_ok t entry then
          (* minimal processing now; the bulk runs when the next event
             arrives *)
          t.deferred <- Some (ev, args, de)
        else if guard_ok t entry then begin
          (* nested occurrence: run the event's own super-handler now *)
          t.stats.optimized_dispatches <- t.stats.optimized_dispatches + 1;
          charge t t.costs.direct_call;
          run_compiled t de.def_alone (pad_args de.def_arity args)
        end
        else begin
          t.stats.fallbacks <- t.stats.fallbacks + 1;
          generic_dispatch t ev args
        end
      | Partitioned segments ->
        t.stats.optimized_dispatches <- t.stats.optimized_dispatches + 1;
        run_partitioned t segments args)
   | None -> generic_dispatch t ev args);
  t.depth <- t.depth - 1;
  Trace.record_dispatch_end t.trace ~event:ev.Event.name ~time:(now t) ~depth:t.depth;
  (* speculative preparation (Sec. 5): pull the predicted successor's
     handler list during the "free cycles" after handling [ev] *)
  (match Hashtbl.find_opt t.spec_table ev.Event.id with
   | Some next ->
     t.prefetched <- Some (next.Event.id, Registry.handlers t.registry next)
   | None -> ());
  let dt = now t - t0 in
  Hashtbl.replace t.event_time ev.Event.id
    (dt + Option.value ~default:0 (Hashtbl.find_opt t.event_time ev.Event.id));
  Hashtbl.replace t.event_count ev.Event.id
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.event_count ev.Event.id));
  (match t.dispatch_hook with Some f -> f ev.Event.name dt | None -> ());
  if outermost then t.handler_time <- t.handler_time + dt

(* --- Public raise / scheduler ---------------------------------------- *)

let raise_sync t name args = raise_event t name Ast.Sync args
let raise_async t name args = raise_event t name Ast.Async args
let raise_timed t name ~delay args = raise_event t name (Ast.Timed delay) args

(* Cancel pending activations of an event (Cactus delayed-event cancel). *)
let cancel t name =
  let ev = event t name in
  Equeue.remove_if t.queue (fun p -> Event.equal p.pev ev)

(* Flush a pending deferral (Sec. 5): run the deferred event's own
   super-handler now.  Returns whether anything was flushed. *)
let flush_deferred t =
  match t.deferred with
  | None -> false
  | Some (aev, aargs, de) ->
    t.deferred <- None;
    let t0 = now t in
    let outermost = t.depth = 0 in
    t.depth <- t.depth + 1;
    t.stats.deferred_flushes <- t.stats.deferred_flushes + 1;
    charge t t.costs.direct_call;
    run_compiled t de.def_alone (pad_args de.def_arity aargs);
    t.depth <- t.depth - 1;
    let dt = now t - t0 in
    (* the dispatch that deferred already counted the occurrence; only
       the processing time is attributed here *)
    Hashtbl.replace t.event_time aev.Event.id
      (dt + Option.value ~default:0 (Hashtbl.find_opt t.event_time aev.Event.id));
    (match t.dispatch_hook with Some f -> f aev.Event.name dt | None -> ());
    if outermost then t.handler_time <- t.handler_time + dt;
    true

(* Run scheduled activations.  [until] bounds virtual time: activations
   due later stay queued.  When the queue drains completely, any pending
   deferral is flushed (which may schedule new activations). *)
let rec run ?until t =
  match Equeue.peek t.queue with
  | None -> if flush_deferred t then run ?until t
  | Some (due, _) ->
    (match until with
     | Some limit when due > limit -> ()
     | _ ->
       (match Equeue.pop t.queue with
        | None -> ()
        | Some (due, p) ->
          if due > now t then Vclock.set t.clock due;
          Trace.record_event t.trace ~event:p.pev.Event.name ~mode:p.pmode
            ~time:(now t) ~depth:t.depth;
          dispatch t p.pev p.pargs;
          run ?until t))

let step t =
  match Equeue.pop t.queue with
  | None -> false
  | Some (due, p) ->
    if due > now t then Vclock.set t.clock due;
    Trace.record_event t.trace ~event:p.pev.Event.name ~mode:p.pmode ~time:(now t)
      ~depth:t.depth;
    dispatch t p.pev p.pargs;
    true

let pending t = Equeue.length t.queue

(* --- Optimization installation (used by lib/optimize) ---------------- *)

let install_super t ~event:name ~covered ~arity compiled =
  let ev = event t name in
  let covered =
    List.map
      (fun n ->
        let e = event t n in
        (e, Registry.version t.registry e))
      covered
  in
  Hashtbl.replace t.opt_entries ev.Event.id { covered; arity; kind = Super compiled }

let install_partitioned t ~event:name segments =
  let ev = event t name in
  let covered = List.map (fun s -> (s.seg_event, s.seg_version)) segments in
  Hashtbl.replace t.opt_entries ev.Event.id
    { covered; arity = 0; kind = Partitioned segments }

(* Install a deferred entry (Sec. 5): raising [event] stores its
   arguments; when the next event occurs, a jointly-optimized pair body
   runs if one was compiled for it, otherwise the deferred event's own
   super-handler runs first. *)
let install_deferred t ~event:name ~covered ~arity ~(alone : Compile.compiled_proc)
    (pairs : (string * int * Compile.compiled_proc) list) =
  let ev = event t name in
  let covered =
    List.map
      (fun n ->
        let e = event t n in
        (e, Registry.version t.registry e))
      covered
  in
  let def_pairs =
    List.map
      (fun (next, pair_arity, compiled) ->
        let pe = event t next in
        {
          pair_event = pe;
          pair_version = Registry.version t.registry pe;
          pair_arity;
          pair_compiled = compiled;
        })
      pairs
  in
  Hashtbl.replace t.opt_entries ev.Event.id
    {
      covered;
      arity;
      kind = Deferred { def_alone = alone; def_arity = arity; def_pairs };
    }

let make_segment t ~event:name ?next ~arity compiled =
  let ev = event t name in
  {
    seg_event = ev;
    seg_version = Registry.version t.registry ev;
    seg_arity = arity;
    seg_compiled = compiled;
    seg_next = Option.map (event t) next;
  }

let uninstall t ~event:name =
  let ev = event t name in
  Hashtbl.remove t.opt_entries ev.Event.id

let uninstall_all t = Hashtbl.reset t.opt_entries
let optimized_events t = Hashtbl.fold (fun id _ acc -> id :: acc) t.opt_entries []

let set_speculation t ~after ~expect =
  Hashtbl.replace t.spec_table (event t after).Event.id (event t expect)

let clear_speculation t = Hashtbl.reset t.spec_table

(* --- Measurements ----------------------------------------------------- *)

let event_processing_time t name =
  Option.value ~default:0 (Hashtbl.find_opt t.event_time (event t name).Event.id)

let event_dispatch_count t name =
  Option.value ~default:0 (Hashtbl.find_opt t.event_count (event t name).Event.id)

let total_handler_time t = t.handler_time

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "dispatches: %d optimized, %d generic, %d fallbacks (+%d segment); \
     speculation %d/%d hit/miss; deferral %d pairs, %d flushes; %d bytes marshaled; \
     %d handler failures"
    s.optimized_dispatches s.generic_dispatches s.fallbacks
    s.segment_fallbacks s.spec_hits s.spec_misses s.deferred_pairs
    s.deferred_flushes s.marshal_bytes s.handler_failures

let reset_measurements t =
  Hashtbl.reset t.event_time;
  Hashtbl.reset t.event_count;
  t.handler_time <- 0;
  t.stats.generic_dispatches <- 0;
  t.stats.optimized_dispatches <- 0;
  t.stats.fallbacks <- 0;
  t.stats.segment_fallbacks <- 0;
  t.stats.spec_hits <- 0;
  t.stats.spec_misses <- 0;
  t.stats.marshal_bytes <- 0;
  t.stats.deferred_pairs <- 0;
  t.stats.deferred_flushes <- 0;
  t.stats.handler_failures <- 0
