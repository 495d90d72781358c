(* The binding registry (Sec. 2.1, Fig. 1): maps each event to the ordered
   list of handlers executed when it occurs.

   Bindings are fully dynamic (Cactus semantics).  Every mutation bumps a
   per-event version counter; installed super-handlers are guarded on
   these counters and fall back to the generic path when a covered
   event's bindings have changed since optimization (Sec. 3.3). *)

type entry = {
  mutable handlers : (int * Handler.t) list;  (* (order, handler), sorted *)
  mutable version : int;
  mutable next_order : int;
}

type t = { entries : (int, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 32 }

let entry t (ev : Event.t) : entry =
  match Hashtbl.find_opt t.entries ev.Event.id with
  | Some e -> e
  | None ->
    let e = { handlers = []; version = 0; next_order = 0 } in
    Hashtbl.add t.entries ev.Event.id e;
    e

(* Bind [h] to [ev].  Handlers run in increasing [order]; equal orders run
   in bind order.  Default order appends at the end. *)
let bind t ev ?order (h : Handler.t) : unit =
  let e = entry t ev in
  let order = match order with Some o -> o | None -> e.next_order in
  e.next_order <- max e.next_order (order + 1);
  let rec insert = function
    | [] -> [ (order, h) ]
    | (o, h') :: rest when o <= order -> (o, h') :: insert rest
    | rest -> (order, h) :: rest
  in
  e.handlers <- insert e.handlers;
  e.version <- e.version + 1

(* Remove all bindings of the handler named [name] from [ev]. *)
let unbind t ev ~name : bool =
  let e = entry t ev in
  let removed = ref 0 in
  e.handlers <-
    List.filter
      (fun (_, h) ->
        let keep = h.Handler.name <> name in
        if not keep then incr removed;
        keep)
      e.handlers;
  if !removed > 0 then begin
    e.version <- e.version + 1;
    true
  end
  else false

let unbind_all t ev =
  let e = entry t ev in
  if e.handlers <> [] then begin
    e.handlers <- [];
    e.version <- e.version + 1
  end

let handlers t ev : Handler.t list = List.map snd (entry t ev).handlers
let version t ev : int = (entry t ev).version
let is_bound t ev = (entry t ev).handlers <> []

let events_with_bindings t (tbl : Event.table) : Event.t list =
  Hashtbl.fold
    (fun id e acc ->
      if e.handlers <> [] then
        match Event.of_id tbl id with Some ev -> ev :: acc | None -> acc
      else acc)
    t.entries []
