(* An optimization plan: the analysis output that [Driver.apply] turns
   into installed super-handlers.

   Knobs correspond to the ablation axes the evaluation section
   distinguishes: handler merging, chain subsumption, compiler passes on
   merged bodies, and direct-call installation.  Disabling everything
   yields the original program. *)

open Podopt_hir

type chain_strategy =
  | Monolithic   (* Sec. 3.3: whole-chain fallback on any rebinding *)
  | Partitioned  (* Fig. 14: per-event guards inside the super-handler *)

type action =
  | Merge_event of string
      (* build a super-handler for one event's handler list *)
  | Merge_chain of { events : string list; strategy : chain_strategy }
      (* merge a synchronous event chain across event boundaries *)

type t = {
  actions : action list;
  threshold : int;             (* edge-weight threshold W used in analysis *)
  passes : Pipeline.pass list; (* compiler passes applied to merged bodies *)
  subsume : bool;              (* inline nested sync raises of covered events *)
  speculate : (string * string) list;  (* A -> predicted B prefetch pairs *)
}

let default_passes = Pipeline.default_passes

let empty =
  {
    actions = [];
    threshold = 0;
    passes = default_passes;
    subsume = true;
    speculate = [];
  }

let events_of_action = function
  | Merge_event e -> [ e ]
  | Merge_chain { events; _ } -> events

let covered_events t = List.sort_uniq compare (List.concat_map events_of_action t.actions)

let pp_action ppf = function
  | Merge_event e -> Fmt.pf ppf "merge %s" e
  | Merge_chain { events; strategy } ->
    Fmt.pf ppf "chain(%s) %s"
      (match strategy with Monolithic -> "monolithic" | Partitioned -> "partitioned")
      (String.concat " -> " events)

let pp ppf t =
  Fmt.pf ppf "plan (threshold=%d, subsume=%b, passes=[%s]):@." t.threshold
    t.subsume
    (String.concat "; " (List.map (fun p -> p.Pipeline.name) t.passes));
  List.iter (fun a -> Fmt.pf ppf "  %a@." pp_action a) t.actions;
  List.iter (fun (a, b) -> Fmt.pf ppf "  speculate %s -> %s@." a b) t.speculate
