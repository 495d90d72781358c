(** Fixed pool of worker domains driven in epochs.

    {!create} spawns [domains] workers, each blocked on its own
    {!Chan}.  One epoch ({!run}) wakes every worker and joins everyone —
    caller included — at a {!Barrier}; when {!run} returns, every worker
    has finished and gone back to sleep.

    Within an epoch the workers share one run-queue of work items: the
    caller freezes the item order, and idle workers claim the next
    unclaimed slot with an atomic fetch-and-add, so a worker stuck on a
    heavy item never serializes the items behind it.  Which worker runs
    an item is scheduling; that each item runs exactly once is the
    invariant.

    Items run on worker domains: each must only touch state owned by
    that item, so results cannot depend on the claim schedule.  An item
    exception is caught on the worker — the rest of the queue still
    drains and the epoch still completes for everyone — and re-raised
    from {!run} on the caller.  When several items fail in one epoch,
    the first latched exception is re-raised wrapped in
    {!Epoch_failures} carrying the count of additionally suppressed
    failures; a lone failure is re-raised unwrapped. *)

type t

(** [Epoch_failures (first, suppressed)]: more than one item failed in
    the epoch; [first] is the first latched exception and [suppressed]
    the number of further failures whose exceptions were dropped. *)
exception Epoch_failures of exn * int

(** Spawn the workers.  Raises [Invalid_argument] when [domains <= 0]. *)
val create : domains:int -> t

(** Number of worker domains. *)
val size : t -> int

(** [run t items f] runs [f items.(i)] exactly once for every slot [i],
    slots claimed left to right by whichever worker is idle, and blocks
    until every slot has run.  Raises the latched item exception, if
    any (wrapped in {!Epoch_failures} when more than one item failed).
    A raising item neither abandons the slots behind it nor wedges the
    epoch barrier, and leaves the pool fully usable for subsequent
    epochs (the crash-recovery supervisor relies on both).  Raises
    [Invalid_argument] after {!shutdown}. *)
val run : t -> 'a array -> ('a -> unit) -> unit

(** Close every channel and join the worker domains.  Idempotent. *)
val shutdown : t -> unit
