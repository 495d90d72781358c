(** Observability: the broker's per-shard and totals stats table, in
    the same fixed-width deterministic style as the profiling reports
    (every number is virtual / counter state, so the output is
    reproducible bit-for-bit and safe to assert in cram tests). *)

(** Per-shard rows + totals, then a [front:] line with the wire-fault
    counters (link drops and decode failures happen before routing, so
    they belong to the broker front, not any shard). *)
val pp_table : Format.formatter -> Broker.t -> unit

(** One {!Shard.snapshot} line per shard — the exact state the
    parallel-determinism tests compare; useful for diffing a parallel
    run against its sequential twin. *)
val pp_snapshots : Format.formatter -> Broker.t -> unit

(** Run summary: clients, totals, and the fault/robustness line. *)
val pp_summary : Format.formatter -> Loadgen.summary -> unit

(** The [--metrics] section: per-shard and total p50/p90/p99/max for
    queue wait and service time (optimized / generic path), then the
    per-event dispatch-time distributions
    merged across shards.  Empty histograms print as ["-"]. *)
val pp_metrics : Format.formatter -> Broker.t -> unit

(** The whole run as one JSON document (schema [podopt/serve/v9]):
    config echo, summary with merged latency percentiles, and a
    per-shard array with each shard's histograms; [~metrics:true] adds
    the per-event dispatch distributions.  The domain count is
    deliberately omitted — the document depends only on the virtual
    result, so it is byte-identical at any [--domains], which the
    determinism suite asserts on this exact string. *)
val json : ?metrics:bool -> Broker.t -> Loadgen.summary -> string
