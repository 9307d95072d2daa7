(** Service observability, published through the shared
    {!Sim.Metrics} registry.

    Per-operation request counters (by status), per-operation latency
    histograms in milliseconds, rejection counters (by wire error
    code), connection counters and a queue-depth gauge all live in
    one registry, so the [stats] op and test assertions read a single
    surface.

    A [t] is owned by the server's event loop: only the loop thread
    records into it or reads it, so it needs no lock. Worker threads
    hand their per-request fleet registries back to the loop, which
    folds them in with {!absorb_fleet}. The [stats] payload derives
    p50/p90 from the histograms via {!Sim.Metrics.quantile}. *)

type t

val create : unit -> t

val record : t -> op:string -> ok:bool -> elapsed_ms:float -> unit
(** One served request: bumps [service_requests_total{op,status}] and
    observes the whole-request latency (admission to response
    write). *)

val record_health : t -> unit
(** {!record} for the event loop's preformatted [health] response:
    bumps cells preregistered at {!create} time (no label-list
    allocation) and observes a 0 ms latency — these requests are
    answered within one loop iteration, under the histogram's finest
    bucket. *)

val reject : t -> code:string -> unit
(** One rejected request ([service_rejections_total{code}]). *)

val connection : t -> [ `Opened | `Closed | `Refused ] -> unit
val queue_depth : t -> int -> unit

val absorb_fleet : t -> Sim.Metrics.t -> unit
(** Adds another registry's [fleet_*] counters (a per-request
    {!Fleet.Sweep.run} registry, filled on a worker thread and
    returned with the request's completion) into this one. *)

val stats_json : t -> Json.t
(** The [stats] op payload: request/rejection/connection totals, the
    queue-depth gauge, accumulated fleet counters, and per-op latency
    summaries ([count], [mean_ms], [p50_ms], [p90_ms], [max_ms]). *)
