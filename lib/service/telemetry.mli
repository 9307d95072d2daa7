(** Service observability, published through the shared
    {!Sim.Metrics} registry.

    Per-operation request counters (by status), per-operation latency
    histograms in milliseconds, rejection counters (by wire error
    code), connection counters and a queue-depth gauge all live in
    one registry, so [ccomp serve --metrics]-style rendering, the
    [stats] op and test assertions read a single surface.

    {!Sim.Metrics} itself is single-threaded by design; this wrapper
    adds the mutex, so connection handler threads may call everything
    here concurrently. The [stats] payload additionally derives
    p50/p90 from the histograms via {!Sim.Metrics.quantile}. *)

type t

val create : ?registry:Sim.Metrics.t -> unit -> t
(** Wraps [registry] (fresh one when omitted). *)

val registry : t -> Sim.Metrics.t
(** The underlying registry — render it only from the thread that
    owns [t], or after the server stopped. *)

val record : t -> op:string -> ok:bool -> elapsed_ms:float -> unit
(** One served request: bumps [service_requests_total{op,status}] and
    observes the whole-request latency (admission to response
    write). *)

val record_fast : t -> [ `Health | `Stats ] -> unit
(** {!record} for the event loop's preformatted-response path: bumps
    cells preregistered at {!create} time (no label-list allocation)
    and observes a 0 ms latency — these requests are answered within
    one loop iteration, under the histogram's finest bucket. *)

val reject : t -> code:string -> unit
(** One rejected request ([service_rejections_total{code}]). *)

val connection : t -> [ `Opened | `Closed | `Refused ] -> unit
val queue_depth : t -> int -> unit

val absorb_fleet : t -> Sim.Metrics.t -> unit
(** Adds another registry's [fleet_*] counters (a per-request
    {!Fleet.Sweep.run} registry) into this one, under the lock —
    worker results accumulate server-wide without sharing mutable
    counters across threads. *)

val stats_json : t -> Json.t
(** The [stats] op payload: request/rejection/connection totals, the
    queue-depth gauge, accumulated fleet counters, and per-op latency
    summaries ([count], [mean_ms], [p50_ms], [p90_ms], [max_ms]). *)
