(** A fixed-size domain worker pool.

    Workers are OCaml 5 domains pulling tasks from a mutex/condition
    work queue. One pool can serve many {!map} calls; each call blocks
    the submitting thread until every one of its tasks finished, and
    returns results in submission order regardless of completion
    order.

    Per-job guards: every task gets a {!budget} tracking its fuel
    (cooperative tick count) and wall-clock deadline. The task
    function calls {!tick} at natural checkpoints — the fleet's sweep
    passes it to the engine as its guard, so a simulation burns one
    fuel unit per event, counted every 256 trace steps without
    building any — and a blown budget raises, which the pool catches like any other task
    exception: the job becomes an [Error], the worker survives. *)

type t

val create : jobs:int -> t
(** Spawns [jobs] worker domains (at least 1).
    @raise Invalid_argument if [jobs < 1]. *)

val size : t -> int

exception Fuel_exhausted
exception Timed_out

exception Cancelled
(** Raised out of {!tick} when the caller's [cancel] hook fires — the
    cooperative cancellation path a draining server uses to abandon
    work it no longer has a client for. *)

type budget

val tick : budget -> int -> unit
(** [tick b n] burns [n] fuel units at once (a producer's whole batch
    of events); it polls the cancel hook whenever the units used cross
    a multiple of 256, and the deadline a multiple of 1024 — one unit
    at a time polls every 256th and 1024th tick.
    @raise Fuel_exhausted / @raise Timed_out / @raise Cancelled when
    the budget is blown (caught by the pool's per-job isolation). *)

val map :
  ?fuel:int ->
  ?timeout_ms:int ->
  ?cancel:(unit -> bool) ->
  t ->
  (budget -> 'a -> 'b) ->
  'a list ->
  ('b, string) result list
(** Runs [f budget x] for every [x], spread over the pool's workers.
    The result list is in submission order; a task that raises any
    exception (including a blown budget) yields [Error message]
    instead of killing its worker or the pool. Tasks must not
    themselves call {!map} on the same pool (the call would deadlock
    waiting for its own worker).

    [cancel] is polled from worker domains — before each task starts
    and whenever {!tick}'s units cross a multiple of 256 — so it must
    be cheap and thread-safe (an [Atomic.get] is the intended shape).
    Once it returns [true], running tasks abort at their next poll and
    queued tasks never start; each yields [Error "cancelled"]. *)

val run_sequential :
  ?fuel:int ->
  ?timeout_ms:int ->
  ?cancel:(unit -> bool) ->
  (budget -> 'a -> 'b) ->
  'a list ->
  ('b, string) result list
(** {!map} semantics — same guards, same crash isolation, same result
    order — executed inline on the calling domain, with no pool. The
    reference implementation parallel runs must match. *)

val shutdown : t -> unit
(** Signals every worker to exit and joins them. Idempotent; using
    the pool after shutdown raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)
