(** The resident simulation daemon.

    A single-threaded event loop multiplexes every connection over
    nonblocking sockets and [Unix.select]: one readiness pass reads
    whatever arrived, carves complete JSONL requests out of per-
    connection buffers ({!Iobuf}), answers [health] inline from
    preformatted bytes ({!Wire.scan_fast}) and [stats] inline through
    the full parser, and hands heavy requests to worker threads that
    run them on the shared {!Fleet.Pool} — completions funnel back
    over a self-pipe and are written out by the loop. Concurrent clients share the worker
    domains, the scenario memo and the content-addressed result cache
    instead of each paying cold-start cost, which is the whole point
    of serving from warm state.

    Clients may pipeline: many requests in flight per connection,
    light ops answered in order, heavy ops completing out of order
    and re-associated by [id] (see {!Wire}). A connection whose
    buffered output exceeds [max_buffer_bytes] is shed with a
    [slow_consumer] error; one whose output sits above half that cap
    simply stops being read until it drains (backpressure).

    [select]'s [FD_SETSIZE] (1024 on Linux) bounds the loop to ~1000
    concurrent descriptors — far above the default [max_conns] of 64;
    raise [max_conns] past that and the kernel, not this server, will
    complain.

    Per-request guards reuse the fleet's budget machinery
    ([timeout_ms]/[fuel] from the request, capped by the server
    defaults); admission control is {!Admission} and observability
    is {!Telemetry}, both loop-owned; shutdown is {!Lifecycle}'s drain contract. *)

type config = {
  socket_path : string option;  (** Unix-domain endpoint *)
  tcp_port : int option;  (** loopback TCP endpoint *)
  jobs : int;  (** shared pool size *)
  queue : int;
      (** admission capacity on top of the executing requests: at
          most [jobs + queue] heavy requests in flight *)
  max_conns : int;
  cache : Fleet.Cache.t option;
  fuel : int option;  (** default per-request fuel *)
  timeout_ms : int option;  (** default per-request deadline *)
  idle_timeout_s : float option;
      (** self-drain after this much full idleness (no connections,
          no requests) *)
  drain_grace_s : float;
      (** how long a drain waits for in-flight work before escalating
          to the pool's cancel hook *)
  max_request_bytes : int;
  max_buffer_bytes : int;
      (** shed a connection ([slow_consumer]) once its buffered
          output exceeds this; reads pause at half of it *)
}

val default_config : config
(** No endpoints (callers must set at least one), [jobs = 1],
    [queue = 64], [max_conns = 64], no cache, no default guards, no
    idle timeout, 10s drain grace,
    {!Wire.default_max_request_bytes}, 4 MiB write-buffer cap. *)

type t

val create : ?lifecycle:Lifecycle.t -> config -> t
(** Binds and listens on every configured endpoint and spawns the
    worker pool. A stale Unix socket file (left by a crashed server)
    is unlinked and rebound; a path that exists but is not a socket
    is an error. Binding [tcp_port = Some 0] picks an ephemeral port;
    {!endpoints} reports the real one.
    @raise Invalid_argument if no endpoint is configured or a knob is
    out of range.
    @raise Unix.Unix_error when binding fails (path not writable,
    port taken). *)

val endpoints : t -> string list
(** Human-readable bound endpoints, e.g. ["unix:/tmp/ccomp.sock"]. *)

val lifecycle : t -> Lifecycle.t

val run : t -> unit
(** Serves until drained: runs the event loop, then — once
    {!Lifecycle.request_drain} fires (signal, {!stop}, or the idle
    timeout) — stops accepting and unlinks the Unix socket, keeps
    serving open connections until every in-flight request (including
    pipelined ones) has been answered, escalates to cooperative
    cancellation if [drain_grace_s] expires, then stops reading,
    flushes every write buffer, disconnects remaining clients and
    shuts the pool down. Returns normally; the caller owns the exit
    code. *)

val stop : t -> unit
(** {!Lifecycle.request_drain} on the server's lifecycle — the
    programmatic equivalent of SIGTERM. Callable from any thread;
    {!run} notices within one select tick. *)
