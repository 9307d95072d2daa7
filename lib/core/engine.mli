(** The three-thread execution engine (paper, Figure 4).

    The engine replays a basic-block trace against a CFG under a
    {!Policy.t}: the {e execution thread} advances through the trace;
    the {e decompression thread} serves pre-decompression requests
    running ahead of it; the {e compression thread} trails behind,
    deleting (or recompressing) the copies the k-edge algorithm
    retires. Helper threads run concurrently with execution — they
    only cost wall-clock time when the execution thread actually has
    to wait (a demand miss, or arriving at a block whose
    pre-decompression is still in flight).

    Timing model, per §5: entering a block whose branch site still
    points into the compressed area raises a memory-protection
    exception ([exception_cycles]); the handler decompresses if needed
    ([dec_setup + dec_per_byte × compressed size], on the critical
    path for demand misses) and patches the branch site
    ([patch_cycles], recorded in the block's remember set). Steady
    state — resident block, patched site — costs nothing.

    The engine runs on the {!Sim} kernel: the helper threads are
    {!Sim.Clock} resources, costs come from the {!Sim.Cost} model
    inside {!Config.t}, and the run narrates itself through
    {!Sim.Events} sinks in constant memory: occupancy is integrated as
    the trace advances instead of materializing an O(trace-length)
    event list. One loop over the trace serves every policy. *)

type block_info = {
  exec_cycles : int;
  uncompressed_bytes : int;
  compressed_bytes : int;
}

val info_of_graph :
  ?ratio:float -> Cfg.Graph.t -> block_info array
(** Synthetic info for graphs without real code: compressed size is
    [ratio] (default 0.6) of the block's byte size, at least 1. *)

val info_of_program :
  codec:Compress.Codec.t -> Eris.Program.t -> Cfg.Graph.t -> block_info array
(** Real info: each block's image bytes compressed with [codec]. *)

(** The shared {!Sim.Events.t} vocabulary, re-exported so existing
    [Core.Engine.Exec]-style constructor paths keep working. The
    engine itself never emits [Unpatch] or [Flush] (those are the
    executable runtime's); times are cycles. *)
type event = Sim.Events.t =
  | Exec of { block : int; at : int }
  | Exception of { block : int; at : int }
  | Demand_decompress of { block : int; at : int; cycles : int }
  | Prefetch_issue of { block : int; at : int; ready_at : int }
  | Stall of { block : int; at : int; cycles : int }
  | Patch of { target : int; site : int; at : int }
  | Unpatch of { target : int; site : int; at : int }
  | Discard of { block : int; at : int; patched_back : int; wasted : bool }
  | Evict of { block : int; at : int }
  | Recompress_queued of { block : int; at : int; done_at : int }
  | Flush of { at : int; copies : int }

val run :
  ?config:Config.t ->
  ?log:(event -> unit) ->
  ?sink:Sim.Events.sink ->
  ?registry:Sim.Metrics.t ->
  ?step_cycles:int array ->
  graph:Cfg.Graph.t ->
  info:block_info array ->
  trace:int array ->
  Policy.t ->
  Metrics.t
(** Simulates the trace. The memory image starts fully compressed
    (§5). Every event is pushed into [sink] (and [log], kept for
    callback convenience) as it happens; the engine never retains
    events, so memory use is independent of trace length. Events exist
    only for a listener: with neither [log] nor [sink] the run builds
    none, and returns the same metrics. The sink is {e not} closed —
    the caller owns its lifecycle. When [registry]
    is given, the final {!Metrics.t} is published into it via
    {!Metrics.register}. [step_cycles] overrides each
    trace step's execution cost (used by coarser-granularity
    baselines whose per-visit cost varies); by default step [i] costs
    [info.(trace.(i)).exec_cycles].
    @raise Invalid_argument if [info] does not match the graph, the
    trace mentions unknown blocks, or [step_cycles] has the wrong
    length.
    @raise Invalid_argument if an [info] entry's [exec_cycles] or a
    [step_cycles] entry is negative. *)
