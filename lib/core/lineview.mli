(** Line-granular view of a scenario: a compressed instruction cache.

    The paper's engine treats the basic block as the unit of
    decompression and retention. A hardware compressed I-cache works
    on fixed-size lines instead: a miss decompresses one line, and
    eviction (k-edge, clock, LRU) applies per line. This module
    re-expresses any {!Scenario.t} at line granularity and runs the
    unmodified engine over it — lines become the engine's "blocks", so
    every retention policy, strategy, budget, and the whole cost and
    event vocabulary apply per line with no engine changes.

    The projection (mirroring [Baselines.Granularity], which coarsens
    where this refines):
    - {!Residency.Linemap} gives the line geometry — ids, extents and
      the block -> lines spans;
    - per-line info holds the real line bytes' compressed size: exact
      tag-inclusive wire bits for the {!Compress.Linecodec} family,
      the codec's framed output for block codecs (their per-line
      framing overhead is then charged honestly);
    - the block trace expands to the line trace (each visit touches
      the block's lines in address order) with the visit's cycles
      split across lines via [step_cycles], so total execution cost
      is preserved exactly. *)

type view = {
  graph : Cfg.Graph.t;  (** synthetic graph with one node per line *)
  info : Engine.block_info array;
  trace : int array;
  step_cycles : int array;
  map : Residency.Linemap.t;
}

val default_line_size : int
(** 32 bytes. *)

val image_of : Scenario.t -> bytes
(** The scenario's byte image: the program image, or for synthetic
    scenarios the blocks' pseudo-code bytes laid out at their
    addresses. *)

val line_compressed_bytes :
  codec:Compress.Codec.t -> image:bytes -> Residency.Linemap.t -> int array
(** Per-line compressed size: [ceil (cost_bits / 8)] (tag included)
    for line codecs, [compress]'s framed output size for block
    codecs; at least 1. Shared with the executable runtime's per-line
    accounting. *)

val view : ?line_size:int -> Scenario.t -> view
(** @raise Invalid_argument if [line_size < 4]. *)

val run :
  ?config:Config.t ->
  ?profile:string ->
  ?sink:Sim.Events.sink ->
  ?guard:(int -> unit) ->
  ?registry:Sim.Metrics.t ->
  ?line_size:int ->
  Scenario.t ->
  Policy.t ->
  Metrics.t
(** Runs the policy engine at line granularity. Config resolution as
    in {!Scenario.run}: explicit [config] wins, else the scenario
    codec's rates under [profile]. The policy's block-space inputs are
    carried over to lines: a [By_profile] predictor predicts from a
    profile of the line trace (its own profile is ignored), a
    [Pin_hot] set pins every line its blocks span, and an
    [adaptive_k] gives each line the largest k of the blocks spanning
    it. [guard] hears the number of events emitted every 256 steps of
    the line trace and after the last, and may raise to abort the run
    (see {!Engine.run}). *)
