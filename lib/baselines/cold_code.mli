(** Static cold-code compression (Debray & Evans style): profile the
    program once, keep the hot blocks permanently uncompressed, store
    only the cold blocks compressed, and decompress a cold block into
    a single reserved buffer each time execution enters cold code.

    Unlike the paper's scheme, hot blocks here have {e no} compressed
    copy (they are stored uncompressed), so the static image is
    [hot uncompressed + cold compressed + one buffer]. The runtime
    cost is one exception + decompression per entry into a cold block
    that is not already in the buffer. *)

type result = {
  hot_blocks : int;
  cold_blocks : int;
  static_bytes : int;  (** hot + compressed cold + buffer *)
  buffer_bytes : int;
  total_cycles : int;
  baseline_cycles : int;
  decompressions : int;
  energy_nj : int;
      (** execution + exception + decompression energy under the
          config's cost model; 0 under the [paper-2005] profile *)
}

val overhead_ratio : result -> float

val run :
  ?config:Core.Config.t ->
  ?sink:Sim.Events.sink ->
  ?hot_fraction:float ->
  Core.Scenario.t ->
  result
(** [hot_fraction] (default 0.95) is the fraction of dynamic block
    visits the hot set must cover, per the scenario's own profile.
    [sink] streams the replay as {!Sim.Events}: an [Exec] per trace
    step, an [Exception] + [Demand_decompress] pair per buffer miss,
    and a [Discard] when a miss replaces the previous occupant,
    timestamped in accumulated cycles. The sink is not closed. *)
