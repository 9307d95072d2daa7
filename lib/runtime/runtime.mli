(** An {e executable} implementation of the paper's §5 scheme — not a
    timing model (that is {!Core.Engine}) but the real mechanism,
    running real programs:

    - the program image is stored {e only} in compressed form (each
      basic block compressed with a real codec);
    - fetching from a compressed (or deleted-copy) address raises the
      memory-protection exception; the handler {e really} decompresses
      the block's bytes, checks them byte for byte against the image
      (a mismatch is a [Machine_fault]), relocates the instructions into
      a fresh copy (rewriting pc-relative targets to absolute home
      addresses and appending a synthetic jump for fallthrough), and
      redirects the pc;
    - the jump that faulted is {e really} patched to target the copy,
      and recorded in the target block's {e remember set}, so
      steady-state re-entry costs nothing;
    - the k-edge algorithm {e really} deletes copies, patching every
      remembered site back to its home target first (§5's patch-back);
      calls materialize {e home} return addresses, so no reference to
      a deleted copy can survive anywhere — which is also what makes
      recycling the copy address space safe. Only the handler and a
      patched jump enter a copy: any other transfer (a [jalr], or a
      jump aimed past the image) must land on a home address, or the
      run ends in a [Machine_fault "transfer to unknown address"].

    Because the machine executes the relocated copies for real, a
    workload's checksum coming out right under any k is end-to-end
    evidence that compression, decompression, relocation, patching and
    deletion are all correct. *)

type stats = {
  instructions : int;  (** instructions executed *)
  traps : int;  (** memory-protection exceptions taken *)
  decompressions : int;  (** handler decompressions, reloads included *)
  patches : int;  (** jump sites rewritten to copy addresses *)
  unpatches : int;
      (** remember-set patch-backs performed when copies are deleted *)
  deletions : int;  (** k-edge copy deletions (flushed copies included) *)
  flushes : int;
      (** address-space recycles: all copies retired at once when the
          relocation window fills — rare, and safe because un-patching
          plus home-valued return addresses leave no reference to any
          retired copy *)
  edges : int;  (** control transfers observed *)
  peak_copy_bytes : int;  (** high-water mark of live copies *)
  live_copy_bytes : int;  (** at halt *)
  compressed_image_bytes : int;
  original_image_bytes : int;
  energy_nj : int;
      (** total energy charged for traps, patches, patch-backs and
          decompressions under the run's cost model; 0 under the
          default [paper-2005] profile *)
}

type error =
  | Out_of_fuel of stats
  | Machine_fault of { pc : int; message : string; stats : stats }

val run :
  ?fuel:int ->
  ?k:int ->
  ?retention:Residency.Policy.spec ->
  ?codec:Compress.Codec.t ->
  ?cost:Sim.Cost.t ->
  ?profile:string ->
  ?sink:Sim.Events.sink ->
  ?registry:Sim.Metrics.t ->
  ?line_size:int ->
  Eris.Program.t ->
  (Eris.Machine.t * stats, error) result
(** Executes the program from an all-compressed image until [Halt].
    [k] (default 8) is the k-edge deletion distance; [retention]
    (default {!Residency.Policy.Kedge}) selects which copies survive —
    the runtime and {!Core.Engine} drive the same
    {!Residency.Policy}, so any retention policy behaves identically
    in both; [codec]
    defaults to the positional shared-Huffman model trained on this
    image. The returned machine exposes final registers and data
    memory.

    [sink] streams the execution as {!Sim.Events} (the runtime has no
    cycle clock, so [at] is the executed-instruction count; event
    [cycles] fields are priced by [cost], defaulting to the codec's
    per-byte rates over the named device [profile] — [paper-2005]
    when neither is given; an explicit [cost] wins). Events exist only
    for a sink: without one the run builds none, and returns the same
    result. The sink is {e not} closed. [registry] receives the final {!stats} via
    {!register_stats} on both success and failure.

    [line_size] switches the image to compressed-I-cache accounting:
    the image is compressed per {!Residency.Linemap} cache line
    instead of per block, a trap really decompresses only the target
    block's lines that no live copy already covers (so
    [decompressions] counts {e lines}), and a line leaves residency
    when the last copy spanning it is deleted. Relocation stays
    block-shaped, so the executed instruction stream — and any
    workload checksum — is unchanged; only decompression work,
    [compressed_image_bytes], and the priced costs move.
    @raise Invalid_argument on an unknown [profile] or a [line_size]
    below 4. *)

val run_source :
  ?fuel:int ->
  ?k:int ->
  ?retention:Residency.Policy.spec ->
  ?codec:Compress.Codec.t ->
  ?cost:Sim.Cost.t ->
  ?profile:string ->
  ?sink:Sim.Events.sink ->
  ?registry:Sim.Metrics.t ->
  ?line_size:int ->
  string ->
  (Eris.Machine.t * stats, error) result
(** {!run} over assembled source. @raise Eris.Asm.Error on syntax
    problems. *)

val register_stats :
  ?labels:(string * string) list -> Sim.Metrics.t -> stats -> unit
(** Publishes every [stats] field as a counter under its field name
    into the shared registry. *)
