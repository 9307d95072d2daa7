(** The shared simulation event vocabulary and the streaming sink bus.

    Every layer that simulates (or really performs) the paper's scheme
    — {!Core.Engine}'s timing model, the executable {!Runtime}, and
    the baseline schemes — narrates its run as a stream of these
    events, handed to a {!sink} a {!Packed.chunk} at a time. Sinks are
    constant-memory unless they choose otherwise, so a 10⁶-step trace
    costs the same memory as a 10-step one; two runs can be diffed
    event-by-event by streaming both through {!to_json}.

    [at] is simulated cycles for the timing engine and executed
    instructions for the runtime; within one stream it is monotone
    except where noted in the producer's documentation. *)

type t =
  | Exec of { block : int; at : int }  (** block body executes *)
  | Exception of { block : int; at : int }
      (** memory-protection exception on entering [block] *)
  | Demand_decompress of { block : int; at : int; cycles : int }
      (** decompression on the critical path *)
  | Prefetch_issue of { block : int; at : int; ready_at : int }
      (** pre-decompression queued on the decompression thread *)
  | Stall of { block : int; at : int; cycles : int }
      (** execution waited for an in-flight decompression *)
  | Patch of { target : int; site : int; at : int }
      (** branch in [site] rewritten to target the copy of [target] *)
  | Unpatch of { target : int; site : int; at : int }
      (** remember-set patch-back on deletion (runtime) *)
  | Discard of { block : int; at : int; patched_back : int; wasted : bool }
      (** k-edge deletion of a decompressed copy *)
  | Evict of { block : int; at : int }  (** budget-forced LRU deletion *)
  | Recompress_queued of { block : int; at : int; done_at : int }
      (** copy queued on the compression thread (recompress mode) *)
  | Flush of { at : int; copies : int }
      (** runtime address-space recycle: all [copies] retired at once *)

val time : t -> int
(** The event's [at] field. *)

val kind : t -> string
(** Stable lower-snake-case tag, e.g. ["demand_decompress"]. *)

val kinds : string list
(** Every tag, in declaration order. *)

val describe : t -> string
(** Human one-liner (the experiment tables' event column). *)

val to_json : t -> string
(** One JSON object, no trailing newline — a JSONL row. *)

val of_json : string -> (t, string) result
(** Parses exactly the objects {!to_json} emits. *)

(** {1 Packed events}

    The hot loops (the timing engine steps a million-entry trace, the
    runtime executes real instructions) do not build one boxed {!t}
    per event. Every producer pushes events into a preallocated
    {!Packed.chunk} — a kind tag plus up to three int fields,
    struct-of-arrays — and hands whole chunks to the sink. Boxed events
    are reconstructed only at sink boundaries that need them (collection, JSONL); counting
    sinks tally straight off the tag bytes. *)

module Packed : sig
  type chunk
  (** A bounded batch of packed events. Not thread-safe; producers
      reuse one chunk, flushing it into a sink whenever it fills. *)

  val create : ?capacity:int -> unit -> chunk
  (** @raise Invalid_argument when [capacity <= 0]. *)

  val capacity : chunk -> int
  val length : chunk -> int
  val is_full : chunk -> bool

  val clear : chunk -> unit
  (** Resets [length] to 0; the producer's reuse point after a flush. *)

  (** Pushers, one per constructor of {!type:t}. All raise
      [Invalid_argument] on a full chunk — flush first. *)

  val push_exec : chunk -> at:int -> block:int -> unit
  val push_exception : chunk -> at:int -> block:int -> unit
  val push_demand : chunk -> at:int -> block:int -> cycles:int -> unit
  val push_prefetch : chunk -> at:int -> block:int -> ready_at:int -> unit
  val push_stall : chunk -> at:int -> block:int -> cycles:int -> unit
  val push_patch : chunk -> at:int -> target:int -> site:int -> unit
  val push_unpatch : chunk -> at:int -> target:int -> site:int -> unit

  val push_discard :
    chunk -> at:int -> block:int -> patched_back:int -> wasted:bool -> unit

  val push_evict : chunk -> at:int -> block:int -> unit
  val push_recompress_queued : chunk -> at:int -> block:int -> done_at:int -> unit
  val push_flush : chunk -> at:int -> copies:int -> unit

  val push_event : chunk -> t -> unit
  (** Packs a boxed event (the boundary-to-hot-path direction). *)

  (** {2 Reserve-then-write plane}

      For fused producers that emit several events per step: check
      {!room} once, then push without per-event capacity checks. The
      [unsafe_push_*] variants only store the fields their kind
      defines ({!get} never reads the rest for that kind); the caller
      is responsible for using the arity matching the constructor's
      field map (see the pushers above). Pushing beyond capacity is
      undefined behaviour. *)

  val room : chunk -> int
  (** Free slots left ([capacity - length]). *)

  val unsafe_push_ka : chunk -> kind:int -> at:int -> a:int -> unit
  val unsafe_push_kab : chunk -> kind:int -> at:int -> a:int -> b:int -> unit

  val unsafe_push_kabc :
    chunk -> kind:int -> at:int -> a:int -> b:int -> c:int -> unit

  val kind_tag : chunk -> int -> int
  (** Tag of the [i]th event, numbered like {!kinds} (declaration
      order). @raise Invalid_argument out of bounds. *)

  val time_at : chunk -> int -> int
  (** [at] field of the [i]th event. @raise Invalid_argument out of
      bounds. *)

  val get : chunk -> int -> t
  (** Reconstructs the [i]th event; exact inverse of the pushers.
      @raise Invalid_argument out of bounds. *)

  val iter : (t -> unit) -> chunk -> unit
  (** [get] over every slot in push order. *)
end

(** {1 Sinks} *)

type sink = {
  emit_chunk : Packed.chunk -> unit;
      (** Consumes a whole packed batch, in push order. The producer
          still owns the chunk and may [clear] and refill it after the
          call returns — sinks must not retain it. *)
  close : unit -> unit;
      (** Flushes and releases whatever the sink holds; a closed sink
          must be given no further chunk. *)
}

val null : sink
val callback : (t -> unit) -> sink

val tee : sink list -> sink
(** Broadcasts every event to all sinks; [close] closes each once. *)

(** {2 In-memory collection (back-compat with event-list consumers)} *)

type collector

val collector : unit -> collector

val collecting : collector -> sink
(** O(events) memory, by design — for short illustrative traces. *)

val collected : collector -> t list
(** Events in emission order. *)

(** {2 Constant-memory counting} *)

type counters

val counters : unit -> counters

val counting : counters -> sink
(** One integer cell per event kind: memory independent of trace
    length. *)

val counts : counters -> (string * int) list
(** [(kind, count)] for every kind, declaration order. *)

val count : counters -> string -> int
(** @raise Invalid_argument on an unknown kind. *)

val total : counters -> int

val last_time : counters -> int
(** Largest [at] observed; 0 if nothing was emitted. *)

(** {2 JSONL streaming} *)

val to_file : string -> sink
(** Opens [path] for writing, one {!to_json} row per event; [close]
    closes the file. *)

val read_file : string -> (t list, string) result
(** Reads a JSONL stream back line by line (the file is never loaded
    whole), skipping blank lines. Returns the first parse error as
    [Error] carrying the line number and the offending line's content
    (truncated to 80 characters). *)

(** {2 Metrics bridge} *)

val observing : Metrics.t -> sink
(** Publishes the stream into a registry: an [events_total] counter
    labelled by kind, plus [event_stall_cycles] /
    [event_demand_dec_cycles] histograms over the per-event costs
    (prefixed so they never collide with the engine's same-named
    scalar totals). *)
