(** Retention policies for the decompressed-copy area.

    A policy decides {e when a decompressed copy stops being worth its
    memory}: which copies are due for deletion after an edge traversal
    and which copy to sacrifice when a decompression would overflow the
    memory budget. The paper hard-codes one answer — k-edge counters
    with LRU victims (§3, §5, §2) — this interface makes it pluggable
    so the timing model ({!Core.Engine}), the executable runtime
    ({!Runtime}) and the baselines all share one implementation.

    A policy is a record of callbacks over block ids; it owns whatever
    state it needs (counters, bits, heaps) and is driven by an
    {!Area.t}, which adds the remember-set bookkeeping and event
    emission common to every policy. *)

type spec =
  | Kedge  (** The paper's scheme: k-edge counters, LRU budget victims. *)
  | Loop_aware of { weight : int }
      (** k-edge with per-block k scaled by [1 + weight * loop_depth]:
          copies nested in hot loops survive proportionally longer. *)
  | Clock
      (** Second-chance approximation of k-edge/LRU with O(1) state per
          block: a reference bit set on execution and a timer re-armed
          every [k] edges; a copy is due when its timer fires with the
          bit clear. Budget victims come from a clock-hand sweep. *)
  | Pin_hot of { pinned : int list }
      (** Profile-driven pinned set: pinned blocks are never due and
          never budget victims; everything else runs plain k-edge/LRU.
          Instantiation rejects pins that alone exceed the budget. *)

val spec_name : spec -> string
(** CLI-facing name: ["kedge"], ["loop-aware"], ["clock"], ["pin-hot"]. *)

type ctx = {
  blocks : int;  (** Number of blocks (ids are [0 .. blocks-1]). *)
  k : int;  (** The uniform deletion distance. *)
  k_of : (int -> int) option;  (** Adaptive per-block k, if any. *)
  graph : Cfg.Graph.t option;  (** Needed by [Loop_aware]. *)
  budget : int option;  (** Decompressed-area byte budget, if any. *)
  size_of : (int -> int) option;
      (** Uncompressed block size, for budget validation. *)
  totals : (unit -> (string * int) list) option;
      (** Live per-dimension cost totals of the host run, as
          [(dimension name, amount)] pairs (see {!Sim.Cost.Acc}
          [dimension_totals]) — lets a policy observe how much each
          cost dimension has accumulated so far without this library
          depending on the cost vocabulary. *)
}
(** Everything a [spec] may need to build its runtime state. *)

type t = {
  name : string;
  on_materialize : block:int -> step:int -> unit;
      (** A copy of [block] starts existing (demand decompression or
          prefetch issue) at edge-step [step]. *)
  on_ready : block:int -> time:int -> unit;
      (** The copy became executable at cycle [time] (prefetch
          completion, or immediately for demand decompression). *)
  on_execute : block:int -> step:int -> time:int -> unit;
      (** The block executed at edge-step [step], cycle [time]. *)
  rearm : block:int -> step:int -> unit;
      (** The host spared a copy the policy reported due (branch
          target, or still in flight): restart its retention window. *)
  due : step:int -> into:int array -> int;
      (** Copies due for deletion after the edge traversal that made
          the step counter reach [step]: written to [into.(0 .. n-1)],
          sorted, each block at most once per window, and [n]
          returned. [into] has room for every block. The host may
          spare any of them (then it must [rearm]). *)
  victim : exclude:(int -> bool) -> int option;
      (** A resident copy to evict for budget room, or [None]. *)
  on_release : block:int -> unit;
      (** The copy is gone (deleted, evicted or flushed): drop all
          policy state for [block]. *)
  describe : unit -> string;
}
(** An instantiated policy. All callbacks are total over
    [0 .. blocks-1]; calling them for blocks without a live copy is
    allowed and must be harmless. *)

val instantiate : spec -> ctx -> t
(** Builds the policy state for one simulation run. A [t] is single-use
    and stateful — instantiate a fresh one per run.
    @raise Invalid_argument on nonsensical parameters: [k < 1],
    [blocks < 1], loop-aware without a graph or [weight < 1], pinned
    ids out of range, or a pinned set that alone exceeds the budget. *)

val kedge_lru :
  name:string ->
  ?k_of:(int -> int) ->
  blocks:int ->
  k:int ->
  describe:(unit -> string) ->
  unit ->
  t
(** The k-edge/LRU building block, exposed so custom policies (e.g. the
    baselines') can wrap or embed it. *)
