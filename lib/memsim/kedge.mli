(** Bookkeeping for the k-edge compression algorithm (paper, §3 and
    §5): every tracked block has a counter that resets to zero when the
    block executes and increases by one at each subsequent edge
    traversal; when it reaches [k] the block's decompressed copy is
    due for deletion.

    Steps are global edge-traversal counts (position in the trace).
    The implementation keeps, per block, the step of its last reset and
    a timing wheel of pending due steps — a few int stores per event,
    whatever the per-block k values, instead of touching every resident
    counter on every branch.

    Steps passed to {!due_into} must be nondecreasing across calls on one
    instance (every driver walks its trace forward); entries that fall
    behind the query step are discarded as stale. *)

type t

val create : ?k_of:(int -> int) -> blocks:int -> k:int -> unit -> t
(** [k_of] gives each block its own deletion distance (the adaptive
    variant); blocks default to the uniform [k]. It is called once
    per block, here, and its values kept in a table.
    @raise Invalid_argument if [k < 1] or [blocks < 1]; a [k_of] value
    below 1 raises when its block is tracked or asked for. *)

val track : t -> block:int -> step:int -> unit
(** (Re)starts the block's counter at [step] — on execution, or when a
    pre-decompressed copy materializes. *)

val untrack : t -> block:int -> unit
(** Stops tracking (the copy was deleted or evicted). *)

val tracked : t -> block:int -> bool

val due_into : t -> step:int -> into:int array -> int
(** Blocks whose counter reaches exactly [k] at [step], i.e. whose
    copies the algorithm deletes on this edge traversal, written
    sorted into [into.(0 .. n-1)]; returns [n]. [into] must have room
    for every block ([Array.length into >= blocks]). Each block is
    reported at most once per reset; the caller decides whether to
    actually delete (the branch target itself is spared — its counter
    resets instead, §5). *)
