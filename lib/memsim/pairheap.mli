(** A binary min-heap of int pairs, ordered lexicographically: [(a, b)]
    comes before [(c, d)] when [a < c], or [a = c] and [b < d]. Equal
    pairs are interchangeable, so the pop order of a set of pairs is
    fully determined — the same order a sorted list of them gives.

    The timing engine's time-ordered queues (in-flight
    decompressions, pending frees, future occupancy deltas) use it:
    a push or pop is O(log n) int stores, and nothing is allocated
    once the backing arrays have grown to the queue's high-water mark. *)

type t

val create : unit -> t
val is_empty : t -> bool

val min_fst : t -> int
(** First component of the least pair. Meaningless on an empty heap. *)

val min_snd : t -> int
(** Second component of the least pair. Meaningless on an empty heap. *)

val push : t -> int -> int -> unit

val pop : t -> unit
(** Removes the least pair.
    @raise Invalid_argument on an empty heap. *)
