(** Least-recently-used victim selection for the budgeted variant
    (paper, §2): before a decompression that would exceed the memory
    budget, an LRU decompressed block is compressed back. *)

type t

val create : unit -> t

val touch : t -> int -> time:int -> unit
(** Marks a block as used at [time] (monotonically increasing times
    give exact LRU order; equal times break ties by block id). One
    step when [time] is at least every tracked time; a time that goes
    back costs a step per tracked block used later. *)

val remove : t -> int -> unit
(** Forgets a block (no-op if absent). *)

val mem : t -> int -> bool
val cardinal : t -> int

val victim : t -> ?exclude:(int -> bool) -> unit -> int option
(** Least recently used tracked block not excluded. Walks the tracked
    blocks oldest first, so it costs one [exclude] call per excluded
    block older than the victim, plus one. *)

val to_list : t -> (int * int) list
(** [(block, last_use)] pairs, LRU first. *)
