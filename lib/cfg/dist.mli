(** Forward edge distances over the CFG.

    The pre-decompression policies need "all blocks at most [k] edges
    away from the exit of the current block" (paper, §4): the direct
    successors are at distance 1, their successors at distance 2, and
    so on, taking the minimum over paths. *)

val within : Graph.t -> from:int -> k:int -> (int * int) list
(** [within g ~from ~k] is the list of [(block, distance)] pairs with
    [1 <= distance <= k], ordered by increasing distance (BFS order).
    [from] itself is included only if it is reachable from itself
    through a cycle of length <= k. *)

val distance : Graph.t -> src:int -> dst:int -> int option
(** Minimum number of edges from the exit of [src] to the entry of
    [dst]; [None] if unreachable. [distance ~src ~dst:src] is the
    length of the shortest cycle through [src], not 0. *)

val all_distances : Graph.t -> from:int -> int array
(** Array of minimum forward distances ([max_int] when unreachable). *)

(** {1 Frontier tables}

    A simulator asks for the same block's lookahead set at every visit;
    a frontier table answers each block's question once per run. *)

type frontiers

val frontiers : Graph.t -> k:int -> frontiers
(** An empty table for one graph and one lookahead [k]; rows are
    filled on first request.
    @raise Invalid_argument if [k < 0]. *)

val horizon : frontiers -> int
(** The table's [k]. *)

val frontier : frontiers -> int -> int array
(** [frontier t b] is the blocks of [within g ~from:b ~k], in the same
    (BFS) order, without their distances. The array is shared across
    calls: do not mutate it. *)
