(** Control flow graphs over basic blocks.

    A CFG is a static, conservative representation of all potential
    execution paths of a program (paper, §2). Nodes are basic blocks;
    directed edges are the possible control transfers. *)

(** How control reaches a successor. *)
type edge_kind =
  | Fallthrough  (** implicit next block *)
  | Taken  (** branch or jump target *)
  | Call  (** [jal] with a live link register *)
  | Return  (** [jalr]-based return (conservative) *)

type block = {
  id : int;
  addr : int;  (** byte address of the first instruction *)
  n_instrs : int;
  byte_size : int;
  exec_cycles : int;  (** nominal cost of executing the block once *)
  label : string option;  (** symbol attached to [addr], if any *)
}

type t

val make :
  ?entry:int -> block array -> (int * int * edge_kind) list -> t
(** [make blocks edges] builds a graph. Blocks must be numbered
    [0 .. n-1] in array order.
    @raise Invalid_argument on bad ids or duplicate block ids. *)

val synthetic :
  ?block_bytes:int -> ?sizes:int array -> int -> (int * int) list -> t
(** [synthetic n edges] builds an [n]-block graph for policy studies
    detached from any real program: block [i] has
    [sizes.(i)] bytes (default [block_bytes], default 64) and
    [byte_size / 4] instructions costing 1 cycle each. All edges are
    [Taken]. *)

val num_blocks : t -> int
val entry : t -> int
val block : t -> int -> block
val blocks : t -> block array

val succs : t -> int -> (int * edge_kind) list
val preds : t -> int -> (int * edge_kind) list
val succ_ids : t -> int -> int list
val pred_ids : t -> int -> int list

val succ_table : t -> int array array
(** [succ_table g].(b) holds [succ_ids g b] as an array. Built once
    with the graph and shared by every caller: read it, never write
    it. *)

val edges : t -> (int * int * edge_kind) list
(** All edges, ordered by source block id. *)

val num_edges : t -> int

val block_at_addr : t -> int -> int option
(** Block whose address range contains the given byte address. *)

val block_of_leader : t -> int -> int option
(** Block whose first instruction is at exactly the given address. *)

val total_bytes : t -> int
(** Sum of all block byte sizes (the uncompressed image size). *)

val exits : t -> int list
(** Blocks with no successors. *)

val reachable : t -> bool array
(** Reachability from the entry block. *)

val validate_trace : t -> int array -> (unit, string) result
(** Checks that a block-id trace starts at the entry and follows edges
    of the graph. *)

val pp_stats : Format.formatter -> t -> unit
