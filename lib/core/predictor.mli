(** Next-block prediction for the pre-decompress-single strategy
    (paper, §4): among the compressed blocks at most [k] edges ahead,
    "predict the block that is to be the most likely one to be
    reached" and decompress only that one. *)

(** Prediction policies. *)
type t =
  | First_successor
      (** static: follow each block's first CFG successor *)
  | Last_taken
      (** dynamic: follow the successor most recently taken from each
          block (falling back to the first successor) *)
  | By_profile of Cfg.Profile.t
      (** maximize path probability under an edge profile *)

val name : t -> string

(** Mutable per-run state (the last-taken table). *)
type state

val create_state : blocks:int -> state

val note_edge : state -> src:int -> dst:int -> unit
(** Records a dynamically taken edge (drives [Last_taken]). *)

val choose :
  t ->
  state ->
  Cfg.Graph.t ->
  from:int ->
  k:int ->
  candidates:int list ->
  int option
(** Picks the candidate predicted most likely to be reached within [k]
    edges of [from]'s exit. [candidates] must be given in BFS order
    (nearest first), as produced by {!Cfg.Dist.within}; the fallback
    when the predicted path misses every candidate is the nearest
    one. Returns [None] iff [candidates] is empty. *)

(** {1 Table-driven picks}

    A simulator asks the same question at every edge; a plan answers it
    from tables built once per run (per block, on first use): the
    block's frontier — {!Cfg.Dist.within} order — and, for
    [By_profile], each frontier block's reach probability. A pick
    allocates nothing. {!choose} stays the reference: {!pick} returns
    exactly its answer. *)

type plan

val plan : t -> Cfg.Graph.t -> Cfg.Dist.frontiers -> plan
(** A plan for one run over [g], looking [Cfg.Dist.horizon] edges
    ahead. The frontier table may be shared with other users. *)

val pick : plan -> state -> from:int -> compressed:(int -> bool) -> int
(** [choose t state g ~from ~k ~candidates] where [candidates] are the
    blocks of [from]'s frontier for which [compressed] holds, in
    frontier order — as a block id, or [-1] for [None]. *)
