(** Experiment registry: one entry per table/figure reproduced, keyed
    by the ids used in DESIGN.md and EXPERIMENTS.md. *)

type entry = {
  id : string;  (** e.g. ["E6"] *)
  slug : string;  (** CLI name, e.g. ["kedge-sweep"] *)
  paper_anchor : string;  (** e.g. ["Figure 1"] or ["section 3"] *)
  runner : unit -> Report.Table.t;
}

val all : entry list
(** E1 .. E16, in order (E14/E15 are extensions beyond the paper and
    E16 validates the timing model against the executable runtime). *)

val find : string -> entry option
(** By id (case-insensitive) or slug. *)
