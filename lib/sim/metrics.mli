(** A labelled counter/histogram registry shared by every simulation
    layer.

    One registry collects whatever a run wants to report —
    {!Core.Metrics} totals, runtime trap counts, per-event tallies
    from {!Events.observing} — and renders it uniformly as a table or
    JSONL. Registration is
    idempotent: asking again for the same name and label set returns
    the same cell, so independent layers can bump shared counters. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Registers (or finds) the counter [name] with [labels]. Label
    order does not matter for identity. *)

val incr : ?by:int -> counter -> unit
val set : counter -> int -> unit
val value : counter -> int

(** {1 Histograms} *)

type histogram

val histogram :
  t -> ?labels:(string * string) list -> ?buckets:int list -> string -> histogram
(** [buckets] are inclusive upper bounds, sorted ascending (defaults
    to powers of four up to 65536); an implicit +Inf bucket catches
    the rest. @raise Invalid_argument if [buckets] is unsorted, or if
    re-registering an existing histogram with different buckets. *)

val observe : histogram -> int -> unit
val observations : histogram -> int
val sum : histogram -> int
val max_value : histogram -> int
(** 0 when empty. *)

val mean : histogram -> float
(** 0.0 when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0.0 <= q <= 1.0]) by
    linear interpolation inside the first bucket whose cumulative
    count reaches the rank — the Prometheus [histogram_quantile]
    estimate. Ranks landing in the +Inf bucket report the exact
    observed maximum; the estimate is clamped to that maximum. 0.0
    when empty. @raise Invalid_argument when [q] is out of range. *)

val bucket_counts : histogram -> (int option * int) list
(** Cumulative counts per upper bound, [None] = +Inf, Prometheus
    style. *)

(** {1 Rendering} *)

type value_view =
  | Counter_value of int
  | Histogram_value of {
      n : int;
      total : int;
      max_v : int;
      cumulative : (int option * int) list;
    }

val snapshot : t -> (string * (string * string) list * value_view) list
(** Every registered cell, in registration order. *)

val render_name : string -> (string * string) list -> string
(** [name\{k="v",...\}], label-less names unchanged. *)

val to_table : ?title:string -> t -> Report.Table.t
(** One row per counter; histograms expand to [_count], [_sum],
    [_max] and cumulative [_bucket] rows. *)

val to_jsonl : ?title:string -> t -> string
(** {!to_table} serialized through {!Report.Table.to_jsonl} — one
    JSON object per metric row. *)
