(** Plain-text tables for the experiment harness (the "rows the paper
    reports"). *)

type align =
  | Left
  | Right

type t

val create : title:string -> columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the arity does not match the columns. *)

val title : t -> string
val columns : t -> string list
val rows : t -> string list list

val cell : t -> row:int -> col:string -> string
(** @raise Not_found for unknown column names or row indexes. *)

val render : t -> string
(** ASCII rendering with a title line, a header and aligned columns. *)

val to_csv : t -> string
(** RFC-4180 style; header and data cells containing commas, double
    quotes or newlines are quoted and escaped. *)

val json_escape : string -> string
(** Escapes a string for inclusion inside a JSON string literal. *)

val to_jsonl : t -> string
(** One JSON object per data row, keyed by column name — the format
    consumed by log pipelines, and the one {!Sim.Metrics} and the
    event sinks reuse. The table title is not included. *)

val to_markdown : t -> string
(** GitHub-flavored Markdown: pipe-aligned columns (padded so the raw
    text is readable too), alignment markers from the column spec
    ([---:] for right-aligned), cells with [|] escaped and newlines
    turned into [<br>]. The table title is not included. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

(** Formatting helpers used across experiments. *)

val fmt_int : int -> string
val fmt_float : ?decimals:int -> float -> string
val fmt_pct : ?decimals:int -> float -> string
(** [fmt_pct 0.123] = ["12.3%"]. *)

val fmt_bytes : int -> string
