(** The run settings of a {!Job.t}, declared once: one row per setting
    with its JSON field, CLI spelling, value type (which is also its
    validator), doc string, and how it reads and writes a job. Defaults
    are {!base}'s, plus the parameters a choice brings with it (the
    strategies' lookahead and predictor, loop-aware's weight, pin-hot's
    fraction), which those rows' docs state.
    The [ccomp] options of sim, run, sweep and call, the service's
    request decoding and [job_to_json] all derive from {!rows}. *)

type _ kind =
  | Int : { min : int } -> int kind  (** an integer [>= min] *)
  | Fraction : float kind  (** a number in (0, 1] *)
  | Name : { what : string; known : unit -> string list } -> string kind
      (** one of [known ()], read on every use *)

type 'a cli =
  | Opt of string  (** [--name VALUE], or [-k VALUE] for one letter *)
  | Flag of string * 'a  (** [--name] selects the value *)

type 'a t = {
  field : string;  (** the JSON member in requests and [job_to_json] *)
  cli : 'a cli;
  docv : string;
  kind : 'a kind;
  doc : string;
  get : Job.t -> 'a option;
      (** [None] when the job does not use the setting (a lookahead
          under on-demand) *)
  set : 'a -> Job.t -> Job.t;
      (** a no-op where the setting does not apply; applied in {!rows}
          order, so a strategy is set before its lookahead *)
}

type row = Row : 'a t -> row

val codec : string t
val k : int t
val strategy : string t
val lookahead : int t
val predictor : string t
val mode : string t
val budget : int t
val retention : string t
val weight : int t
val fraction : float t
val profile : string t
val line_size : int t

val rows : row list
(** Every setting above, in that order. *)

val sweep_rows : row list
(** {!rows} without {!k}: a sweep takes a list of k values instead. *)

val base : scenario:string -> Job.t
(** The job with every setting at its default: {!Job.make}'s, and
    [k = 8]. *)

val validate : 'a t -> 'a -> ('a, string) result
(** The row's one message, unprefixed: each surface adds its own. *)

val parse : 'a t -> string -> ('a, string) result
(** A command-line value, parsed and validated. *)

val to_string : 'a t -> 'a -> string
val choices : string t -> string list

val doc : 'a t -> string
(** The doc string, followed by the choices of a named option. *)
