(** Self-describing sweep jobs.

    A job names one policy-engine run — workload scenario, codec,
    policy knobs — using only serializable data (strings and numbers,
    no closures), so the same spec can be expanded from a CLI matrix,
    shipped to a worker domain, and hashed into a stable content key
    for the {!Cache}. Everything a run needs that is not in the spec
    (the predictor's profile, the pin-hot pinned set) is derived
    deterministically from the scenario inside {!execute}, so equal
    keys really do mean equal results. *)

type strategy =
  | On_demand
  | Pre_all of { lookahead : int }
  | Pre_single of { lookahead : int; predictor : string }
      (** predictor is ["first"], ["last-taken"] or ["profile"] *)

type mode =
  | Discard
  | Recompress

type retention =
  | Kedge
  | Loop_aware of { weight : int }
  | Clock
  | Pin_hot of { fraction : float }
      (** pinned set = the profile-hot blocks covering [fraction] of
          visits, recomputed from the scenario's own trace *)

type t = {
  scenario : string;  (** workload name, resolved by the caller *)
  codec : string;  (** registry codec name, or ["code"] *)
  k : int;
  strategy : strategy;
  mode : mode;
  budget : int option;
  retention : retention;
  profile : string;  (** device profile naming the cost coefficients *)
  line_size : int option;
      (** [Some bytes] runs the scenario through {!Core.Lineview} —
          line-granular residency — instead of block-granular
          {!Core.Scenario.run} *)
}

val default_profile : string
(** ["paper-2005"]. *)

val make :
  ?codec:string ->
  ?strategy:strategy ->
  ?mode:mode ->
  ?budget:int ->
  ?retention:retention ->
  ?profile:string ->
  ?line_size:int ->
  scenario:string ->
  k:int ->
  unit ->
  t
(** Defaults: codec ["code"], [On_demand], [Discard], no budget,
    [Kedge], profile {!default_profile}, block granularity (no
    [line_size]). The profile and line size are part of the content
    key — the same sweep under two device profiles, or at two line
    granularities, never shares cache entries. *)

val canonical : t -> string
(** Canonical one-line serialization: every field rendered in a fixed
    order (floats in hexadecimal so the text round-trips exactly).
    Two specs are the same job iff their canonical strings are
    equal. *)

val key : t -> string
(** Hex digest of {!canonical}, prefixed with the spec format
    version — the content address used by {!Cache}. Filesystem-safe
    ([a-z0-9-] only). *)

val strategy_to_string : strategy -> string
val mode_to_string : mode -> string
val retention_to_string : retention -> string
(** The renderings {!canonical} uses: a name, then any parameters after
    colons (["pre-single:2:profile"], ["loop-aware:1"]). *)

val describe : t -> string
(** Human-readable one-liner for progress output. *)

val policy : Core.Scenario.t -> t -> Core.Policy.t
(** The engine policy the job names, built against [scenario]: the
    profile predictor and the pin-hot pinned set are derived from the
    scenario's own trace. The one translation from a job's settings to
    a {!Core.Policy.t} — {!execute} and [ccomp sim] go through it,
    [ccomp run] through its {!retention_spec}.
    @raise Invalid_argument on an unknown predictor or a malformed
    parameter. *)

val retention_spec :
  profile:(unit -> Cfg.Profile.t) -> t -> Residency.Policy.spec
(** The retention part of {!policy}. [profile] is called only for
    pin-hot, whose pinned set it gives: a caller without a scenario at
    hand (the runtime) skips the profiling run for every other
    policy. *)

val execute :
  ?sink:Sim.Events.sink ->
  ?guard:(int -> unit) ->
  Core.Scenario.t ->
  t ->
  Core.Metrics.t
(** Runs the job against [scenario] (which the caller resolved from
    [t.scenario]/[t.codec]). Deterministic: no clocks, no global
    state, safe to call from any domain as long as the scenario is
    not mutated concurrently. [guard] hears the events emitted every
    256 trace steps and after the last, and may raise to abort the run
    ({!Sweep} passes {!Pool.tick}); see {!Core.Engine.run}.
    @raise Invalid_argument on malformed specs (bad k, lookahead,
    predictor or retention parameters) — the pool turns this into a
    per-job [Error]. *)
