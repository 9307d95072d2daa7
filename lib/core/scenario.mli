(** End-to-end glue: program/graph + trace + codec, ready to run under
    any policy. This is the library's main entry point. *)

type t = {
  name : string;
  graph : Cfg.Graph.t;
  info : Engine.block_info array;
  trace : int array;
  codec : Compress.Codec.t;
  program : Eris.Program.t option;
}

val of_program :
  ?name:string ->
  ?codec:Compress.Codec.t ->
  ?fuel:int ->
  ?mem_init:(Eris.Machine.t -> unit) ->
  Eris.Program.t ->
  t
(** Builds the CFG, executes the program once to obtain the
    instruction access pattern, and compresses every block with
    [codec] (default {!Compress.Registry.default}).
    @raise Eris.Machine.Fault if the program does not halt. *)

val of_source :
  ?name:string ->
  ?codec:Compress.Codec.t ->
  ?fuel:int ->
  ?mem_init:(Eris.Machine.t -> unit) ->
  string ->
  t
(** {!of_program} over {!Eris.Asm.assemble_exn}.
    @raise Eris.Asm.Error on assembly problems. *)

val of_graph :
  ?name:string ->
  ?codec:Compress.Codec.t ->
  Cfg.Graph.t ->
  trace:int array ->
  t
(** For synthetic graphs without real code: every block gets
    deterministic pseudo-instruction bytes of its declared size, which
    are then really compressed with [codec], so compression ratios and
    costs stay honest. *)

val synthetic_block_bytes : id:int -> size:int -> bytes
(** The pseudo-code generator used by {!of_graph}: word-structured,
    locally repetitive byte patterns resembling RISC instruction
    streams. *)

val run :
  ?config:Config.t ->
  ?profile:string ->
  ?log:(Engine.event -> unit) ->
  ?sink:Sim.Events.sink ->
  ?guard:(int -> unit) ->
  ?registry:Sim.Metrics.t ->
  t ->
  Policy.t ->
  Metrics.t
(** Runs the policy engine. The default cost model takes the per-byte
    decompression/compression rates from the scenario's codec, with
    coefficients from the named device [profile] (default
    [paper-2005]); an explicit [config] wins over [profile].
    [sink]/[registry] stream events and publish final metrics through
    the {!Sim} kernel, and [guard] hears the number of events emitted
    every 256 trace steps and after the last; it may raise to abort
    the run — see {!Engine.run}.
    @raise Invalid_argument on an unknown [profile]. *)

val profile : t -> Cfg.Profile.t
(** Edge profile of the scenario's own trace (for profile-guided
    prediction). *)

val pp_summary : Format.formatter -> t -> unit
