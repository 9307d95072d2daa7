(** The executable runtime's decompressed-copy area manager.

    An area couples a retention {!Policy.t} (when copies die) with the
    remember-set bookkeeping of patched branch sites (which sites were
    patched to point at each copy, paper §5) and with {!Sim.Events}
    emission for the discard vocabulary. The area is generic in the
    {e site} representation; the runtime records concrete patched
    slots ([copy * slot], deduplicated through [site_key]). The timing
    model ({!Core.Engine}) drives a {!Policy.t} directly and keeps its
    own remember sets of block ids. *)

type 'site t

val create :
  policy:Policy.t ->
  blocks:int ->
  ?emit:(Sim.Events.t -> unit) ->
  ?now:(unit -> int) ->
  site_key:('site -> int) ->
  unit ->
  'site t
(** [site_key] must injectively map a site to an [int] — the area uses
    it to deduplicate repeated patches of the same site; the sites
    themselves are kept beside their keys for {!release}. [emit]/[now]
    are used only by {!discard} (hosts that emit their own events use
    {!release} instead). *)

(** {1 Retention hooks} — direct calls into the policy; see
    {!Policy} for semantics. *)

val on_materialize : 'site t -> block:int -> step:int -> unit
val on_ready : 'site t -> block:int -> time:int -> unit
val on_execute : 'site t -> block:int -> step:int -> time:int -> unit

val due : 'site t -> step:int -> int
(** The policy's due set for [step], handed off without allocation:
    returns how many blocks are due; {!due_block} reads them, in
    ascending order. The set stays readable until the next [due]
    call — releasing the due blocks does not disturb it. *)

val due_block : 'site t -> int -> int
(** [due_block t i] is the [i]-th block (from 0) of the last {!due}. *)

(** {1 Remember sets} *)

val record_site : 'site t -> target:int -> site:'site -> bool
(** Records that [site] was patched to point at [target]'s copy.
    Returns [true] if the site was new ([false] = already recorded, no
    patch was needed). *)

(** {1 Copy death} *)

val release : 'site t -> block:int -> patch_back:('site -> bool) -> int
(** Ends [block]'s copy: flushes its remember set through [patch_back]
    (in recording order; the return value counts [true] results, i.e.
    patches actually performed) and tells the policy to drop its
    state. Emits nothing — for hosts that emit their own
    discard/evict events. *)

val discard :
  ?wasted:bool -> 'site t -> block:int -> patch_back:('site -> bool) -> int
(** {!release}, then emits [Discard] stamped with [now ()]. *)
