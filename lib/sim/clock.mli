(** The helper threads of the paper's Figure 4 (decompression and
    compression) as serially reused resources. A request scheduled on
    one starts at [max now free_at] and completes after its duration,
    concurrently with execution; the execution thread's own time is
    the caller's, and helper work costs it wall-clock time only when
    it has to wait for a completion. *)

type resource

val resource : unit -> resource

val schedule : resource -> now:int -> cycles:int -> int
(** Books [cycles] of work, starting when the resource next falls
    idle, and returns the completion time. Accumulates busy time. *)

val push_back : resource -> now:int -> cycles:int -> unit
(** Books [cycles] without a completion time the caller cares about
    (e.g. patch-backs folded into the compression thread's backlog). *)

val free_at : resource -> int
(** Time at which the currently-booked work completes. *)

val busy_cycles : resource -> int
(** Total cycles of work ever booked on this resource. *)
