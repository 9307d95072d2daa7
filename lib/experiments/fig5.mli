(** E5 — Figure 5: the §5 memory organization traced step by step for
    the access pattern B0, B1, B0, B1, B3 with k = 2. Runs the engine
    ({!Core.Scenario.run}, on-demand) and reads its event stream back
    into the nine numbered snapshots: initial all-compressed image,
    decompressions into the separate area, branch patching via
    remember sets, the exception-free direct branch of step (7), and
    the deletion of B0' in step (9). The compressed area is the
    scenario's fixed per-block compressed sizes. *)

val run : unit -> Report.Table.t

val holds : unit -> bool
(** After the final step, exactly B1' and B3' are resident, and the
    only deletion was B0', with one branch site patched back. *)
