(** Interpreter for ERIS-32 programs (Harvard model: the instruction
    image is separate from data memory).

    The machine also serves as the trace generator for the compression
    experiments: [run ~leaders ~on_block] invokes [on_block pc] every
    time execution enters an instruction address marked as a
    basic-block leader. *)

exception Fault of { pc : int; message : string }

type t

val create : ?mem_size:int -> Program.t -> t
(** Fresh machine at [pc = 0] with zeroed registers and data memory
    ([mem_size] bytes, default 65536). Data words declared with
    [.data]/[.dw] are preloaded. *)

val reset : t -> unit
(** Back to the initial state (registers, memory, pc, counters). *)

val program : t -> Program.t
val pc : t -> int
val halted : t -> bool
val instr_count : t -> int

val cycle_count : t -> int
(** Accumulated {!Types.cycle_cost} of executed instructions. *)

val get_reg : t -> Types.reg -> int
(** Value in [0, 2{^32}). *)

val set_reg : t -> Types.reg -> int -> unit

val read_word : t -> int -> int
(** Data memory access (little-endian).
    @raise Fault on out-of-bounds or unaligned addresses. *)

val write_word : t -> int -> int -> unit
val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val step : t -> unit
(** Executes one instruction. No-op when already halted.
    @raise Fault on invalid memory access or pc. *)

val set_pc : t -> int -> unit
(** Redirects control (used by exception handlers that relocate
    execution into decompressed copies). *)

val execute_instruction : t -> Types.instruction -> unit
(** Executes a given instruction at the current pc without fetching
    from the program image — the hook that lets a runtime execute
    relocated copies of basic blocks. Performs no pc bounds check;
    memory accesses still fault as usual. No-op when halted. *)

(** Why {!run} returned. *)
type stop_reason =
  | Halted
  | Out_of_fuel

type run_result = { instrs : int; cycles : int; reason : stop_reason }

val run :
  ?fuel:int ->
  ?leaders:int list ->
  ?on_block:(int -> unit) ->
  t ->
  run_result
(** Runs until [Halt] or until [fuel] instructions (default 10 million)
    have executed. [on_block addr] fires whenever execution is about to
    execute the instruction at [addr] and [addr] is listed in
    [leaders]. *)

val run_to_halt : ?fuel:int -> t -> run_result
(** Like {!run} but raises [Fault] if the fuel runs out, for workloads
    that must terminate. *)
