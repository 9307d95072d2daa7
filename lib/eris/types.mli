(** Core definitions of the ERIS-32 embedded instruction set.

    ERIS-32 is a small Harvard-architecture RISC ISA used as the target
    processor for the code-compression experiments: 16 general-purpose
    32-bit registers, fixed-width 32-bit instructions, byte-addressed
    data memory and word-aligned instruction memory. *)

(** A register index in [0, 15]. [r0] always reads as zero; writes to it
    are discarded. By convention [r13] is the stack pointer, [r14] the
    frame pointer and [r15] the link register. *)
type reg = private int

val reg : int -> reg
(** [reg i] validates [i] as a register index.
    @raise Invalid_argument if [i] is outside [0, 15]. *)

val reg_index : reg -> int
(** [reg_index r] is the raw index of [r]. *)

val r0 : reg
val sp : reg
val fp : reg
val ra : reg

val reg_name : reg -> string
(** Canonical name, e.g. ["r3"]; [r13]-[r15] print as
    ["sp"], ["fp"], ["ra"]. *)

val reg_of_name : string -> reg option
(** Parses ["r0"].. ["r15"] and the aliases ["zero"], ["sp"], ["fp"],
    ["ra"]. *)

(** Arithmetic/logic operations, shared by the register and immediate
    instruction forms. *)
type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Mul

val alu_op_name : alu_op -> string
val all_alu_ops : alu_op list

(** Branch conditions; comparisons are signed. *)
type cond =
  | Eq
  | Ne
  | Lt
  | Ge

val cond_name : cond -> string
val all_conds : cond list

(** Memory access width. *)
type width =
  | W8
  | W32

(** An ERIS-32 instruction. Branch and jump offsets are in {e words}
    relative to the address of the next instruction (pc + 4). *)
type instruction =
  | Alu of alu_op * reg * reg * reg  (** [Alu (op, rd, rs1, rs2)] *)
  | Alui of alu_op * reg * reg * int
      (** [Alui (op, rd, rs1, imm)]; [imm] is a signed 14-bit value. *)
  | Lui of reg * int
      (** [Lui (rd, imm)]: [rd <- imm lsl 14]; [imm] is unsigned 18-bit. *)
  | Load of width * reg * reg * int
      (** [Load (w, rd, rs1, off)]: [rd <- mem.(rs1 + off)]. *)
  | Store of width * reg * reg * int
      (** [Store (w, rs2, rs1, off)]: [mem.(rs1 + off) <- rs2]. *)
  | Branch of cond * reg * reg * int
      (** [Branch (c, rs1, rs2, off)]: signed 18-bit word offset. *)
  | Jal of reg * int
      (** [Jal (rd, off)]: [rd <- pc + 4]; signed 22-bit word offset. *)
  | Jalr of reg * reg * int
      (** [Jalr (rd, rs1, off)]: [rd <- pc + 4]; [pc <- rs1 + off]. *)
  | Halt  (** Stops the machine. *)

val imm14_fits : int -> bool
val imm18_fits : int -> bool
val imm22_fits : int -> bool
val uimm14_fits : int -> bool
val uimm18_fits : int -> bool

val alu_imm_unsigned : alu_op -> bool
(** Logical immediates ([And], [Or], [Xor]) are zero-extended from
    their 14-bit field; all others are sign-extended. *)

val alui_imm_fits : alu_op -> int -> bool

val validate : instruction -> (unit, string) result
(** [validate i] checks that every immediate fits its encoding field. *)

val is_control_transfer : instruction -> bool
(** Branches, jumps and [Halt]: instructions that can end a basic
    block. *)

val cycle_cost : instruction -> int
(** Nominal execution cost in cycles: 1 for ALU and jumps, 2 for memory
    accesses and taken-path branches, 3 for [Mul], 1 for [Halt]. *)

val pp : Format.formatter -> instruction -> unit
(** Assembly-syntax printer (the inverse of {!Asm.parse_line} for
    well-formed instructions). *)

val to_string : instruction -> string

val equal : instruction -> instruction -> bool
