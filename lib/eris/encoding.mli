(** Binary encoding of ERIS-32 instructions.

    Every instruction occupies exactly 32 bits:

    {v
    bits 31..26  opcode
    bits 25..22  rd   (rs1 for branches)
    bits 21..18  rs1  (rs2 for branches)
    bits 17..14  rs2
    bits 13..0   imm14 (signed)          ALU-imm, loads, stores, jalr
    bits 17..0   imm18 (signed/unsigned) branches / lui
    bits 21..0   imm22 (signed)          jal
    v}

    [decode (encode i) = Ok i] for every valid instruction. *)

exception Decode_error of string

val encode : Types.instruction -> int
(** [encode i] is the 32-bit word for [i], in [0, 2{^32}).
    @raise Invalid_argument if an immediate does not fit (see
    {!Types.validate}). *)

val decode : int -> (Types.instruction, string) result
(** [decode w] decodes the 32-bit word [w]. *)

val encode_program : Types.instruction array -> bytes
(** Little-endian concatenation of the encoded words. *)

val decode_program : bytes -> (Types.instruction array, string) result
(** Inverse of {!encode_program}; fails if the length is not a multiple
    of 4 or any word is invalid. *)

val read_word : bytes -> int -> int
(** [read_word b off] reads a little-endian 32-bit word. *)

val write_word : bytes -> int -> int -> unit
