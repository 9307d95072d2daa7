(** Disassembly of ERIS-32 binary images back to assembly text. *)

val instruction : int -> string
(** [instruction w] disassembles one 32-bit word, or returns
    [".word 0x…"] if the word does not decode. *)

val image : ?base:int -> bytes -> (int * string) list
(** [image b] is the [(address, text)] disassembly of a binary image;
    [base] (default 0) offsets the printed addresses. Trailing bytes
    that do not fill a word are reported as [".byte …"] entries. *)
