exception Decode_error of string

let opcode_alu op =
  match (op : Types.alu_op) with
  | Add -> 1
  | Sub -> 2
  | And -> 3
  | Or -> 4
  | Xor -> 5
  | Sll -> 6
  | Srl -> 7
  | Sra -> 8
  | Slt -> 9
  | Mul -> 10

let alu_of_opcode = function
  | 1 -> Types.Add
  | 2 -> Sub
  | 3 -> And
  | 4 -> Or
  | 5 -> Xor
  | 6 -> Sll
  | 7 -> Srl
  | 8 -> Sra
  | 9 -> Slt
  | 10 -> Mul
  | n -> raise (Decode_error (Printf.sprintf "bad ALU opcode %d" n))

let opcode_branch c =
  match (c : Types.cond) with Eq -> 26 | Ne -> 27 | Lt -> 28 | Ge -> 29

(* Field helpers.  Signed immediates are stored in two's complement
   within their field width. *)
let mask bits = (1 lsl bits) - 1
let to_field bits v = v land mask bits

let of_signed_field bits v =
  if v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v

let rix = Types.reg_index

let encode i =
  (match Types.validate i with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Eris.Encoding.encode: " ^ msg));
  let word op rd rs1 rs2 imm_bits imm =
    (op lsl 26) lor (rd lsl 22) lor (rs1 lsl 18) lor (rs2 lsl 14)
    lor to_field imm_bits imm
  in
  match i with
  | Types.Alu (op, rd, rs1, rs2) ->
    word (opcode_alu op) (rix rd) (rix rs1) (rix rs2) 14 0
  | Alui (op, rd, rs1, imm) ->
    word (10 + opcode_alu op) (rix rd) (rix rs1) 0 14 imm
  | Lui (rd, imm) -> (21 lsl 26) lor (rix rd lsl 22) lor to_field 18 imm
  | Load (W32, rd, rs1, off) -> word 22 (rix rd) (rix rs1) 0 14 off
  | Load (W8, rd, rs1, off) -> word 23 (rix rd) (rix rs1) 0 14 off
  | Store (W32, rs2, rs1, off) -> word 24 (rix rs2) (rix rs1) 0 14 off
  | Store (W8, rs2, rs1, off) -> word 25 (rix rs2) (rix rs1) 0 14 off
  | Branch (c, rs1, rs2, off) ->
    (opcode_branch c lsl 26)
    lor (rix rs1 lsl 22)
    lor (rix rs2 lsl 18)
    lor to_field 18 off
  | Jal (rd, off) -> (30 lsl 26) lor (rix rd lsl 22) lor to_field 22 off
  | Jalr (rd, rs1, off) -> word 31 (rix rd) (rix rs1) 0 14 off
  | Halt -> 32 lsl 26

let decode w =
  if w < 0 || w > 0xFFFFFFFF then Error (Printf.sprintf "word out of range: %d" w)
  else
    let op = (w lsr 26) land mask 6 in
    let rd = Types.reg ((w lsr 22) land mask 4) in
    let rs1 = Types.reg ((w lsr 18) land mask 4) in
    let rs2 = Types.reg ((w lsr 14) land mask 4) in
    let imm14 = of_signed_field 14 (w land mask 14) in
    let imm18 = of_signed_field 18 (w land mask 18) in
    let uimm18 = w land mask 18 in
    let imm22 = of_signed_field 22 (w land mask 22) in
    try
      match op with
      | n when n >= 1 && n <= 10 -> Ok (Types.Alu (alu_of_opcode n, rd, rs1, rs2))
      | n when n >= 11 && n <= 20 ->
        let op = alu_of_opcode (n - 10) in
        let imm = if Types.alu_imm_unsigned op then w land mask 14 else imm14 in
        Ok (Types.Alui (op, rd, rs1, imm))
      | 21 -> Ok (Types.Lui (rd, uimm18))
      | 22 -> Ok (Types.Load (W32, rd, rs1, imm14))
      | 23 -> Ok (Types.Load (W8, rd, rs1, imm14))
      | 24 -> Ok (Types.Store (W32, rd, rs1, imm14))
      | 25 -> Ok (Types.Store (W8, rd, rs1, imm14))
      | 26 -> Ok (Types.Branch (Eq, rd, rs1, imm18))
      | 27 -> Ok (Types.Branch (Ne, rd, rs1, imm18))
      | 28 -> Ok (Types.Branch (Lt, rd, rs1, imm18))
      | 29 -> Ok (Types.Branch (Ge, rd, rs1, imm18))
      | 30 -> Ok (Types.Jal (rd, imm22))
      | 31 -> Ok (Types.Jalr (rd, rs1, imm14))
      | 32 -> Ok Types.Halt
      | n -> Error (Printf.sprintf "unknown opcode %d" n)
    with Decode_error msg -> Error msg

let read_word b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let write_word b off w =
  Bytes.set b off (Char.chr (w land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((w lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((w lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((w lsr 24) land 0xFF))

let encode_program instrs =
  let b = Bytes.create (Array.length instrs * 4) in
  Array.iteri (fun i ins -> write_word b (i * 4) (encode ins)) instrs;
  b

let decode_program b =
  let len = Bytes.length b in
  if len mod 4 <> 0 then Error "program length not a multiple of 4"
  else
    let n = len / 4 in
    let rec loop acc i =
      if i = n then Ok (Array.of_list (List.rev acc))
      else
        match decode (read_word b (i * 4)) with
        | Ok ins -> loop (ins :: acc) (i + 1)
        | Error msg -> Error (Printf.sprintf "word %d: %s" i msg)
    in
    loop [] 0
