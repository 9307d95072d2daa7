type reg = int

let reg i =
  if i < 0 || i > 15 then invalid_arg (Printf.sprintf "Eris.Types.reg: %d" i);
  i

let reg_index r = r
let r0 = 0
let sp = 13
let fp = 14
let ra = 15

let reg_name r =
  match r with
  | 13 -> "sp"
  | 14 -> "fp"
  | 15 -> "ra"
  | n -> "r" ^ string_of_int n

let reg_of_name s =
  match s with
  | "zero" -> Some 0
  | "sp" -> Some 13
  | "fp" -> Some 14
  | "ra" -> Some 15
  | _ ->
    let n = String.length s in
    if n >= 2 && n <= 3 && s.[0] = 'r' then
      match int_of_string_opt (String.sub s 1 (n - 1)) with
      | Some i when i >= 0 && i <= 15 -> Some i
      | Some _ | None -> None
    else None

type alu_op = Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Mul

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Slt -> "slt"
  | Mul -> "mul"

let all_alu_ops = [ Add; Sub; And; Or; Xor; Sll; Srl; Sra; Slt; Mul ]

type cond = Eq | Ne | Lt | Ge

let cond_name = function Eq -> "beq" | Ne -> "bne" | Lt -> "blt" | Ge -> "bge"
let all_conds = [ Eq; Ne; Lt; Ge ]

type width = W8 | W32

type instruction =
  | Alu of alu_op * reg * reg * reg
  | Alui of alu_op * reg * reg * int
  | Lui of reg * int
  | Load of width * reg * reg * int
  | Store of width * reg * reg * int
  | Branch of cond * reg * reg * int
  | Jal of reg * int
  | Jalr of reg * reg * int
  | Halt

let fits_signed bits v =
  let bound = 1 lsl (bits - 1) in
  v >= -bound && v < bound

let imm14_fits v = fits_signed 14 v
let imm18_fits v = fits_signed 18 v
let imm22_fits v = fits_signed 22 v
let uimm14_fits v = v >= 0 && v < 1 lsl 14
let uimm18_fits v = v >= 0 && v < 1 lsl 18

(* Logical immediates are zero-extended from their 14-bit field;
   arithmetic, comparison and shift immediates are sign-extended. *)
let alu_imm_unsigned = function
  | And | Or | Xor -> true
  | Add | Sub | Sll | Srl | Sra | Slt | Mul -> false

let alui_imm_fits op imm =
  if alu_imm_unsigned op then uimm14_fits imm else imm14_fits imm

let validate i =
  let check ok what v =
    if ok then Ok () else Error (Printf.sprintf "%s out of range: %d" what v)
  in
  match i with
  | Alu _ | Halt -> Ok ()
  | Alui (op, _, _, imm) -> check (alui_imm_fits op imm) "imm14" imm
  | Lui (_, imm) -> check (uimm18_fits imm) "uimm18" imm
  | Load (_, _, _, off) | Store (_, _, _, off) | Jalr (_, _, off) ->
    check (imm14_fits off) "imm14" off
  | Branch (_, _, _, off) -> check (imm18_fits off) "imm18" off
  | Jal (_, off) -> check (imm22_fits off) "imm22" off

let is_control_transfer = function
  | Branch _ | Jal _ | Jalr _ | Halt -> true
  | Alu _ | Alui _ | Lui _ | Load _ | Store _ -> false

let cycle_cost = function
  | Alu (Mul, _, _, _) | Alui (Mul, _, _, _) -> 3
  | Alu _ | Alui _ | Lui _ -> 1
  | Load _ | Store _ -> 2
  | Branch _ -> 2
  | Jal _ | Jalr _ -> 1
  | Halt -> 1

let pp ppf i =
  let r = reg_name in
  match i with
  | Alu (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s %s, %s, %s" (alu_op_name op) (r rd) (r rs1) (r rs2)
  | Alui (op, rd, rs1, imm) ->
    Format.fprintf ppf "%si %s, %s, %d" (alu_op_name op) (r rd) (r rs1) imm
  | Lui (rd, imm) -> Format.fprintf ppf "lui %s, %d" (r rd) imm
  | Load (W32, rd, rs1, off) ->
    Format.fprintf ppf "lw %s, %d(%s)" (r rd) off (r rs1)
  | Load (W8, rd, rs1, off) ->
    Format.fprintf ppf "lb %s, %d(%s)" (r rd) off (r rs1)
  | Store (W32, rs2, rs1, off) ->
    Format.fprintf ppf "sw %s, %d(%s)" (r rs2) off (r rs1)
  | Store (W8, rs2, rs1, off) ->
    Format.fprintf ppf "sb %s, %d(%s)" (r rs2) off (r rs1)
  | Branch (c, rs1, rs2, off) ->
    Format.fprintf ppf "%s %s, %s, %d" (cond_name c) (r rs1) (r rs2) off
  | Jal (rd, off) -> Format.fprintf ppf "jal %s, %d" (r rd) off
  | Jalr (rd, rs1, off) ->
    Format.fprintf ppf "jalr %s, %s, %d" (r rd) (r rs1) off
  | Halt -> Format.fprintf ppf "halt"

let to_string i = Format.asprintf "%a" pp i
let equal (a : instruction) (b : instruction) = a = b
