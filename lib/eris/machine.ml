exception Fault of { pc : int; message : string }

type t = {
  prog : Program.t;
  regs : int array;
  mem : Bytes.t;
  mutable pc : int;
  mutable halted : bool;
  mutable instrs : int;
  mutable cycles : int;
}

let fault t fmt =
  Printf.ksprintf (fun m -> raise (Fault { pc = t.pc; message = m })) fmt

let preload t =
  List.iter
    (fun (addr, v) ->
      if addr < 0 || addr + 4 > Bytes.length t.mem || addr mod 4 <> 0 then
        fault t "bad .data preload address %d" addr;
      Encoding.write_word t.mem addr v)
    t.prog.Program.data

let create ?(mem_size = 65536) prog =
  let t =
    {
      prog;
      regs = Array.make 16 0;
      mem = Bytes.make mem_size '\000';
      pc = 0;
      halted = false;
      instrs = 0;
      cycles = 0;
    }
  in
  preload t;
  t

let reset t =
  Array.fill t.regs 0 16 0;
  Bytes.fill t.mem 0 (Bytes.length t.mem) '\000';
  t.pc <- 0;
  t.halted <- false;
  t.instrs <- 0;
  t.cycles <- 0;
  preload t

let program t = t.prog
let pc t = t.pc
let halted t = t.halted
let instr_count t = t.instrs
let cycle_count t = t.cycles

let norm v = v land 0xFFFFFFFF
let signed v = if v > 0x7FFFFFFF then v - 0x100000000 else v

let get_reg t r = t.regs.(Types.reg_index r)

let set_reg t r v =
  let i = Types.reg_index r in
  if i <> 0 then t.regs.(i) <- norm v

let check_data t addr len =
  if addr < 0 || addr + len > Bytes.length t.mem then
    fault t "data access out of bounds: %d" addr;
  if len = 4 && addr mod 4 <> 0 then fault t "unaligned word access: %d" addr

let read_word t addr =
  check_data t addr 4;
  Encoding.read_word t.mem addr

let write_word t addr v =
  check_data t addr 4;
  Encoding.write_word t.mem addr (norm v)

let read_byte t addr =
  check_data t addr 1;
  Char.code (Bytes.get t.mem addr)

let write_byte t addr v =
  check_data t addr 1;
  Bytes.set t.mem addr (Char.chr (v land 0xFF))

let alu op a b =
  match (op : Types.alu_op) with
  | Add -> norm (a + b)
  | Sub -> norm (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Sll -> norm (a lsl (b land 31))
  | Srl -> a lsr (b land 31)
  | Sra -> norm (signed a asr (b land 31))
  | Slt -> if signed a < signed b then 1 else 0
  | Mul -> norm (a * b)

let cond_holds c a b =
  match (c : Types.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> signed a < signed b
  | Ge -> signed a >= signed b

let fetch t =
  let size = Program.byte_size t.prog in
  if t.pc < 0 || t.pc >= size || t.pc mod 4 <> 0 then
    fault t "bad pc %d (program size %d)" t.pc size;
  t.prog.Program.instrs.(t.pc / 4)

let set_pc t pc = t.pc <- pc

(* The immediate stored in [Alui] is already the semantic value
   (sign- or zero-extended by the decoder), so it is used directly. *)
let execute_instruction t i =
  if t.halted then ()
  else begin
    let next = t.pc + 4 in
    t.instrs <- t.instrs + 1;
    t.cycles <- t.cycles + Types.cycle_cost i;
    (match i with
    | Types.Alu (op, rd, rs1, rs2) ->
      set_reg t rd (alu op (get_reg t rs1) (get_reg t rs2));
      t.pc <- next
    | Alui (op, rd, rs1, imm) ->
      set_reg t rd (alu op (get_reg t rs1) (norm imm));
      t.pc <- next
    | Lui (rd, imm) ->
      set_reg t rd (imm lsl 14);
      t.pc <- next
    | Load (W32, rd, rs1, off) ->
      set_reg t rd (read_word t (norm (get_reg t rs1 + off)));
      t.pc <- next
    | Load (W8, rd, rs1, off) ->
      set_reg t rd (read_byte t (norm (get_reg t rs1 + off)));
      t.pc <- next
    | Store (W32, rs2, rs1, off) ->
      write_word t (norm (get_reg t rs1 + off)) (get_reg t rs2);
      t.pc <- next
    | Store (W8, rs2, rs1, off) ->
      write_byte t (norm (get_reg t rs1 + off)) (get_reg t rs2);
      t.pc <- next
    | Branch (c, rs1, rs2, off) ->
      if cond_holds c (get_reg t rs1) (get_reg t rs2) then
        t.pc <- next + (4 * off)
      else t.pc <- next
    | Jal (rd, off) ->
      set_reg t rd next;
      t.pc <- next + (4 * off)
    | Jalr (rd, rs1, off) ->
      let target = norm (get_reg t rs1 + off) in
      set_reg t rd next;
      t.pc <- target
    | Halt -> t.halted <- true);
    ()
  end

let step t = if t.halted then () else execute_instruction t (fetch t)

type stop_reason = Halted | Out_of_fuel

type run_result = { instrs : int; cycles : int; reason : stop_reason }

let no_block (_ : int) = ()

let run ?(fuel = 10_000_000) ?(leaders = []) ?(on_block = no_block) (t : t) =
  let start_instrs = t.instrs in
  let start_cycles = t.cycles in
  let leader_set =
    let n = Program.length t.prog in
    let a = Array.make (max n 1) false in
    List.iter
      (fun addr -> if addr >= 0 && addr / 4 < n && addr mod 4 = 0 then a.(addr / 4) <- true)
      leaders;
    a
  in
  let budget = ref fuel in
  let rec loop () =
    if t.halted then Halted
    else if !budget <= 0 then Out_of_fuel
    else begin
      if t.pc >= 0 && t.pc / 4 < Array.length leader_set && t.pc mod 4 = 0
         && leader_set.(t.pc / 4)
      then on_block t.pc;
      step t;
      decr budget;
      loop ()
    end
  in
  let reason = loop () in
  { instrs = t.instrs - start_instrs; cycles = t.cycles - start_cycles; reason }

let run_to_halt ?fuel t =
  let r = run ?fuel t in
  match r.reason with
  | Halted -> r
  | Out_of_fuel -> fault t "out of fuel after %d instructions" r.instrs
