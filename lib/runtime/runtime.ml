type stats = {
  instructions : int;
  traps : int;
  decompressions : int;
  patches : int;
  unpatches : int;
  deletions : int;
  flushes : int;
  edges : int;
  peak_copy_bytes : int;
  live_copy_bytes : int;
  compressed_image_bytes : int;
  original_image_bytes : int;
  energy_nj : int;
}

type error =
  | Out_of_fuel of stats
  | Machine_fault of { pc : int; message : string; stats : stats }

(* ------------------------------------------------------------------ *)
(* Per-block relocation layout                                         *)

(* Each basic block has one fixed relocation layout, computed once:
   how its instructions expand into copy slots.

   - conditional branches become an inverted skip-branch plus an
     unconditional [jal r0] (so every outward transfer is a patchable
     22-bit jump);
   - linking jumps (calls) become [lui rd / ori rd / jal r0]: the
     return address is materialized as the {e home} address of the
     next instruction, so return addresses never point into copies and
     deleting a copy can never strand a return;
   - blocks that can fall through get a synthetic trailing jump to the
     next home block.

   Together with remember-set un-patching on deletion (below), no
   reference to a deleted copy can survive anywhere — which is what
   makes recycling the copy address space safe. *)
type slot =
  | Plain of Eris.Types.instruction
  | Skip of Eris.Types.cond * Eris.Types.reg * Eris.Types.reg
      (** inverted branch over the next slot *)
  | Jump of int  (** [jal r0] to this home target; the patchable kind *)

type layout = {
  slots : slot array;
  template : Eris.Types.instruction array;
      (* a copy's instructions before relocation: [Plain] as is, [Skip]
         as its branch over the next slot, a placeholder at each jump *)
  jumps : int array;  (* the [Jump] slots, the only base-dependent ones *)
  mutable checked : bool;
      (* the template has passed validation (in its first copy) *)
  first_slot : int array;
      (* per home word of the block, the first slot carrying it (for a
         branch pair the skip-branch, for a call sequence the lui): the
         trap handler's entry point. The synthetic fall-through slot,
         whose home offset is the block size, is never an entry. *)
}

exception Runtime_bug of string

let needs_fallthrough (last : Eris.Types.instruction) =
  match last with
  | Branch _ | Alu _ | Alui _ | Lui _ | Load _ | Store _ -> true
  | Jal _ | Jalr _ | Halt -> false

let invert_cond (c : Eris.Types.cond) =
  match c with
  | Eris.Types.Eq -> Eris.Types.Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt

let layout_of_block (b : Cfg.Graph.block) decoded =
  let rev = ref [] in
  let add slot home_off = rev := (slot, home_off) :: !rev in
  Array.iteri
    (fun i instr ->
      let home_off = 4 * i in
      let home_pc = b.addr + home_off in
      match (instr : Eris.Types.instruction) with
      | Branch (c, rs1, rs2, off) ->
        add (Skip (invert_cond c, rs1, rs2)) home_off;
        add (Jump (home_pc + 4 + (4 * off))) home_off
      | Jal (rd, off) ->
        let target = home_pc + 4 + (4 * off) in
        if Eris.Types.reg_index rd <> 0 then begin
          (* set the link register to the HOME return address *)
          let ret = home_pc + 4 in
          if not (Eris.Types.uimm18_fits (ret lsr 14)) then
            raise (Runtime_bug "image too large for call relocation");
          add (Plain (Eris.Types.Lui (rd, ret lsr 14))) home_off;
          add (Plain (Eris.Types.Alui (Or, rd, rd, ret land 0x3FFF))) home_off
        end;
        add (Jump target) home_off
      | Alu _ | Alui _ | Lui _ | Load _ | Store _ | Jalr _ | Halt ->
        add (Plain instr) home_off)
    decoded;
  if needs_fallthrough decoded.(Array.length decoded - 1) then
    add (Jump (b.addr + b.byte_size)) b.byte_size;
  let pairs = Array.of_list (List.rev !rev) in
  let first_slot = Array.make (b.byte_size / 4) (-1) in
  for i = Array.length pairs - 1 downto 0 do
    let off = snd pairs.(i) in
    if off < b.byte_size then first_slot.(off / 4) <- i
  done;
  let slots = Array.map fst pairs in
  let template =
    Array.map
      (function
        | Plain i -> i
        | Skip (c, rs1, rs2) -> Eris.Types.Branch (c, rs1, rs2, 1)
        | Jump _ -> Eris.Types.Halt)
      slots
  in
  let jumps =
    List.init (Array.length slots) Fun.id
    |> List.filter (fun i -> match slots.(i) with Jump _ -> true | _ -> false)
    |> Array.of_list
  in
  { slots; template; jumps; checked = false; first_slot }

(* The instruction a slot holds when (re)targeted at its home address. *)
let materialize layout ~base idx =
  match layout.slots.(idx) with
  | Jump home_target ->
    Eris.Types.Jal (Eris.Types.r0, (home_target - (base + (4 * idx) + 4)) / 4)
  | Plain _ | Skip _ -> layout.template.(idx)

(* ------------------------------------------------------------------ *)
(* Copies                                                              *)

type copy = {
  block : int;
  base : int;
  mutable instrs : Eris.Types.instruction array;  (* emptied on retirement *)
  mutable live : bool;
}

(* Line-granular accounting (compressed I-cache mode): the image is
   compressed per cache line instead of per block, a trap decompresses
   only the target block's lines that no live copy already covers, and
   a line leaves residency when the last copy referencing it dies.
   Relocation itself stays block-shaped — copies are still whole
   blocks — so the executed instruction stream is identical; only the
   decompression work and the compressed image change. *)
type linestate = {
  lmap : Residency.Linemap.t;
  line_z : bytes array;  (* per-line compressed streams *)
  line_refs : int array;  (* live copies referencing each line *)
  line_held : bool array;
      (* a line's decompressed bytes are held: set when it is
         decompressed, cleared when its last reference goes *)
}

type state = {
  prog : Eris.Program.t;
  graph : Cfg.Graph.t;
  machine : Eris.Machine.t;
  codec : Compress.Codec.t;
  cost : Sim.Cost.t;
      (* prices the events (the runtime itself has no cycle clock;
         [at] is the executed-instruction count) *)
  acc : Sim.Cost.Acc.acc;
  snk : Sim.Events.sink;
  listen : bool;  (* a sink was given: only then are events built *)
  ev : Sim.Events.Packed.chunk;
      (* every event funnels through this one chunk, so stream order
         survives batching *)
  compressed : bytes array;
  lines : linestate option;
  layouts : layout array;
  policy : Residency.Policy.t;  (* when copies die *)
  due_buf : int array;  (* [Policy.due]'s hand-off: room for every block *)
  sites : Core.Engine.Remember.t;
      (* the paper's remember sets, for real: per target block, the
         patched jump slots pointing at its copy, in recording order,
         each as its [site_key]. A dying copy forgets its own slots, so
         every recorded slot lies in a live copy. *)
  home_block : int array;  (* block of each home word *)
  by_block : copy array;  (* live copy per block, or [no_copy] *)
  mutable current : copy;
      (* the copy executing. Only a trap or a patched jump enters a
         copy, and each sets this: return addresses are home addresses
         and no instruction exposes a copy address. *)
  copy_base : int;
  copy_limit : int;
  mutable copy_ptr : int;
  mutable live_bytes : int;
  mutable peak_bytes : int;
  mutable site_copy : copy;
  mutable site_idx : int;
      (* the last transfer's jump slot in [site_copy], the site a trap
         patches; -1 for none *)
  mutable traps : int;
  mutable decompressions : int;
  mutable patches : int;
  mutable unpatches : int;
  mutable deletions : int;
  mutable flushes : int;
  mutable edges : int;
}

let image_size st = Eris.Program.byte_size st.prog
let copy_bytes c = 4 * Array.length c.instrs
let at st = Eris.Machine.instr_count st.machine

(* Whether to push an event: with a sink, after making room for one
   more (flushing the chunk if full); without one, never. *)
let emit_room st =
  st.listen
  && begin
       if Sim.Events.Packed.is_full st.ev then begin
         st.snk.Sim.Events.emit_chunk st.ev;
         Sim.Events.Packed.clear st.ev
       end;
       true
     end

let emit_drain st =
  if Sim.Events.Packed.length st.ev > 0 then begin
    st.snk.Sim.Events.emit_chunk st.ev;
    Sim.Events.Packed.clear st.ev
  end

(* The sentinel for "no copy": never live, so never executable. *)
let no_copy = { block = -1; base = -1; instrs = [||]; live = false }

let holds c pc = c.live && pc >= c.base && pc < c.base + copy_bytes c

(* With home return addresses and deletion-time un-patching, every
   valid pc outside a live copy is a home address. *)
let is_home st pc = pc >= 0 && pc < image_size st && pc land 3 = 0

(* The live copy of the block at home address [home], or [no_copy]:
   the only copy a jump slot targeting [home] can have been patched
   to, since deleting a copy patches its remember set back. *)
let copy_of_home st home =
  if is_home st home && st.home_block.(home / 4) >= 0 then
    st.by_block.(st.home_block.(home / 4))
  else no_copy

(* ------------------------------------------------------------------ *)
(* Patching and the remember sets                                      *)

(* Jump slot [idx] of [block]'s live copy, as one int: a block has at
   most one live copy. *)
let site_key st block idx = block + (Array.length st.by_block * idx)

let patch_site st c idx ~target_block ~target_addr =
  if c.live then begin
    match st.layouts.(c.block).slots.(idx) with
    | Jump _ ->
      let site_pc = c.base + (4 * idx) in
      let patched = Eris.Types.Jal (Eris.Types.r0, (target_addr - (site_pc + 4)) / 4) in
      (match Eris.Types.validate patched with
      | Ok () ->
        let site = site_key st c.block idx in
        if not (Core.Engine.Remember.mem st.sites ~target:target_block ~site)
        then begin
          Core.Engine.Remember.add st.sites ~target:target_block ~site;
          c.instrs.(idx) <- patched;
          st.patches <- st.patches + 1;
          Sim.Cost.Acc.charge st.acc Sim.Cost.Patch
            (Sim.Cost.patch_charge st.cost);
          if emit_room st then
            Sim.Events.Packed.push_patch st.ev ~at:(at st)
              ~target:target_block ~site:c.block
        end
      | Error _ -> () (* out of reach: leave it faulting *))
    | Plain _ | Skip _ -> () (* jalr sites and the like: not patchable *)
  end

(* Patch one remembered site back to the home address (the §5
   patch-back step). *)
let unpatch_site st ~target key =
  let n = Array.length st.by_block in
  let c = st.by_block.(key mod n) and idx = key / n in
  c.instrs.(idx) <- materialize st.layouts.(c.block) ~base:c.base idx;
  st.unpatches <- st.unpatches + 1;
  Sim.Cost.Acc.charge st.acc Sim.Cost.Patch_back
    (Sim.Cost.patch_back_charge st.cost ~sites:1);
  if emit_room st then
    Sim.Events.Packed.push_unpatch st.ev ~at:(at st) ~target ~site:c.block

(* Jumps inside [c] vanish with it: drop its slots from the remember
   sets of their targets. A slot is only ever patched to the copy of
   its home target, and a dead copy's set is already empty. *)
let forget_sites st c =
  let layout = st.layouts.(c.block) in
  Array.iter
    (fun idx ->
      match layout.slots.(idx) with
      | Jump home ->
        let tc = copy_of_home st home in
        if tc.live then
          Core.Engine.Remember.remove st.sites ~target:tc.block
            ~site:(site_key st c.block idx)
      | Plain _ | Skip _ -> ())
    layout.jumps

(* A dying copy drops its claim on its lines; a line with no live
   claimant leaves residency and will cost a real decompression next
   time. *)
let line_release st block_id =
  match st.lines with
  | None -> ()
  | Some ls ->
    Array.iter
      (fun l ->
        ls.line_refs.(l) <- ls.line_refs.(l) - 1;
        if ls.line_refs.(l) = 0 then ls.line_held.(l) <- false)
      ls.lmap.Residency.Linemap.of_block.(block_id)

let line_acquire st block_id =
  match st.lines with
  | None -> ()
  | Some ls ->
    Array.iter
      (fun l -> ls.line_refs.(l) <- ls.line_refs.(l) + 1)
      ls.lmap.Residency.Linemap.of_block.(block_id)

(* End [block]'s copy in the bookkeeping: patch its remember set back,
   in recording order, and tell the policy. Returns the sites patched. *)
let release st block =
  let n = Core.Engine.Remember.length st.sites ~target:block in
  Core.Engine.Remember.iter (unpatch_site st ~target:block) st.sites
    ~target:block;
  Core.Engine.Remember.clear st.sites ~target:block;
  Residency.Policy.on_release st.policy ~block;
  n

(* The copy dies: after [release], nothing points into it. *)
let retire st c =
  forget_sites st c;
  c.live <- false;
  c.instrs <- [||];
  st.by_block.(c.block) <- no_copy;
  line_release st c.block;
  st.deletions <- st.deletions + 1

let delete_copy st c =
  let patched_back = release st c.block in
  if emit_room st then
    Sim.Events.Packed.push_discard st.ev ~at:(at st) ~block:c.block
      ~patched_back ~wasted:false;
  st.live_bytes <- st.live_bytes - copy_bytes c;
  retire st c

(* Retire everything and recycle the address space. Safe because
   nothing can reference a copy once its remember set is patched back
   and return addresses are home addresses. *)
let flush st =
  let retired = ref 0 in
  Array.iteri
    (fun b c ->
      ignore (release st b);
      if c.live then begin
        retire st c;
        incr retired
      end)
    st.by_block;
  st.copy_ptr <- st.copy_base;
  st.live_bytes <- 0;
  st.flushes <- st.flushes + 1;
  if emit_room st then
    Sim.Events.Packed.push_flush st.ev ~at:(at st) ~copies:!retired

(* ------------------------------------------------------------------ *)
(* Copy creation (the real decompression path)                         *)

(* A decompression is trusted only if it reproduces the image bytes at
   [addr] exactly; anything else is a codec bug. Eight bytes at a time,
   then byte by byte from the first differing word (or the tail), so
   the first differing byte is the one reported. *)
let check_image st bytes ~addr =
  let image = st.prog.Eris.Program.image in
  let n = Bytes.length bytes in
  let i = ref 0 in
  while
    !i + 8 <= n
    && (Bytes.get_int64_ne bytes !i : int64)
       = Bytes.get_int64_ne image (addr + !i)
  do
    i := !i + 8
  done;
  for i = !i to n - 1 do
    if Bytes.get bytes i <> Bytes.get image (addr + i) then
      raise
        (Runtime_bug
           (Printf.sprintf "decompressed bytes differ from the image at %d"
              (addr + i)))
  done

(* Decompress a block through its cache lines: every line no live copy
   covers is really decompressed, checked and charged; a resident line
   keeps its bytes and is read back for free, like a cache hit. A line
   can hold references but no bytes when a flush released it after a
   trap had decompressed it; it is decompressed again, uncharged.
   The check is what the bytes are for, so they are not kept: a flag
   says whether a resident line would hold them. Returns the cycles
   charged. *)
let decompress_block_lines st ls block_id =
  let cycles = ref 0 in
  Array.iter
    (fun l ->
      let len = ls.lmap.Residency.Linemap.len.(l) in
      let resident = ls.line_refs.(l) > 0 && ls.line_held.(l) in
      if not resident then begin
        let lbytes = st.codec.Compress.Codec.decompress ls.line_z.(l) in
        if Bytes.length lbytes <> len then
          raise (Runtime_bug "line decompressed size mismatch");
        check_image st lbytes ~addr:ls.lmap.Residency.Linemap.addr.(l);
        ls.line_held.(l) <- true;
        if ls.line_refs.(l) = 0 then begin
          st.decompressions <- st.decompressions + 1;
          let charge =
            Sim.Cost.demand_dec_charge st.cost
              ~compressed_bytes:(Bytes.length ls.line_z.(l))
              ~uncompressed_bytes:len
          in
          cycles := !cycles + charge.Sim.Cost.cycles;
          Sim.Cost.Acc.charge st.acc Sim.Cost.Demand_dec charge
        end
      end)
    ls.lmap.Residency.Linemap.of_block.(block_id);
  !cycles

let check_slot instrs i =
  match Eris.Types.validate instrs.(i) with
  | Ok () -> ()
  | Error msg -> raise (Runtime_bug ("relocation overflow: " ^ msg))

let make_copy st block_id =
  let b = Cfg.Graph.block st.graph block_id in
  (* Really decompress and check; any codec bug surfaces here. *)
  let dec_cycles =
    match st.lines with
    | None ->
      let bytes = st.codec.Compress.Codec.decompress st.compressed.(block_id) in
      if Bytes.length bytes <> b.byte_size then
        raise (Runtime_bug "decompressed size mismatch");
      check_image st bytes ~addr:b.addr;
      st.decompressions <- st.decompressions + 1;
      let charge =
        Sim.Cost.demand_dec_charge st.cost
          ~compressed_bytes:(Bytes.length st.compressed.(block_id))
          ~uncompressed_bytes:b.byte_size
      in
      Sim.Cost.Acc.charge st.acc Sim.Cost.Demand_dec charge;
      charge.Sim.Cost.cycles
    | Some ls -> decompress_block_lines st ls block_id
  in
  if emit_room st then
    Sim.Events.Packed.push_demand st.ev ~at:(at st) ~block:block_id
      ~cycles:dec_cycles;
  let layout = st.layouts.(block_id) in
  let slots = Array.length layout.slots in
  (* guard word between copies keeps one-past-the-end unambiguous *)
  if st.copy_ptr + (4 * slots) + 4 > st.copy_limit then flush st;
  let base = st.copy_ptr in
  (* Relocation: the template with each jump aimed at its home target.
     Only the jumps depend on [base]; the rest is validated once. *)
  let instrs = Array.copy layout.template in
  let jumps = layout.jumps in
  for j = 0 to Array.length jumps - 1 do
    instrs.(jumps.(j)) <- materialize layout ~base jumps.(j)
  done;
  if layout.checked then
    for j = 0 to Array.length jumps - 1 do
      check_slot instrs jumps.(j)
    done
  else begin
    for i = 0 to slots - 1 do
      check_slot instrs i
    done;
    layout.checked <- true
  end;
  let c = { block = block_id; base; instrs; live = true } in
  st.copy_ptr <- st.copy_ptr + (4 * slots) + 4;
  st.by_block.(block_id) <- c;
  line_acquire st block_id;
  st.live_bytes <- st.live_bytes + (4 * slots);
  if st.live_bytes > st.peak_bytes then st.peak_bytes <- st.live_bytes;
  Residency.Policy.on_materialize st.policy ~block:block_id ~step:st.edges;
  Residency.Policy.on_ready st.policy ~block:block_id ~time:(at st);
  c

(* ------------------------------------------------------------------ *)
(* Edge bookkeeping (the k-edge algorithm, for real)                   *)

let block_of_home st home =
  let b = st.home_block.(home / 4) in
  if b < 0 then raise (Runtime_bug (Printf.sprintf "no block at home %d" home));
  b

let on_edge st ~target_block =
  st.edges <- st.edges + 1;
  (* k-edge deletions, sparing the branch target (§5) *)
  let ndue = Residency.Policy.due st.policy ~step:st.edges ~into:st.due_buf in
  for i = 0 to ndue - 1 do
    let d = st.due_buf.(i) in
    let c = st.by_block.(d) in
    if d <> target_block && c.live then delete_copy st c
  done;
  Residency.Policy.on_execute st.policy ~block:target_block ~step:st.edges
    ~time:(at st);
  if emit_room st then
    Sim.Events.Packed.push_exec st.ev ~at:(at st) ~block:target_block

(* ------------------------------------------------------------------ *)
(* The trap handler (§5's memory-protection exception)                 *)

let handle_trap st pc =
  if not (is_home st pc) then
    raise
      (Eris.Machine.Fault { pc; message = "wild pc outside image and copies" });
  st.traps <- st.traps + 1;
  Sim.Cost.Acc.charge st.acc Sim.Cost.Exception
    (Sim.Cost.exception_charge st.cost);
  let block = block_of_home st pc in
  if emit_room st then
    Sim.Events.Packed.push_exception st.ev ~at:(at st) ~block;
  let c =
    if st.by_block.(block).live then st.by_block.(block)
    else make_copy st block
  in
  let off = pc - (Cfg.Graph.block st.graph block).addr in
  let slot = st.layouts.(block).first_slot.(off / 4) in
  if slot < 0 then
    raise
      (Runtime_bug
         (Printf.sprintf "no slot for home offset %d in block %d" off block));
  let target = c.base + (4 * slot) in
  st.current <- c;
  if st.site_idx >= 0 then
    patch_site st st.site_copy st.site_idx ~target_block:block
      ~target_addr:target;
  Eris.Machine.set_pc st.machine target

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let stats_of st =
  {
    instructions = Eris.Machine.instr_count st.machine;
    traps = st.traps;
    decompressions = st.decompressions;
    patches = st.patches;
    unpatches = st.unpatches;
    deletions = st.deletions;
    flushes = st.flushes;
    edges = st.edges;
    peak_copy_bytes = st.peak_bytes;
    live_copy_bytes = st.live_bytes;
    compressed_image_bytes =
      (match st.lines with
      | None -> Array.fold_left (fun a b -> a + Bytes.length b) 0 st.compressed
      | Some ls ->
        Array.fold_left (fun a z -> a + Bytes.length z) 0 ls.line_z);
    original_image_bytes = image_size st;
    energy_nj = (Sim.Cost.Acc.total st.acc).Sim.Cost.energy_nj;
  }

let register_stats ?(labels = []) registry (s : stats) =
  let c name v =
    Sim.Metrics.set (Sim.Metrics.counter registry ~labels name) v
  in
  c "instructions" s.instructions;
  c "traps" s.traps;
  c "decompressions" s.decompressions;
  c "patches" s.patches;
  c "unpatches" s.unpatches;
  c "deletions" s.deletions;
  c "flushes" s.flushes;
  c "edges" s.edges;
  c "peak_copy_bytes" s.peak_copy_bytes;
  c "live_copy_bytes" s.live_copy_bytes;
  c "compressed_image_bytes" s.compressed_image_bytes;
  c "original_image_bytes" s.original_image_bytes;
  c "energy_nj" s.energy_nj

let run ?(fuel = 20_000_000) ?(k = 8) ?(retention = Residency.Policy.Kedge)
    ?codec ?cost ?profile ?sink ?registry ?line_size prog =
  let graph = Cfg.Build.of_program prog in
  let codec =
    match codec with
    | Some c -> c
    | None -> Compress.Registry.code_codec ~corpus:prog.Eris.Program.image
  in
  let cost =
    match cost with
    | Some c -> c
    | None ->
      let base =
        match profile with
        | Some p -> Sim.Cost.profile p
        | None -> Sim.Cost.default
      in
      Sim.Cost.with_rates
        ~dec_cycles_per_byte:codec.Compress.Codec.dec_cycles_per_byte
        ~comp_cycles_per_byte:codec.Compress.Codec.comp_cycles_per_byte base
  in
  let acc = Sim.Cost.Acc.create () in
  let snk = match sink with Some s -> s | None -> Sim.Events.null in
  let listen = Option.is_some sink in
  let ev = Sim.Events.Packed.create () in
  let compressed =
    Array.map
      (fun (b : Cfg.Graph.block) ->
        codec.Compress.Codec.compress
          (Eris.Program.slice_bytes prog ~lo:b.addr ~hi:(b.addr + b.byte_size)))
      (Cfg.Graph.blocks graph)
  in
  let layouts =
    Array.map
      (fun (b : Cfg.Graph.block) ->
        let instrs =
          Array.sub prog.Eris.Program.instrs (b.addr / 4) b.n_instrs
        in
        layout_of_block b instrs)
      (Cfg.Graph.blocks graph)
  in
  let lines =
    match line_size with
    | None -> None
    | Some l ->
      let lmap = Residency.Linemap.build ~line_size:l graph in
      let line_z =
        Array.init lmap.Residency.Linemap.nlines (fun i ->
            codec.Compress.Codec.compress
              (Eris.Program.slice_bytes prog
                 ~lo:lmap.Residency.Linemap.addr.(i)
                 ~hi:
                   (lmap.Residency.Linemap.addr.(i)
                   + lmap.Residency.Linemap.len.(i))))
      in
      Some
        {
          lmap;
          line_z;
          line_refs = Array.make lmap.Residency.Linemap.nlines 0;
          line_held = Array.make lmap.Residency.Linemap.nlines false;
        }
  in
  let home_block = Array.make (Eris.Program.byte_size prog / 4) (-1) in
  Array.iter
    (fun (b : Cfg.Graph.block) ->
      Array.fill home_block (b.addr / 4) (b.byte_size / 4) b.id)
    (Cfg.Graph.blocks graph);
  let copy_base = ((Eris.Program.byte_size prog / 4096) + 1) * 4096 in
  let machine = Eris.Machine.create prog in
  let n = Cfg.Graph.num_blocks graph in
  let policy =
    Residency.Policy.instantiate retention
      {
        Residency.Policy.blocks = n;
        k;
        k_of = None;
        graph = Some graph;
        budget = None;
        size_of = Some (fun b -> (Cfg.Graph.block graph b).Cfg.Graph.byte_size);
      }
  in
  let st =
    {
      prog;
      graph;
      machine;
      codec;
      cost;
      acc;
      snk;
      listen;
      ev;
      compressed;
      lines;
      layouts;
      policy;
      due_buf = Array.make n 0;
      sites = Core.Engine.Remember.create ~blocks:n;
      home_block;
      by_block = Array.make n no_copy;
      current = no_copy;
      copy_base;
      (* conditional branches are gone from copies (replaced by pairs),
         so only jal reach matters: +-8 MiB covers this window *)
      copy_limit = copy_base + (6 * 1024 * 1024);
      copy_ptr = copy_base;
      live_bytes = 0;
      peak_bytes = 0;
      site_copy = no_copy;
      site_idx = -1;
      traps = 0;
      decompressions = 0;
      patches = 0;
      unpatches = 0;
      deletions = 0;
      flushes = 0;
      edges = 0;
    }
  in
  let rec loop budget =
    if Eris.Machine.halted st.machine then Ok (st.machine, stats_of st)
    else if budget <= 0 then Error (Out_of_fuel (stats_of st))
    else begin
      let pc = Eris.Machine.pc st.machine in
      let c = st.current in
      if holds c pc then begin
        let idx = (pc - c.base) / 4 in
        Eris.Machine.execute_instruction st.machine c.instrs.(idx);
        let new_pc = Eris.Machine.pc st.machine in
        (if (not (Eris.Machine.halted st.machine)) && new_pc <> pc + 4 then
           match st.layouts.(c.block).slots.(idx) with
           | Skip _ -> st.site_idx <- -1
           | Plain _ | Jump _ as slot ->
             st.site_copy <- c;
             st.site_idx <- idx;
             (* A patched jump enters its target's copy; every other
                transfer (a jalr, a jump still aimed home) must land
                on a home address. *)
             let tc =
               match slot with Jump home -> copy_of_home st home | _ -> no_copy
             in
             if holds tc new_pc then begin
               st.current <- tc;
               on_edge st ~target_block:tc.block
             end
             else if is_home st new_pc then
               on_edge st ~target_block:(block_of_home st new_pc)
             else
               raise
                 (Eris.Machine.Fault
                    { pc = new_pc; message = "transfer to unknown address" })
         else if new_pc = pc + 4 then st.site_idx <- -1);
        loop (budget - 1)
      end
      else begin
        handle_trap st pc;
        st.site_idx <- -1;
        loop budget
      end
    end
  in
  Residency.Policy.on_execute st.policy ~block:(Cfg.Graph.entry graph)
    ~step:0 ~time:0;
  if emit_room st then
    Sim.Events.Packed.push_exec st.ev ~at:0 ~block:(Cfg.Graph.entry graph);
  let finish result =
    emit_drain st;
    (match registry with
    | Some r ->
      let s =
        match result with
        | Ok (_, s) -> s
        | Error (Out_of_fuel s) -> s
        | Error (Machine_fault { stats; _ }) -> stats
      in
      register_stats r s
    | None -> ());
    result
  in
  match loop fuel with
  | result -> finish result
  | exception Eris.Machine.Fault { pc; message } ->
    finish (Error (Machine_fault { pc; message; stats = stats_of st }))
  | exception Runtime_bug message ->
    finish
      (Error
         (Machine_fault
            { pc = Eris.Machine.pc st.machine; message; stats = stats_of st }))

let run_source ?fuel ?k ?retention ?codec ?cost ?profile ?sink ?registry
    ?line_size source =
  run ?fuel ?k ?retention ?codec ?cost ?profile ?sink ?registry ?line_size
    (Eris.Asm.assemble_exn source)
