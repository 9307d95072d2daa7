type t = {
  name : string;
  graph : Cfg.Graph.t;
  info : Engine.block_info array;
  trace : int array;
  codec : Compress.Codec.t;
  program : Eris.Program.t option;
}

let of_program ?(name = "program") ?codec ?fuel ?mem_init prog =
  (* Default to the positional shared-Huffman model trained on this
     very image — the realistic choice for code compression, where the
     dictionary ships once with the system. *)
  let codec =
    match codec with
    | Some c -> c
    | None -> Compress.Registry.code_codec ~corpus:prog.Eris.Program.image
  in
  let graph, trace = Cfg.Build.trace_of_run ?fuel ?mem_init prog in
  let info = Engine.info_of_program ~codec prog graph in
  { name; graph; info; trace; codec; program = Some prog }

let of_source ?name ?codec ?fuel ?mem_init source =
  of_program ?name ?codec ?fuel ?mem_init (Eris.Asm.assemble_exn source)

(* Pseudo-code bytes: each block draws its words from a small private
   pool of canonical instructions, mostly repeated verbatim and
   occasionally perturbed in one operand field — the kind of local
   redundancy real RISC instruction streams exhibit, which is what
   makes per-block code compression viable at all. *)
let synthetic_block_bytes ~id ~size =
  let b = Bytes.create size in
  let state = ref (((id + 1) * 2654435761) land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let pool = Array.init 5 (fun _ -> next () land 0xFFFFFF) in
  let set_word w word =
    Bytes.set b (4 * w) (Char.chr (word land 0xFF));
    Bytes.set b ((4 * w) + 1) (Char.chr ((word lsr 8) land 0xFF));
    Bytes.set b ((4 * w) + 2) (Char.chr ((word lsr 16) land 0xFF));
    Bytes.set b ((4 * w) + 3) (Char.chr ((word lsr 24) land 0xFF))
  in
  for w = 0 to (size / 4) - 1 do
    let r = next () in
    let base = pool.(r mod Array.length pool) in
    let word =
      if r land 0xF < 11 then base
      else base lxor (((r lsr 8) land 0xF) lsl 18)
    in
    set_word w word
  done;
  for i = size / 4 * 4 to size - 1 do
    Bytes.set b i '\000'
  done;
  b

let of_graph ?(name = "synthetic") ?(codec = Compress.Registry.default) graph
    ~trace =
  let info =
    Array.map
      (fun (blk : Cfg.Graph.block) ->
        let bytes = synthetic_block_bytes ~id:blk.id ~size:blk.byte_size in
        {
          Engine.exec_cycles = blk.exec_cycles;
          uncompressed_bytes = blk.byte_size;
          compressed_bytes = Bytes.length (codec.Compress.Codec.compress bytes);
        })
      (Cfg.Graph.blocks graph)
  in
  { name; graph; info; trace; codec; program = None }

let run ?config ?profile ?log ?sink ?guard ?registry t policy =
  let config =
    match config with
    | Some c -> c
    | None -> Config.of_codec ?profile t.codec
  in
  Engine.run ~config ?log ?sink ?guard ?registry ~graph:t.graph
    ~info:t.info ~trace:t.trace policy

let profile t = Cfg.Profile.of_trace t.graph t.trace

let pp_summary ppf t =
  let original = Array.fold_left (fun a i -> a + i.Engine.uncompressed_bytes) 0 t.info in
  let compressed = Array.fold_left (fun a i -> a + i.Engine.compressed_bytes) 0 t.info in
  Format.fprintf ppf
    "%s: %d blocks, %d edges, trace %d, image %dB -> %dB compressed (%.2f) \
     [codec %s]"
    t.name
    (Cfg.Graph.num_blocks t.graph)
    (Cfg.Graph.num_edges t.graph)
    (Array.length t.trace) original compressed
    (float_of_int compressed /. float_of_int (max original 1))
    t.codec.Compress.Codec.name
