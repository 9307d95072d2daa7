type view = {
  graph : Cfg.Graph.t;
  info : Engine.block_info array;
  trace : int array;
  step_cycles : int array;
  map : Residency.Linemap.t;
}

let default_line_size = 32

let image_of (sc : Scenario.t) =
  match sc.program with
  | Some prog -> prog.Eris.Program.image
  | None ->
    let blocks = Cfg.Graph.blocks sc.graph in
    let image_end =
      Array.fold_left
        (fun a (b : Cfg.Graph.block) -> max a (b.addr + b.byte_size))
        0 blocks
    in
    let image = Bytes.make image_end '\000' in
    Array.iter
      (fun (b : Cfg.Graph.block) ->
        if b.byte_size > 0 then
          Bytes.blit
            (Scenario.synthetic_block_bytes ~id:b.id ~size:b.byte_size)
            0 image b.addr b.byte_size)
      blocks;
    image

let line_compressed_bytes ~codec ~image (map : Residency.Linemap.t) =
  let cost =
    match Compress.Linecodec.of_name codec.Compress.Codec.name with
    | Some (family, _) ->
      fun pos len ->
        (Compress.Linecodec.cost_bits family image ~pos ~len + 7) / 8
    | None ->
      fun pos len ->
        Bytes.length (codec.Compress.Codec.compress (Bytes.sub image pos len))
  in
  Array.init map.nlines (fun i -> max 1 (cost map.addr.(i) map.len.(i)))

let view ?(line_size = default_line_size) (sc : Scenario.t) =
  let map = Residency.Linemap.build ~line_size sc.graph in
  if map.nlines = 0 then invalid_arg "Core.Lineview.view: empty image";
  let image = image_of sc in
  let compressed = line_compressed_bytes ~codec:sc.codec ~image map in
  (* Static per-line cycles: each block's cost split over its lines,
     like one trace visit. Only a default — the run always overrides
     per step via [step_cycles]. *)
  let exec = Array.make map.nlines 0 in
  Array.iteri
    (fun b lines ->
      let m = Array.length lines in
      if m > 0 then begin
        let c = (Cfg.Graph.block sc.graph b).exec_cycles in
        Array.iteri
          (fun i l ->
            exec.(l) <- exec.(l) + (c / m) + (if i < c mod m then 1 else 0))
          lines
      end)
    map.of_block;
  let info =
    Array.init map.nlines (fun i ->
        {
          Engine.exec_cycles = max 1 exec.(i);
          uncompressed_bytes = map.len.(i);
          compressed_bytes = compressed.(i);
        })
  in
  let trace, step_cycles = Residency.Linemap.expand_trace map sc.graph ~trace:sc.trace in
  (* Line graph: edges are the transitions the line trace actually
     takes (self-edges excluded; policies treat re-entry via the
     trace, as Baselines.Granularity does). *)
  let edge_set = Hashtbl.create 64 in
  Array.iteri
    (fun i l ->
      if i > 0 then begin
        let prev = trace.(i - 1) in
        if prev <> l then Hashtbl.replace edge_set (prev, l) ()
      end)
    trace;
  let edges = Hashtbl.fold (fun e () acc -> e :: acc) edge_set [] in
  let graph =
    Cfg.Graph.synthetic ~sizes:map.len map.nlines (List.sort compare edges)
  in
  { graph; info; trace; step_cycles; map }

(* A policy's inputs are stated in blocks; the engine numbers lines. The
   profile predictor is rebuilt from the line trace, each pinned block
   pins the lines it spans, and each line keeps its copy as long as the
   longest-lived block spanning it would (the max of their adaptive k). *)
let line_policy v (policy : Policy.t) =
  let strategy =
    match policy.strategy with
    | Policy.Pre_single { lookahead; predictor = Predictor.By_profile _ } ->
      Policy.Pre_single
        {
          lookahead;
          predictor = Predictor.By_profile (Cfg.Profile.of_trace v.graph v.trace);
        }
    | s -> s
  in
  let retention =
    match policy.retention with
    | Residency.Policy.Pin_hot { pinned } ->
      Residency.Policy.Pin_hot
        {
          pinned =
            List.concat_map (fun b -> Array.to_list v.map.of_block.(b)) pinned;
        }
    | r -> r
  in
  let adaptive_k =
    Option.map
      (fun k_of ->
        let k = Array.make v.map.nlines 1 in
        Array.iteri
          (fun b lines ->
            let kb = k_of b in
            Array.iter (fun l -> k.(l) <- max k.(l) kb) lines)
          v.map.of_block;
        Array.get k)
      policy.adaptive_k
  in
  { policy with strategy; retention; adaptive_k }

let run ?config ?profile ?sink ?guard ?registry ?line_size (sc : Scenario.t)
    policy =
  let v = view ?line_size sc in
  let policy = line_policy v policy in
  let config =
    match config with
    | Some c -> c
    | None -> Config.of_codec ?profile sc.codec
  in
  Engine.run ~config ?sink ?guard ?registry ~step_cycles:v.step_cycles
    ~graph:v.graph ~info:v.info ~trace:v.trace policy
