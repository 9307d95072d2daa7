type result = {
  hot_blocks : int;
  cold_blocks : int;
  static_bytes : int;
  buffer_bytes : int;
  total_cycles : int;
  baseline_cycles : int;
  decompressions : int;
  energy_nj : int;
}

let overhead_ratio r =
  if r.baseline_cycles = 0 then 0.0
  else (float_of_int r.total_cycles /. float_of_int r.baseline_cycles) -. 1.0

let run ?config ?sink ?(hot_fraction = 0.95) (sc : Core.Scenario.t) =
  let config =
    match config with Some c -> c | None -> Core.Config.of_codec sc.codec
  in
  (* at most four events a step, handed to the sink a chunk at a time *)
  let module P = Sim.Events.Packed in
  let ch = P.create () in
  let flush () =
    Option.iter (fun (s : Sim.Events.sink) -> s.Sim.Events.emit_chunk ch) sink;
    P.clear ch
  in
  let n = Cfg.Graph.num_blocks sc.graph in
  let profile = Core.Scenario.profile sc in
  let hot = Array.make n false in
  List.iter
    (fun b -> hot.(b) <- true)
    (Cfg.Profile.hot_blocks profile ~fraction:hot_fraction);
  let cold_usizes = ref [] in
  let static_bytes = ref 0 in
  let hot_count = ref 0 in
  Array.iteri
    (fun b (info : Core.Engine.block_info) ->
      if hot.(b) then begin
        incr hot_count;
        static_bytes := !static_bytes + info.uncompressed_bytes
      end
      else begin
        static_bytes := !static_bytes + info.compressed_bytes;
        cold_usizes := info.uncompressed_bytes :: !cold_usizes
      end)
    sc.info;
  let buffer_bytes = List.fold_left max 0 !cold_usizes in
  let baseline_cycles =
    Array.fold_left (fun a b -> a + sc.info.(b).Core.Engine.exec_cycles) 0 sc.trace
  in
  let total = ref 0 and decompressions = ref 0 in
  let acc = Sim.Cost.Acc.create () in
  let costs = config.Core.Config.costs in
  let charge src v =
    Sim.Cost.Acc.charge acc src v;
    total := !total + v.Sim.Cost.cycles
  in
  (* The reserved buffer holds one cold block; a miss replaces it. *)
  let occupant = ref (-1) in
  Array.iter
    (fun b ->
      if P.room ch < 4 then flush ();
      charge Sim.Cost.Exec
        (Sim.Cost.exec_charge costs
           ~cycles:sc.info.(b).Core.Engine.exec_cycles);
      P.push_exec ch ~at:!total ~block:b;
      if (not hot.(b)) && !occupant <> b then begin
        if !occupant >= 0 then
          P.push_discard ch ~at:!total ~block:!occupant ~patched_back:0
            ~wasted:false;
        incr decompressions;
        P.push_exception ch ~at:!total ~block:b;
        charge Sim.Cost.Exception (Sim.Cost.exception_charge costs);
        let dec_charge =
          Sim.Cost.demand_dec_charge costs
            ~compressed_bytes:sc.info.(b).Core.Engine.compressed_bytes
            ~uncompressed_bytes:sc.info.(b).Core.Engine.uncompressed_bytes
        in
        charge Sim.Cost.Demand_dec dec_charge;
        occupant := b;
        P.push_demand ch ~at:!total ~block:b ~cycles:dec_charge.Sim.Cost.cycles
      end)
    sc.trace;
  flush ();
  {
    hot_blocks = !hot_count;
    cold_blocks = n - !hot_count;
    static_bytes = !static_bytes + buffer_bytes;
    buffer_bytes;
    total_cycles = !total;
    baseline_cycles;
    decompressions = !decompressions;
    energy_nj = (Sim.Cost.Acc.total acc).Sim.Cost.energy_nj;
  }
