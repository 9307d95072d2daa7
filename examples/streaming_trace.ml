(* Custom event sinks on the streaming bus: a real Runtime execution
   narrates itself as Sim.Events, and we attach three consumers at
   once — a hand-written per-block decompression histogram, the
   built-in constant-memory kind counters, and a JSONL file — without
   the runtime knowing or caring who is listening.

   Run with: dune exec examples/streaming_trace.exe [workload] *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "dijkstra" in
  let w = Workloads.Suite.find_exn name in
  let prog = Eris.Asm.assemble_exn w.Workloads.Common.source in

  (* A custom sink is just a record with [emit_chunk] and [close];
     [callback] builds one from a per-event function. This one
     histograms demand-decompression latencies per block, so hot
     re-decompressed blocks stand out. Constant memory: one bucket
     array per block ever decompressed. *)
  let registry = Sim.Metrics.create () in
  let per_block_latency =
    Sim.Events.callback (fun ev ->
        match ev with
        | Sim.Events.Demand_decompress { block; cycles; _ } ->
          Sim.Metrics.observe
            (Sim.Metrics.histogram registry
               ~labels:[ ("block", string_of_int block) ]
               ~buckets:[ 16; 64; 256; 1024 ]
               "block_dec_cycles")
            cycles
        | _ -> ())
  in
  let counters = Sim.Events.counters () in
  let jsonl_path = Filename.temp_file "streaming_trace" ".jsonl" in
  let file_sink = Sim.Events.to_file jsonl_path in
  let sink =
    Sim.Events.tee
      [ per_block_latency; Sim.Events.counting counters; file_sink ]
  in

  (match Runtime.run ~k:4 ~sink ~registry prog with
  | Ok (machine, stats) ->
    let got = Eris.Machine.read_word machine w.Workloads.Common.result_addr in
    Format.printf "%s: checksum 0x%08x (%s), %d instructions executed@.@." name
      got
      (if got = w.Workloads.Common.expected then "matches reference"
       else "MISMATCH")
      stats.Runtime.instructions
  | Error _ -> failwith "runtime error");
  sink.Sim.Events.close ();

  (* Consumer 1: the custom histogram, rendered from the registry
     (Runtime.run also published its final stats counters there). *)
  Report.Table.print
    (Sim.Metrics.to_table ~title:"per-block decompression latency" registry);
  print_newline ();

  (* Consumer 2: the kind counters. *)
  let t =
    Report.Table.create ~title:"event counts (constant-memory sink)"
      ~columns:[ ("kind", Report.Table.Left); ("count", Report.Table.Right) ]
  in
  List.iter
    (fun (kind, n) ->
      if n > 0 then Report.Table.add_row t [ kind; string_of_int n ])
    (Sim.Events.counts counters);
  Report.Table.print t;
  print_newline ();

  (* Consumer 3: the JSONL stream on disk, replayable with of_json. *)
  (match Sim.Events.read_file jsonl_path with
  | Ok events ->
    Printf.printf "%d events round-tripped through %s; first three:\n"
      (List.length events) jsonl_path;
    List.iteri
      (fun i ev ->
        if i < 3 then
          Printf.printf "  %6d  %s\n" (Sim.Events.time ev)
            (Sim.Events.describe ev))
      events
  | Error msg -> failwith msg);
  Sys.remove jsonl_path
