(* replay-long: stored block traces loaded and replayed on demand.

   Set-up walks a seeded Markov chain over the hot/cold CFG and stores
   each segment as a Trace.Binary string. One operation loads a segment
   (decode) and replays it on demand at k=2 and k=8, which is the fused
   fast path: only the trace container and that path do any work. *)

let segments = 32
let steps = 250_000
let ks = [ 2; 8 ]

type setup = {
  base : Core.Scenario.t;  (* the graph and block sizes; trace per op *)
  stored : string array;
  sums : int array;  (* checksum of each segment's ids *)
}

let checksum ids = Array.fold_left (fun acc id -> ((acc * 31) + id) land 0x3FFFFFFF) 0 ids

let setup ~seed () =
  let graph, _ =
    Trace.Synthetic.hot_cold ~hot_blocks:6 ~cold_blocks:24 ~hot_iters:4
      ~cold_visit_every:16 ()
  in
  let sums = Array.make segments 0 in
  let stored =
    Array.init segments (fun i ->
        let ids = Trace.Synthetic.markov ~seed:((seed * segments) + i) graph ~length:steps in
        sums.(i) <- checksum ids;
        Spans.with_ "trace.encode" (fun () -> Trace.Binary.encode ids))
  in
  { base = Core.Scenario.of_graph ~name:"replay-long" graph ~trace:[||]; stored; sums }

let run ~seed ~seconds ~setups =
  let setup_s, st = Outcome.repeat_setup setups (setup ~seed) in
  let first = Array.make segments [] in
  let op_s = ref [] and failed = ref 0 and attempted = ref 0 in
  let engine_alloc = ref 0.0 in
  let rss = Stat.rss_sampler () in
  let t0 = Stat.now () in
  Outcome.until ~min:segments ~seconds (fun i ->
      Stat.sample rss;
      let seg = i mod segments in
      incr attempted;
      let ok, dt =
        Stat.time (fun () ->
            Outcome.checked @@ fun () ->
            Spans.with_ ~req:i "replay.op" (fun () ->
                match Spans.with_ ~req:i "trace.decode" (fun () -> Trace.Binary.decode st.stored.(seg)) with
                | Error _ -> false
                | Ok ids ->
                  let ms =
                    List.map
                      (fun k ->
                        let a0 = Stat.alloc_words () in
                        let m =
                          Spans.with_ ~req:i "engine.run" (fun () ->
                              Core.Scenario.run { st.base with trace = ids } (Core.Policy.on_demand ~k))
                        in
                        engine_alloc := !engine_alloc +. (Stat.alloc_words () -. a0);
                        m)
                      ks
                  in
                  if i < segments then first.(seg) <- ms;
                  Array.length ids = steps
                  && checksum ids = st.sums.(seg)
                  && List.for_all Stat.metrics_consistent ms
                  && ms = first.(seg)))
      in
      if not ok then incr failed;
      op_s := dt :: !op_s);
  let wall = Stat.now () -. t0 in
  let op_s = Array.of_list (List.rev !op_s) in
  let work_per_op = float_of_int (List.length ks * steps) in
  let layers () =
    let replays = float_of_int (Spans.count "engine.run" * steps) in
    let decoded = float_of_int (Spans.count "trace.decode" * steps) in
    let events =
      let c = Sim.Events.counters () in
      ignore
        (Core.Scenario.run ~sink:(Sim.Events.counting c)
           { st.base with trace = Result.get_ok (Trace.Binary.decode st.stored.(0)) }
           (Core.Policy.on_demand ~k:2));
      float_of_int (Sim.Events.total c)
    in
    [
      ("trace.decode_ids_per_s", Stat.ratio decoded (Spans.self_s "trace.decode"));
      ("trace.decode_self_pct", 100.0 *. Stat.ratio (Spans.self_s "trace.decode") wall);
      ("engine.fast.steps_per_s", Stat.ratio replays (Spans.self_s "engine.run"));
      ("engine.fast.events_per_step", events /. float_of_int steps);
      ("engine.fast.alloc_words_per_step", Stat.ratio !engine_alloc replays);
    ]
  in
  {
    Outcome.setup_s;
    work = work_per_op *. float_of_int (Array.length op_s);
    busy_s = Stat.sum op_s;
    rates = Array.map (fun s -> work_per_op /. s) op_s;
    op_ms = Array.map (fun s -> s *. 1000.0) op_s;
    attempted = !attempted;
    failed = !failed;
    digest = Stat.digest_metrics (List.concat (Array.to_list first));
    rss_mb = Stat.rss_median rss;
    layers = (if !Spans.enabled then layers () else []);
  }
