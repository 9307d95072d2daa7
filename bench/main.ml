(* Benchmark harness: one Bechamel micro-benchmark per experiment
   (E1..E13) measuring its core computational kernel, plus codec
   microbenchmarks, followed by a full regeneration of every
   experiment table (the paper's figures). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Benchmarked kernels                                                 *)

(* Representative unit of work per experiment; scenarios are prepared
   up front so only the policy-engine / codec work is measured. *)
let experiment_tests () =
  let fir = Experiments.Util.scenario "fir" in
  let dijkstra = Experiments.Util.scenario "dijkstra" in
  let fsm = Experiments.Util.scenario "fsm" in
  let matmul = Experiments.Util.scenario "matmul" in
  let profile_fsm = Core.Scenario.profile fsm in
  let profile_dijkstra = Core.Scenario.profile dijkstra in
  let run sc policy () = ignore (Core.Scenario.run sc policy) in
  [
    Test.make ~name:"E1/fig1-kedge"
      (Staged.stage (fun () -> ignore (Experiments.Fig1.holds ())));
    Test.make ~name:"E2/fig2-predecompress"
      (Staged.stage (fun () -> ignore (Experiments.Fig2.holds ())));
    Test.make ~name:"E3/fig3-design-space"
      (Staged.stage (fun () -> ignore (Experiments.Fig3.pre_all_set ())));
    Test.make ~name:"E4/fig4-three-threads"
      (Staged.stage (fun () -> ignore (Experiments.Fig4.holds ())));
    Test.make ~name:"E5/fig5-memory-image"
      (Staged.stage (fun () -> ignore (Experiments.Fig5.holds ())));
    Test.make ~name:"E6/kedge-sweep-unit"
      (Staged.stage (run fir (Core.Policy.on_demand ~k:8)));
    Test.make ~name:"E7/strategy-unit"
      (Staged.stage
         (run fsm
            (Core.Policy.pre_single ~k:8 ~lookahead:2
               ~predictor:(Core.Predictor.By_profile profile_fsm))));
    Test.make ~name:"E8/predecomp-unit"
      (Staged.stage (run dijkstra (Core.Policy.pre_all ~k:8 ~lookahead:4)));
    Test.make ~name:"E9/recompress-unit"
      (Staged.stage
         (run matmul
            (Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:4 ())));
    Test.make ~name:"E10/budget-unit"
      (Staged.stage
         (run fsm (Core.Policy.make ~compress_k:8 ~budget:64 ())));
    Test.make ~name:"E11/procedure-granularity-unit"
      (Staged.stage (fun () ->
           ignore
             (Baselines.Granularity.run dijkstra
                (Baselines.Granularity.whole_program
                   dijkstra.Core.Scenario.graph)
                (Core.Policy.on_demand ~k:8))));
    Test.make ~name:"E12/codec-unit"
      (Staged.stage (fun () ->
           ignore (Experiments.Codecs_exp.codecs_for fir)));
    Test.make ~name:"E13/predictor-unit"
      (Staged.stage
         (run dijkstra
            (Core.Policy.pre_single ~k:8 ~lookahead:2
               ~predictor:(Core.Predictor.By_profile profile_dijkstra))));
    Test.make ~name:"E14/adaptive-k-unit"
      (Staged.stage
         (run fsm
            (Core.Policy.make ~compress_k:4
               ~adaptive_k:
                 (Core.Adaptive.reuse_aware fsm.Core.Scenario.graph
                    fsm.Core.Scenario.trace)
               ())));
    Test.make ~name:"E15/coresidence-unit"
      (Staged.stage (run matmul (Core.Policy.on_demand ~k:4)));
    (let prog =
       Eris.Asm.assemble_exn
         (Workloads.Suite.find_exn "dijkstra").Workloads.Common.source
     in
     Test.make ~name:"E16/runtime-unit"
       (Staged.stage (fun () -> ignore (Runtime.run ~k:4 prog))));
  ]

let toolchain_tests () =
  let sieve_src =
    "int sieve[100]; int main() { int c = 0; for (int i = 2; i < 100; i = i \
     + 1) { if (sieve[i] == 0) { c = c + 1; for (int j = i + i; j < 100; j \
     = j + i) { sieve[j] = 1; } } } return c; }"
  in
  let prog =
    match Minic.Compile.to_program sieve_src with
    | Ok p -> p
    | Error _ -> failwith "bench: sieve failed to compile"
  in
  [
    Test.make ~name:"toolchain/minic-compile"
      (Staged.stage (fun () -> ignore (Minic.Compile.to_assembly sieve_src)));
    Test.make ~name:"toolchain/minic-compile-O"
      (Staged.stage (fun () ->
           ignore (Minic.Compile.to_assembly ~optimize:true sieve_src)));
    Test.make ~name:"toolchain/assemble"
      (Staged.stage
         (let asm =
            match Minic.Compile.to_assembly sieve_src with
            | Ok a -> a
            | Error _ -> assert false
          in
          fun () -> ignore (Eris.Asm.assemble asm)));
    Test.make ~name:"toolchain/interpret"
      (Staged.stage (fun () ->
           let m = Eris.Machine.create prog in
           ignore (Eris.Machine.run_to_halt m)));
    Test.make ~name:"toolchain/cfg-build"
      (Staged.stage (fun () -> ignore (Cfg.Build.of_program prog)));
  ]

let codec_tests () =
  let payload =
    Core.Scenario.synthetic_block_bytes ~id:7 ~size:4096
  in
  List.concat_map
    (fun codec ->
      let compressed = codec.Compress.Codec.compress payload in
      [
        Test.make
          ~name:(Printf.sprintf "codec/%s/compress" codec.Compress.Codec.name)
          (Staged.stage (fun () ->
               ignore (codec.Compress.Codec.compress payload)));
        Test.make
          ~name:
            (Printf.sprintf "codec/%s/decompress" codec.Compress.Codec.name)
          (Staged.stage (fun () ->
               ignore (codec.Compress.Codec.decompress compressed)));
      ])
    (Compress.Registry.all ())

(* ------------------------------------------------------------------ *)
(* Codec throughput phase                                              *)

(* Wall-clock compress/decompress throughput for every registry codec
   over the workload suite's assembled program images — KB-scale
   blocks, the thing the residency layer actually stores. The bechamel
   rows above give ns/call on one synthetic block; these are the MiB/s
   figures comparable to the paper's decompression-overhead numbers.
   BENCH.json carries them as codec/<name>/{comp,dec}-MBps, in both
   full and --smoke modes. *)

let workload_images () =
  List.map
    (fun name ->
      let w = Workloads.Suite.find_exn name in
      (Eris.Asm.assemble_exn w.Workloads.Common.source).Eris.Program.image)
    Workloads.Suite.names

let codec_throughput_phase ?min_time_s () =
  let blocks = workload_images () in
  let total = List.fold_left (fun a b -> a + Bytes.length b) 0 blocks in
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "codec throughput: %d workload images, %d bytes total (MiB/s of \
            uncompressed bytes)"
           (List.length blocks) total)
      ~columns:
        [
          ("codec", Report.Table.Left);
          ("comp MiB/s", Report.Table.Right);
          ("dec MiB/s", Report.Table.Right);
          ("ratio", Report.Table.Right);
        ]
  in
  let entries =
    List.concat_map
      (fun codec ->
        let tp = Compress.Stats.throughput ?min_time_s codec blocks in
        Report.Table.add_row t
          [
            tp.Compress.Stats.tp_codec_name;
            Report.Table.fmt_float ~decimals:1 tp.Compress.Stats.comp_mbps;
            Report.Table.fmt_float ~decimals:1 tp.Compress.Stats.dec_mbps;
            Report.Table.fmt_float ~decimals:3 tp.Compress.Stats.tp_ratio;
          ];
        [
          ( Printf.sprintf "codec/%s/comp-MBps" tp.Compress.Stats.tp_codec_name,
            tp.Compress.Stats.comp_mbps );
          ( Printf.sprintf "codec/%s/dec-MBps" tp.Compress.Stats.tp_codec_name,
            tp.Compress.Stats.dec_mbps );
        ])
      (Compress.Registry.all ())
  in
  Report.Table.print t;
  entries

(* ------------------------------------------------------------------ *)
(* Binary trace codec phase                                            *)

(* Encode/decode throughput of the binary trace format over the
   streaming workload's 10⁶-step trace, in MB/s of in-memory trace
   data (8 bytes per id). BENCH.json carries the plain-binary figures
   as trace/{encode,decode}-MBps (guarded by check.sh) plus the
   LZSS-framed variants; the round trip is asserted byte-exact. *)
let trace_codec_phase () =
  let graph, _ =
    Trace.Synthetic.hot_cold ~hot_blocks:6 ~cold_blocks:24 ~hot_iters:4
      ~cold_visit_every:16 ()
  in
  let ids = Trace.Synthetic.markov ~seed:42 graph ~length:1_000_000 in
  let mb = float_of_int (8 * Array.length ids) /. 1e6 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let measure ~lzss =
    let enc, enc_dt = time (fun () -> Trace.Binary.encode ~lzss ids) in
    let dec, dec_dt = time (fun () -> Trace.Binary.decode enc) in
    (match dec with
    | Ok ids' when ids' = ids -> ()
    | Ok _ -> failwith "trace codec phase: lossy round trip"
    | Error e -> failwith ("trace codec phase: " ^ e));
    (String.length enc, mb /. enc_dt, mb /. dec_dt)
  in
  let plain_bytes, plain_enc, plain_dec = measure ~lzss:false in
  let lzss_bytes, lzss_enc, lzss_dec = measure ~lzss:true in
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "binary trace codec: %d ids (%.0f MB in memory, %d bytes as text)"
           (Array.length ids) mb
           (String.length (Trace.Io.to_string ids)))
      ~columns:
        [
          ("framing", Report.Table.Left);
          ("bytes", Report.Table.Right);
          ("bytes/id", Report.Table.Right);
          ("enc MB/s", Report.Table.Right);
          ("dec MB/s", Report.Table.Right);
        ]
  in
  let row name bytes enc dec =
    Report.Table.add_row t
      [
        name;
        string_of_int bytes;
        Report.Table.fmt_float ~decimals:2
          (float_of_int bytes /. float_of_int (Array.length ids));
        Report.Table.fmt_float ~decimals:1 enc;
        Report.Table.fmt_float ~decimals:1 dec;
      ]
  in
  row "varint-delta" plain_bytes plain_enc plain_dec;
  row "varint-delta+lzss" lzss_bytes lzss_enc lzss_dec;
  Report.Table.print t;
  [
    ("trace/encode-MBps", plain_enc);
    ("trace/decode-MBps", plain_dec);
    ("trace/lzss-encode-MBps", lzss_enc);
    ("trace/lzss-decode-MBps", lzss_dec);
  ]

(* ------------------------------------------------------------------ *)
(* Energy accounting phase                                             *)

(* One deterministic engine run per device profile: the per-dimension
   totals BENCH.json carries as energy/<profile>/* keys, so a change
   to any profile's coefficients (or to a charging site) shows up in
   the perf diff, and scripts/check.sh can gate on the keys existing.
   Cycle totals are profile-invariant by construction; that invariant
   is pinned here too. *)
let energy_phase () =
  let sc = Experiments.Util.scenario "fir" in
  let policy = Core.Policy.on_demand ~k:8 in
  let t =
    Report.Table.create
      ~title:"energy accounting: fir k=8 on-demand, per device profile"
      ~columns:
        [
          ("profile", Report.Table.Left);
          ("cycles", Report.Table.Right);
          ("total nJ", Report.Table.Right);
          ("dec nJ", Report.Table.Right);
          ("ram-static nJ", Report.Table.Right);
        ]
  in
  let runs =
    List.map
      (fun profile -> (profile, Core.Scenario.run ~profile sc policy))
      Sim.Cost.profile_names
  in
  (match runs with
  | (_, first) :: rest ->
    if
      List.exists
        (fun (_, (m : Core.Metrics.t)) ->
          m.total_cycles <> first.Core.Metrics.total_cycles)
        rest
    then failwith "energy phase: cycle totals vary across device profiles"
  | [] -> ());
  let entries =
    List.concat_map
      (fun (profile, (m : Core.Metrics.t)) ->
        Report.Table.add_row t
          [
            profile;
            string_of_int m.total_cycles;
            string_of_int m.energy_nj;
            string_of_int m.dec_energy_nj;
            string_of_int m.ram_static_energy_nj;
          ];
        [
          ( Printf.sprintf "energy/%s/fir-total-nj" profile,
            float_of_int m.energy_nj );
          ( Printf.sprintf "energy/%s/fir-ram-static-nj" profile,
            float_of_int m.ram_static_energy_nj );
        ])
      runs
  in
  Report.Table.print t;
  entries

(* ------------------------------------------------------------------ *)
(* Corpus generator phase                                              *)

(* A 100-program batch through Corpus.Gen.build — emission plus the
   calibration replays on the real machine. Generated-corpus
   experiments (E20) pay this cost once per program, so its throughput
   is a first-class figure; BENCH.json carries it as
   corpus/gen-programs-per-s in both full and --smoke modes. *)
let corpus_phase () =
  let n = 100 in
  let t0 = Unix.gettimeofday () in
  let visits = ref 0 in
  for seed = 1 to n do
    let spec = { Corpus.Spec.default with Corpus.Spec.seed } in
    let bt = Corpus.Gen.build spec in
    visits := !visits + Array.length bt.Corpus.Gen.trace
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let per_s = float_of_int n /. dt in
  Printf.printf
    "corpus generator: %d programs in %.2fs (%.1f programs/s, %d trace \
     visits)\n"
    n dt per_s !visits;
  [ ("corpus/gen-programs-per-s", per_s) ]

(* ------------------------------------------------------------------ *)
(* Streaming event-bus benchmark                                       *)

(* A million-step Markov walk streamed through a counting sink: the
   engine keeps no event list, so heap growth across the run should be
   (near) zero no matter the trace length. Reported alongside the
   throughput so a regression to O(trace) buffering is immediately
   visible as a top-heap delta in the same order as the event count. *)
(* Returns the wall time so the machine-readable BENCH.json can track
   it across PRs alongside the per-kernel estimates. *)
let streaming_bench () =
  let graph, _ =
    Trace.Synthetic.hot_cold ~hot_blocks:6 ~cold_blocks:24 ~hot_iters:4
      ~cold_visit_every:16 ()
  in
  let length = 1_000_000 in
  let trace = Trace.Synthetic.markov ~seed:42 graph ~length in
  let sc = Core.Scenario.of_graph ~name:"streaming-1M" graph ~trace in
  let policy = Core.Policy.on_demand ~k:2 in
  ignore (Core.Scenario.run sc policy) (* warm-up: JIT nothing, GC lots *);
  let counters = Sim.Events.counters () in
  let sink = Sim.Events.counting counters in
  Gc.compact ();
  let heap_before = (Gc.stat ()).Gc.top_heap_words in
  let t0 = Sys.time () in
  let m = Core.Scenario.run ~sink sc policy in
  let dt = Sys.time () -. t0 in
  let heap_after = (Gc.stat ()).Gc.top_heap_words in
  let events = Sim.Events.total counters in
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "streaming event bus: %d-step walk, constant-memory counting sink"
           length)
      ~columns:[ ("measure", Report.Table.Left); ("value", Report.Table.Right) ]
  in
  let row k v = Report.Table.add_row t [ k; v ] in
  row "events streamed" (string_of_int events);
  row "events/sec"
    (Report.Table.fmt_float ~decimals:0 (float_of_int events /. dt));
  row "run wall time (s)" (Report.Table.fmt_float ~decimals:3 dt);
  row "top-heap growth (words)" (string_of_int (heap_after - heap_before));
  row "total cycles" (string_of_int m.Core.Metrics.total_cycles);
  Report.Table.print t;
  if events < length then
    failwith "streaming bench: fewer events than trace steps?";
  dt

(* The new scale the binary format and fused hot path buy: the same
   walk as streaming-1M but 21× longer — north of 10⁸ events through
   the constant-memory counting sink. Reported as events/second under
   its own key so the 1M figure keeps measuring the seed workload. *)
let streaming_100m_bench () =
  let graph, _ =
    Trace.Synthetic.hot_cold ~hot_blocks:6 ~cold_blocks:24 ~hot_iters:4
      ~cold_visit_every:16 ()
  in
  let length = 21_000_000 in
  let trace = Trace.Synthetic.markov ~seed:42 graph ~length in
  let sc = Core.Scenario.of_graph ~name:"streaming-100M" graph ~trace in
  let policy = Core.Policy.on_demand ~k:2 in
  let counters = Sim.Events.counters () in
  let sink = Sim.Events.counting counters in
  let t0 = Unix.gettimeofday () in
  ignore (Core.Scenario.run ~sink sc policy);
  let dt = Unix.gettimeofday () -. t0 in
  let events = Sim.Events.total counters in
  Printf.printf "streaming-100M: %d events in %.2f s (%.1fM events/s)\n" events
    dt
    (float_of_int events /. dt /. 1e6);
  if events < 100_000_000 then
    failwith "streaming-100M: expected at least 10^8 events";
  float_of_int events /. dt

(* ------------------------------------------------------------------ *)
(* Service load phase                                                  *)

(* The event loop under pipelined concurrent load: N generator
   domains, a window of requests in flight each, against an in-process
   daemon. BENCH.json
   carries service/{req-per-s,p50-ms,p99-ms} in both full and --smoke
   modes. *)
let serve_phase ~clients ~requests ~pipeline () =
  let r = Service.Bench.run_load ~clients ~requests ~pipeline () in
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "service load: %d clients x %d health requests, pipeline %d"
           clients requests pipeline)
      ~columns:[ ("measure", Report.Table.Left); ("value", Report.Table.Right) ]
  in
  Report.Table.add_row t
    [ "req/s"; Report.Table.fmt_float ~decimals:0 r.Service.Bench.req_per_s ];
  Report.Table.add_row t
    [ "p50 (ms)"; Report.Table.fmt_float ~decimals:3 r.Service.Bench.p50_ms ];
  Report.Table.add_row t
    [ "p99 (ms)"; Report.Table.fmt_float ~decimals:3 r.Service.Bench.p99_ms ];
  Report.Table.add_row t
    [ "max (ms)"; Report.Table.fmt_float ~decimals:3 r.Service.Bench.max_ms ];
  Report.Table.add_row t
    [ "errors"; string_of_int r.Service.Bench.errors ];
  Report.Table.print t;
  if r.Service.Bench.errors > 0 then
    failwith "service load phase: generator saw errors";
  [
    ("service/req-per-s", r.Service.Bench.req_per_s);
    ("service/p50-ms", r.Service.Bench.p50_ms);
    ("service/p99-ms", r.Service.Bench.p99_ms);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~kde:None
      ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"ccomp" tests)
  in
  Analyze.all ols Instance.monotonic_clock raw

(* Renders the table and returns (name, ns/run) rows for BENCH.json. *)
let print_results results =
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort compare
  in
  let t =
    Report.Table.create ~title:"bechamel microbenchmarks (monotonic clock)"
      ~columns:
        [
          ("benchmark", Report.Table.Left);
          ("ns/run", Report.Table.Right);
          ("r²", Report.Table.Right);
        ]
  in
  List.iter
    (fun (name, estimate, r2) ->
      Report.Table.add_row t
        [
          name;
          Report.Table.fmt_float ~decimals:0 estimate;
          Report.Table.fmt_float ~decimals:3 r2;
        ])
    rows;
  Report.Table.print t;
  List.map (fun (name, estimate, _) -> (name, estimate)) rows

(* ------------------------------------------------------------------ *)
(* BENCH.json: the machine-readable twin of the human-readable output,
   so the perf trajectory is diffable across PRs. One flat object,
   kernel name -> wall-clock estimate (ns/run for bechamel rows,
   seconds for whole-phase timings). *)

let write_bench_json entries =
  let oc = open_out "BENCH.json" in
  output_string oc "{\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "  \"%s\": %s%s\n"
        (Report.Table.json_escape name)
        (if Float.is_nan v then "null" else Printf.sprintf "%.6g" v)
        (if i = n - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc;
  print_endline "(benchmark estimates written to BENCH.json)"

(* ------------------------------------------------------------------ *)

let () =
  (* --smoke: just the streaming-bus check (it has a built-in failure
     condition), fast enough for scripts/check.sh to gate on. *)
  if Array.exists (( = ) "--smoke") Sys.argv then begin
    print_endline
      "ccomp benchmark harness (smoke): streaming event bus + service \
       load.\n";
    let dt = streaming_bench () in
    print_newline ();
    let eps_100m = streaming_100m_bench () in
    print_newline ();
    let serve_entries =
      serve_phase ~clients:2 ~requests:5_000 ~pipeline:32 ()
    in
    print_newline ();
    let codec_entries = codec_throughput_phase ~min_time_s:0.01 () in
    print_newline ();
    let trace_entries = trace_codec_phase () in
    print_newline ();
    let energy_entries = energy_phase () in
    print_newline ();
    let corpus_entries = corpus_phase () in
    write_bench_json
      (("streaming-1M/wall-s", dt)
      :: ("streaming-100M/events-per-s", eps_100m)
      :: (serve_entries @ codec_entries @ trace_entries @ energy_entries
         @ corpus_entries))
  end
  else begin
    print_endline
      "ccomp benchmark harness: micro-benchmarks per experiment, then the \
       regenerated tables for every figure/table of the paper.\n";
    let tests = experiment_tests () @ codec_tests () @ toolchain_tests () in
    let estimates = print_results (benchmark tests) in
    print_newline ();
    let streaming_dt = streaming_bench () in
    print_newline ();
    let eps_100m = streaming_100m_bench () in
    print_newline ();
    let serve_entries =
      serve_phase ~clients:4 ~requests:25_000 ~pipeline:32 ()
    in
    print_newline ();
    let codec_entries = codec_throughput_phase () in
    print_newline ();
    let trace_entries = trace_codec_phase () in
    print_newline ();
    let energy_entries = energy_phase () in
    print_newline ();
    let corpus_entries = corpus_phase () in
    print_newline ();
    (* Full-table regeneration runs through the fleet pool (cache off:
       a benchmark should measure engine work, not disk reads). The
       registry counts the jobs, so the phase reports fleet
       throughput, not just wall time. *)
    let fleet_registry = Sim.Metrics.create () in
    Experiments.Util.configure_fleet
      ~jobs:(max 2 (Domain.recommended_domain_count ()))
      ~registry:fleet_registry ();
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun ((e : Experiments.Registry.entry), table) ->
        Printf.printf "[%s / %s] (%s)\n%s\n" e.id e.slug e.paper_anchor
          (Report.Table.render table))
      (Experiments.Registry.run_all ());
    let tables_dt = Unix.gettimeofday () -. t0 in
    let fleet_jobs =
      Sim.Metrics.value
        (Sim.Metrics.counter fleet_registry "fleet_jobs_completed")
    in
    let jobs_per_sec = float_of_int fleet_jobs /. tables_dt in
    Printf.printf
      "fleet table phase: %d jobs in %.2fs (%.1f jobs/sec across the pool)\n"
      fleet_jobs tables_dt jobs_per_sec;
    write_bench_json
      (estimates
      @ serve_entries
      @ codec_entries
      @ trace_entries
      @ energy_entries
      @ corpus_entries
      @ [
          ("streaming-1M/wall-s", streaming_dt);
          ("streaming-100M/events-per-s", eps_100m);
          ("experiment-tables/wall-s", tables_dt);
          ("experiment-tables/jobs-per-sec", jobs_per_sec);
        ])
  end
